"""End-to-end acceptance gate.

One test per release criterion; each prints a PASS/FAIL line (visible with
`pytest tests/test_acceptance.py -v -s`).  Tolerances are pinned here and
nowhere else.
"""

import random
import time
from contextlib import contextmanager

import pytest

from attackcf.bench import DEFAULT_MATRIX, SynthSpec, generate, run_bench
from attackcf.discovery import discover, entry_eligible
from attackcf.ingest import load_bundle
from attackcf.model import (
    AttackerProfile,
    Classification,
    DEFAULT_ALLOWED_TYPES,
    DiscoveryConfig,
    validate_model,
)
from attackcf.prediction import classify_pair, predict
from attackcf.similarity import pcc

import oracles
from conftest import (
    DEMO_DIR,
    graph_with_uniform_vulns,
    random_digraph,
    random_prediction_setup,
)


@contextmanager
def criterion(name):
    ok = False
    try:
        yield
        ok = True
    finally:
        print(f"\n{'PASS' if ok else 'FAIL'}: {name}")


FINAL_EXPECTED = {
    ("A1", "A2"): Classification.VERY_HIGH,
    ("A2", "A1"): Classification.VERY_HIGH,
    ("A2", "A3"): Classification.VERY_HIGH,
    ("A1", "A3"): Classification.HIGH,
    ("A3", "A1"): Classification.HIGH,
    ("A3", "A2"): Classification.HIGH,
}

INTERMEDIATE_EXPECTED = {
    ("A1", "A2"): Classification.VERY_HIGH,
    ("A2", "A1"): Classification.VERY_HIGH,
    ("A1", "A3"): Classification.HIGH,
    ("A3", "A1"): Classification.HIGH,
    ("A2", "A3"): Classification.HIGH,
    ("A3", "A2"): Classification.HIGH,
}


def test_case_study_golden():
    """Three-asset case study reproduces the published classification lists."""
    with criterion("case-study golden test (exact, < 1 s)"):
        started = time.perf_counter()

        bundle = load_bundle(
            DEMO_DIR / "assets.csv",
            DEMO_DIR / "vulns.csv",
            DEMO_DIR / "edges.csv",
            DEMO_DIR / "config.txt",
        )
        assert validate_model(bundle.graph) == []

        result = discover(bundle.graph, bundle.discovery)
        assert {p.nodes for p in result.paths} == {
            ("A1", "A2"), ("A2", "A3"), ("A2", "A1")
        }

        intermediate = {}
        for src, dst in FINAL_EXPECTED:
            if (dst, src) in intermediate:
                intermediate[(src, dst)] = intermediate[(dst, src)]
                continue
            shared = len(
                {v.cve_id for v in bundle.graph.vulnerabilities if v.asset == src}
                & {v.cve_id for v in bundle.graph.vulnerabilities if v.asset == dst}
            )
            intermediate[(src, dst)] = classify_pair(
                shared, oracles.same_type(src, dst, bundle.graph), bundle.prediction
            )
        assert intermediate == INTERMEDIATE_EXPECTED

        report = predict(bundle.graph, result, bundle.prediction)
        final = {(p.src, p.dst): p.level for p in report.predictions}
        assert final == FINAL_EXPECTED

        elapsed = time.perf_counter() - started
        assert elapsed < 1.0, f"pipeline took {elapsed:.3f}s"


def test_path_enumeration_oracle_equivalence():
    """discover() equals an independent exhaustive enumerator on 200 graphs."""
    with criterion("path-enumeration oracle equivalence (200 graphs, < 30 s)"):
        started = time.perf_counter()
        rng = random.Random(20250810)
        for case in range(200):
            n = rng.randint(2, 10)
            nodes, edges = random_digraph(rng, n, rng.uniform(0.1, 0.35))
            graph = graph_with_uniform_vulns(nodes, edges)
            k = min(3, n)
            entries = set(rng.sample(nodes, rng.randint(1, k)))
            targets = set(rng.sample(nodes, rng.randint(1, k)))
            max_len = rng.randint(1, 9)
            config = DiscoveryConfig(entries, targets, AttackerProfile(3, 3), max_len)

            got = {p.nodes for p in discover(graph, config).paths}

            adj = {}
            for u, v in edges:
                adj.setdefault(u, set()).add(v)
            vulns_of = {x: [("CodeExecution", 1, 1)] for x in nodes}
            expected = oracles.discover_reference(
                adj, vulns_of, entries, targets, (3, 3), {"CodeExecution"}, max_len
            )
            assert got == expected, f"case {case} diverged"
        elapsed = time.perf_counter() - started
        assert elapsed < 30.0, f"suite took {elapsed:.1f}s"


def test_pcc_numeric_oracle():
    """Correlation matches an independent implementation to 1e-9."""
    with criterion("PCC numeric oracle (1000 vectors @ 1e-9, degenerate exact)"):
        rng = random.Random(97)
        for _ in range(1000):
            n = rng.randint(2, 20)
            xs = [rng.uniform(0.0, 10.0) for _ in range(n)]
            ys = [rng.uniform(0.0, 10.0) for _ in range(n)]
            value, _ = pcc(list(zip(xs, ys)))
            expected = oracles.pearson_reference(xs, ys)
            assert abs(value - expected) <= 1e-9

        for _ in range(100):
            c = round(rng.uniform(0.0, 10.0), 1)
            k = rng.randint(2, 20)
            value, degenerate = pcc([(c, c)] * k)
            assert value == 1.0
            assert degenerate


def test_performance_envelope():
    """Full 12-cell matrix on the 180-asset synthetic graph stays under budget."""
    with criterion("performance envelope (12 cells < 10 s each, tail monotone)"):
        spec = SynthSpec(n_hardware=35, n_software=145, edge_density=0.05,
                         vuln_per_asset=3, seed=42)
        graph = generate(spec)
        assert len(graph.assets) == 180
        records = run_bench(graph, spec, DEFAULT_MATRIX, repetitions=3)
        assert len(records) == 12
        for r in records:
            assert r.wall_time < 10.0, (
                f"cell ({r.capability}, {r.propagation_length}, "
                f"{r.n_entry}x{r.n_target}) took {r.wall_time:.2f}s"
            )
        tail = [r.wall_time for r in records[9:]]
        assert tail == sorted(tail), f"rows 10-12 not monotone: {tail}"


class TestPropertySuites:
    """Each invariant exercised over at least 100 random seeds."""

    @staticmethod
    def _discovery_case(rng):
        nodes, edges = random_digraph(rng, rng.randint(2, 9), rng.uniform(0.1, 0.5))
        graph = graph_with_uniform_vulns(nodes, edges)
        k = min(3, len(nodes))
        config = DiscoveryConfig(
            set(rng.sample(nodes, rng.randint(1, k))),
            set(rng.sample(nodes, rng.randint(1, k))),
            AttackerProfile(3, 3),
            rng.randint(1, 6),
        )
        return graph, config

    def test_path_soundness(self):
        with criterion("property: path soundness (100 seeds)"):
            for seed in range(100):
                rng = random.Random(10_000 + seed)
                graph, config = self._discovery_case(rng)
                edge_set = set(graph.edges)
                for p in discover(graph, config).paths:
                    assert len(p.nodes) >= 2
                    assert len(set(p.nodes)) == len(p.nodes)
                    assert p.entry in config.entry_points
                    assert p.target in config.target_points
                    assert p.n_edges <= config.propagation_length
                    assert all(e in edge_set for e in zip(p.nodes, p.nodes[1:]))

    def test_pruning_safety(self):
        with criterion("property: pruning safety (100 seeds)"):
            for seed in range(100):
                rng = random.Random(20_000 + seed)
                graph, config = self._discovery_case(rng)
                adj = {}
                for u, v in graph.edges:
                    adj.setdefault(u, set()).add(v)
                vulns_of = {a.id: [("CodeExecution", 1, 1)] for a in graph.assets}
                expected = sorted(oracles.discover_reference(
                    adj, vulns_of, config.entry_points, config.target_points, (3, 3),
                    {"CodeExecution"}, config.propagation_length,
                ))
                assert [p.nodes for p in discover(graph, config).paths] == expected

    def test_propagation_length_monotonicity(self):
        with criterion("property: propagation-length monotonicity (100 seeds)"):
            for seed in range(100):
                rng = random.Random(30_000 + seed)
                graph, config = self._discovery_case(rng)
                shorter = {p.nodes for p in discover(graph, config).paths}
                longer = DiscoveryConfig(
                    config.entry_points, config.target_points, config.attacker,
                    config.propagation_length + rng.randint(1, 3),
                )
                assert shorter <= {p.nodes for p in discover(graph, longer).paths}

    def test_attacker_eligibility_monotonicity(self):
        with criterion("property: attacker-eligibility monotonicity (100 seeds)"):
            from attackcf.model import VulnType
            types = list(VulnType)
            for seed in range(100):
                rng = random.Random(40_000 + seed)
                nodes, edges = random_digraph(rng, 6, 0.3)
                graph = graph_with_uniform_vulns(
                    nodes, edges,
                    vtype=rng.choice(types),
                    loc=rng.randint(1, 3),
                    cap=rng.randint(1, 3),
                )
                for node in nodes:
                    grid = {
                        (loc, cap): entry_eligible(
                            node, graph, AttackerProfile(loc, cap),
                            DEFAULT_ALLOWED_TYPES,
                        )
                        for loc in (1, 2, 3)
                        for cap in (1, 2, 3)
                    }
                    for (loc, cap), ok in grid.items():
                        if ok:
                            assert all(
                                grid[(l2, c2)]
                                for l2 in range(loc, 4)
                                for c2 in range(cap, 4)
                            )

    def test_direction_pairing(self):
        with criterion("property: prediction direction pairing (100 seeds)"):
            for seed in range(100):
                rng = random.Random(50_000 + seed)
                _, _, report = random_prediction_setup(rng)
                by_pair = {(p.src, p.dst): p for p in report.predictions}
                for (src, dst), p in by_pair.items():
                    assert (dst, src) in by_pair
                    assert by_pair[(dst, src)].co_rated == p.co_rated

    def test_promotion_and_demotion_completeness(self):
        with criterion("property: path promotion / demotion completeness (100 seeds)"):
            for seed in range(100):
                rng = random.Random(60_000 + seed)
                _, result, report = random_prediction_setup(rng)
                endpoint_pairs = {(p.entry, p.target) for p in result.paths}
                for p in report.predictions:
                    if (p.src, p.dst) in endpoint_pairs:
                        assert p.level is Classification.VERY_HIGH
                    if p.level is Classification.VERY_HIGH:
                        assert (p.src, p.dst) in endpoint_pairs

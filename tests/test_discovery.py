import dataclasses
import random

import pytest

from attackcf import _kernels
from attackcf.bench import SynthSpec, generate
from attackcf.discovery import DiscoveryResult, discover, entry_eligible
from attackcf.model import (
    Asset,
    AssetGraph,
    AssetKind,
    AttackPath,
    AttackerProfile,
    DEFAULT_ALLOWED_TYPES,
    DiscoveryConfig,
    VulnType,
    VulnerabilityInstance,
)

import oracles
from conftest import graph_with_uniform_vulns, office_config, random_digraph


def _successor_sets(edges):
    adj = {}
    for u, v in edges:
        adj.setdefault(u, set()).add(v)
    return adj


def _paths(g, entry, target, max_len):
    """The paths discover finds from the one entry to the one target."""
    config = DiscoveryConfig({entry}, {target}, AttackerProfile(3, 3), max_len)
    return discover(g, config).paths


def _single_vuln_graph(vtype, loc, cap, edges=()):
    assets = [Asset("E", "entry", AssetKind.HARDWARE)]
    vuln = VulnerabilityInstance(
        cve_id="CVE-X", asset="E", score=5.0, cwe_id="CWE-1",
        vuln_type=vtype, required_location=loc, required_capability=cap,
    )
    return AssetGraph(assets, [vuln], edges)


class TestEntryEligible:
    def test_attacker_below_requirements(self):
        g = _single_vuln_graph(VulnType.CODE_EXECUTION, 3, 3)
        assert not entry_eligible("E", g, AttackerProfile(1, 1), DEFAULT_ALLOWED_TYPES)

    def test_attacker_dominates(self):
        g = _single_vuln_graph(VulnType.CODE_EXECUTION, 1, 1)
        assert entry_eligible("E", g, AttackerProfile(3, 3), DEFAULT_ALLOWED_TYPES)

    def test_other_type_never_matches_default_filter(self):
        g = _single_vuln_graph(VulnType.OTHER, 1, 1)
        assert not entry_eligible("E", g, AttackerProfile(2, 2), DEFAULT_ALLOWED_TYPES)

    def test_both_attributes_must_meet(self):
        g = _single_vuln_graph(VulnType.XSS, 1, 3)
        assert not entry_eligible("E", g, AttackerProfile(3, 2), DEFAULT_ALLOWED_TYPES)
        g = _single_vuln_graph(VulnType.XSS, 3, 1)
        assert not entry_eligible("E", g, AttackerProfile(2, 3), DEFAULT_ALLOWED_TYPES)

    def test_unknown_entry_is_lookup_error(self):
        g = _single_vuln_graph(VulnType.XSS, 1, 1)
        with pytest.raises(KeyError, match="nope"):
            entry_eligible("nope", g, AttackerProfile(3, 3), DEFAULT_ALLOWED_TYPES)

    def test_edge_to_a_missing_asset_is_lookup_error(self, office):
        # like discover, eligibility assumes a graph that validate_model accepts
        g = AssetGraph(office.assets, office.vulnerabilities, office.edges + (("A1", "X9"),))
        with pytest.raises(KeyError, match="X9"):
            entry_eligible("A1", g, AttackerProfile(3, 3), DEFAULT_ALLOWED_TYPES)

    def test_attacker_monotonicity(self):
        rng = random.Random(13)
        types = list(VulnType)
        for _ in range(50):
            g = _single_vuln_graph(
                rng.choice(types), rng.randint(1, 3), rng.randint(1, 3)
            )
            eligibility = {
                (loc, cap): entry_eligible(
                    "E", g, AttackerProfile(loc, cap), DEFAULT_ALLOWED_TYPES
                )
                for loc in (1, 2, 3)
                for cap in (1, 2, 3)
            }
            for (loc, cap), ok in eligibility.items():
                if ok:
                    assert eligibility[(3, cap)]
                    assert eligibility[(loc, 3)]


class TestEnumerateSimplePaths:
    """discover from one entry to one target."""

    def test_two_hop_path(self, office):
        paths = _paths(office, "A1", "A3", 3)
        assert [p.nodes for p in paths] == [("A1", "A2", "A3")]

    def test_direct_edge(self, office):
        paths = _paths(office, "A1", "A2", 1)
        assert [p.nodes for p in paths] == [("A1", "A2")]

    def test_bound_excludes_distant_target(self, office):
        assert _paths(office, "A1", "A3", 1) == ()

    def test_equal_endpoints_give_no_path(self, office):
        # a simple path never returns to its entry, so an entry is no path end
        assert _paths(office, "A1", "A1", 2) == ()

    @pytest.mark.parametrize("max_len", [0, -1, 2.5, True])
    def test_rejects_bad_bound(self, office, max_len):
        # 2.5 would otherwise admit A1->A2->A3, and True would act as 1
        with pytest.raises(ValueError, match="propagation_length must be a positive integer"):
            _paths(office, "A1", "A3", max_len)

    def test_complete_digraph_count(self):
        nodes = [f"N{i}" for i in range(5)]
        edges = {(u, v) for u in nodes for v in nodes if u != v}
        g = graph_with_uniform_vulns(nodes, edges)
        paths = _paths(g, "N0", "N4", 4)
        oracle = oracles.simple_paths_by_permutation(nodes, edges, "N0", "N4", 4)
        assert len(paths) == len(oracle) == 16
        assert {p.nodes for p in paths} == set(oracle)

    def test_lexicographic_order(self):
        nodes = ["A", "B", "C", "D"]
        edges = {("A", "D"), ("A", "B"), ("B", "D"), ("A", "C"), ("C", "D"),
                 ("B", "C")}
        g = graph_with_uniform_vulns(nodes, edges)
        paths = [p.nodes for p in _paths(g, "A", "D", 3)]
        assert paths == sorted(paths)

    @pytest.mark.parametrize("seed", range(50))
    def test_matches_recursive_oracle(self, seed):
        rng = random.Random(6000 + seed)
        nodes, edges = random_digraph(rng, rng.randint(2, 10), rng.uniform(0.1, 0.5))
        g = graph_with_uniform_vulns(nodes, edges)
        entry, target = rng.sample(nodes, 2)
        max_len = rng.randint(1, 9)
        adj = _successor_sets(edges)
        got = [p.nodes for p in _paths(g, entry, target, max_len)]
        assert got == sorted(oracles.simple_paths_recursive(adj, entry, target, max_len))


class TestDiscover:
    def test_office_case(self, office):
        result = discover(office, office_config())
        assert {p.nodes for p in result.paths} == {
            ("A1", "A2"), ("A2", "A1"), ("A2", "A3")
        }
        assert result.affected_assets == {"A1", "A2", "A3"}
        assert not result.no_eligible_entries

    def test_longer_bound_adds_two_hop_path(self, office):
        result = discover(office, office_config(propagation_length=3))
        assert ("A1", "A2", "A3") in {p.nodes for p in result.paths}

    def test_weak_attacker_yields_flagged_empty_result(self):
        nodes = ["E", "T"]
        g = graph_with_uniform_vulns(nodes, {("E", "T")}, loc=3, cap=3)
        config = DiscoveryConfig({"E"}, {"T"}, AttackerProfile(1, 1), 2)
        result = discover(g, config)
        assert result.paths == ()
        assert result.affected_assets == frozenset()
        assert result.no_eligible_entries

    def test_unbound_entry_points_raise(self, office):
        config = DiscoveryConfig({"Z1"}, {"A1"}, AttackerProfile(3, 3), 1)
        with pytest.raises(ValueError, match="entry"):
            discover(office, config)

    def test_unbound_target_points_raise(self, office):
        config = DiscoveryConfig({"A1"}, {"Z9"}, AttackerProfile(3, 3), 1)
        with pytest.raises(ValueError) as exc:
            discover(office, config)
        assert str(exc.value) == "target_points reference unknown assets: Z9"

    def test_every_unknown_configured_id_raises(self, office):
        # one known id does not excuse the others: each is part of the
        # attack surface the analyst asked about
        config = DiscoveryConfig({"A1", "TYPO", "B0"}, {"A2", "NOPE"}, AttackerProfile(3, 3), 2)
        with pytest.raises(ValueError) as exc:
            discover(office, config)
        assert str(exc.value) == "entry_points reference unknown assets: B0, TYPO"
        config = DiscoveryConfig({"A1"}, {"A2", "NOPE", "MISSING"}, AttackerProfile(3, 3), 2)
        with pytest.raises(ValueError) as exc:
            discover(office, config)
        assert str(exc.value) == "target_points reference unknown assets: MISSING, NOPE"

    def test_all_traversals_share_one_adjacency(self, office, monkeypatch):
        seen = []

        def recording(name, kernel):
            def wrapper(rows, *args):
                seen.append((name, rows))
                return kernel(rows, *args)
            return wrapper

        monkeypatch.setattr(_kernels, "bfs_lengths",
                            recording("bfs", _kernels.bfs_lengths))
        monkeypatch.setattr(_kernels, "simple_paths",
                            recording("dfs", _kernels.simple_paths))
        discover(office, office_config(propagation_length=3))
        _paths(office, "A1", "A3", 2)
        adj = office.adjacency
        # each call: one BFS over the predecessors from the targets, then one
        # DFS over the successors from every eligible entry (A1 and A2, then A1)
        expected = [("bfs", adj.pred), ("dfs", adj.succ)] * 2
        assert len(seen) == len(expected)
        for (name, rows), (want_name, want_rows) in zip(seen, expected):
            assert name == want_name
            assert rows is want_rows

    def test_target_bfs_stops_one_level_short(self, office, monkeypatch):
        # the DFS reads a distance only one edge or more into a path, so a
        # distance of the full propagation length is never used
        bfs = _kernels.bfs_lengths
        depths = []

        def recording(rows, sources, max_depth):
            depths.append(max_depth)
            return bfs(rows, sources, max_depth)

        monkeypatch.setattr(_kernels, "bfs_lengths", recording)
        discover(office, office_config(propagation_length=3))
        _paths(office, "A1", "A3", 2)
        assert depths == [2, 1]

    def test_path_through_a_target_reaches_the_next(self):
        g = graph_with_uniform_vulns(["E", "T1", "T2"], {("E", "T1"), ("T1", "T2")})
        config = DiscoveryConfig({"E"}, {"T1", "T2"}, AttackerProfile(3, 3), 2)
        got = [p.nodes for p in discover(g, config).paths]
        assert got == [("E", "T1"), ("E", "T1", "T2")]

    def test_entry_that_is_a_target_is_never_a_path_end(self):
        nodes = ["A", "B", "C"]
        edges = {("A", "B"), ("B", "A"), ("B", "C"), ("C", "A")}
        g = graph_with_uniform_vulns(nodes, edges)
        config = DiscoveryConfig({"A"}, set(nodes), AttackerProfile(3, 3), 4)
        got = [p.nodes for p in discover(g, config).paths]
        assert got == [("A", "B"), ("A", "B", "C")]

    def test_complete_digraph_matches_oracle(self):
        nodes = [f"N{i}" for i in range(5)]
        edges = {(u, v) for u in nodes for v in nodes if u != v}
        g = graph_with_uniform_vulns(nodes, edges)
        config = DiscoveryConfig({"N0"}, {"N4"}, AttackerProfile(3, 3), 4)
        result = discover(g, config)
        assert len(result.paths) == 16

    @pytest.mark.parametrize("seed", range(30))
    def test_matches_recursive_oracle(self, seed):
        rng = random.Random(seed)
        nodes, edges = random_digraph(rng, rng.randint(2, 10), rng.uniform(0.1, 0.4))
        g = graph_with_uniform_vulns(nodes, edges)
        k = min(3, len(nodes))
        entries = set(rng.sample(nodes, rng.randint(1, k)))
        targets = set(rng.sample(nodes, rng.randint(1, k)))
        max_len = rng.randint(1, 9)
        config = DiscoveryConfig(entries, targets, AttackerProfile(3, 3), max_len)
        got = {p.nodes for p in discover(g, config).paths}

        adj = _successor_sets(edges)
        vulns_of = {n: [(VulnType.CODE_EXECUTION, 1, 1)] for n in nodes}
        expected = oracles.discover_reference(
            adj, vulns_of, entries, targets, (3, 3), DEFAULT_ALLOWED_TYPES, max_len
        )
        assert got == expected

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_permutation_oracle_on_small_graphs(self, seed):
        rng = random.Random(1000 + seed)
        nodes, edges = random_digraph(rng, rng.randint(2, 6), rng.uniform(0.2, 0.6))
        g = graph_with_uniform_vulns(nodes, edges)
        entry, target = rng.sample(nodes, 2)
        max_len = rng.randint(1, 5)
        config = DiscoveryConfig({entry}, {target}, AttackerProfile(3, 3), max_len)
        got = {p.nodes for p in discover(g, config).paths}
        expected = set(
            oracles.simple_paths_by_permutation(nodes, edges, entry, target, max_len)
        )
        assert got == expected


class TestDiscoverProperties:
    @staticmethod
    def _random_case(rng):
        nodes, edges = random_digraph(rng, rng.randint(2, 9), rng.uniform(0.1, 0.5))
        g = graph_with_uniform_vulns(nodes, edges)
        k = min(3, len(nodes))
        entries = set(rng.sample(nodes, rng.randint(1, k)))
        targets = set(rng.sample(nodes, rng.randint(1, k)))
        config = DiscoveryConfig(entries, targets, AttackerProfile(3, 3),
                                 rng.randint(1, 6))
        return g, config

    @pytest.mark.parametrize("seed", range(40))
    def test_soundness(self, seed):
        rng = random.Random(2000 + seed)
        g, config = self._random_case(rng)
        edge_set = set(g.edges)
        result = discover(g, config)
        for p in result.paths:
            assert len(p.nodes) >= 2
            assert len(set(p.nodes)) == len(p.nodes)
            assert p.entry in config.entry_points
            assert p.target in config.target_points
            assert p.n_edges <= config.propagation_length
            assert all(e in edge_set for e in zip(p.nodes, p.nodes[1:]))
        assert result.affected_assets == {n for p in result.paths for n in p.nodes}

    @pytest.mark.parametrize("seed", range(40))
    def test_pruning_safety(self, seed):
        # the distance bound only skips branches: the result is exactly the
        # unpruned per-pair enumeration, in order
        rng = random.Random(3000 + seed)
        g, config = self._random_case(rng)
        adj = _successor_sets(g.edges)
        vulns_of = {a.id: [(VulnType.CODE_EXECUTION, 1, 1)] for a in g.assets}
        expected = sorted(oracles.discover_reference(
            adj, vulns_of, config.entry_points, config.target_points, (3, 3),
            DEFAULT_ALLOWED_TYPES, config.propagation_length,
        ))
        result = discover(g, config)
        assert [p.nodes for p in result.paths] == expected
        assert result.affected_assets == {n for p in expected for n in p}

    @pytest.mark.parametrize("seed", range(40))
    def test_propagation_length_monotonicity(self, seed):
        rng = random.Random(4000 + seed)
        g, config = self._random_case(rng)
        shorter = {p.nodes for p in discover(g, config).paths}
        longer_config = DiscoveryConfig(
            config.entry_points, config.target_points, config.attacker,
            config.propagation_length + rng.randint(1, 3),
        )
        longer = {p.nodes for p in discover(g, longer_config).paths}
        assert shorter <= longer

    @pytest.mark.parametrize("seed", range(200))
    def test_ordered_output_matches_per_pair_oracle(self, seed):
        # one DFS per entry towards every target must give exactly the union
        # of the per-(entry, target) enumerations, already in sorted order
        rng = random.Random(5000 + seed)
        nodes, edges = random_digraph(rng, rng.randint(2, 10), rng.uniform(0.1, 0.5))
        caps = {n: rng.randint(1, 3) for n in nodes}
        g = AssetGraph(
            [Asset(n, n, AssetKind.HARDWARE) for n in nodes],
            [VulnerabilityInstance("CVE-1", n, 5.0, None, VulnType.CODE_EXECUTION, 1, c)
             for n, c in caps.items()],
            edges,
        )
        k = min(4, len(nodes))
        entries = set(rng.sample(nodes, rng.randint(1, k)))
        targets = set(rng.sample(nodes, rng.randint(1, k)))
        attacker = AttackerProfile(3, rng.randint(1, 3))
        max_len = rng.randint(1, 7)
        config = DiscoveryConfig(entries, targets, attacker, max_len)

        adj = _successor_sets(edges)
        vulns_of = {n: [(VulnType.CODE_EXECUTION, 1, c)] for n, c in caps.items()}
        expected = sorted(oracles.discover_reference(
            adj, vulns_of, entries, targets, (attacker.location, attacker.capability),
            DEFAULT_ALLOWED_TYPES, max_len,
        ))
        got = [p.nodes for p in discover(g, config).paths]
        assert got == expected

    def test_duplicate_paths_never_emitted(self):
        rng = random.Random(77)
        for _ in range(20):
            g, config = self._random_case(rng)
            result = discover(g, config)
            assert len(result.paths) == len(set(result.paths))
            assert list(result.paths) == sorted(result.paths, key=lambda p: p.nodes)


@pytest.mark.parametrize("seed", range(4))
def test_unchecked_paths_are_the_checked_ones(seed):
    # discovery builds its paths past AttackPath's check; each must be the
    # very path the checking constructor builds from its nodes
    graph = generate(SynthSpec(6, 24, 0.3, 2, seed))
    ids = sorted(a.id for a in graph.assets)
    rng = random.Random(seed)
    entries, targets = rng.sample(ids, 4), rng.sample(ids, 6)
    found = list(discover(graph, DiscoveryConfig(entries, targets, AttackerProfile(3, 3), 5,
                                                 frozenset(VulnType))).paths)
    for entry in entries:
        target = next(t for t in targets if t != entry)
        found += discover(graph, DiscoveryConfig({entry}, {target}, AttackerProfile(3, 3), 5,
                                                 frozenset(VulnType))).paths
    assert len(found) > 200
    for p in found:
        assert type(p) is AttackPath
        assert p == AttackPath(p.nodes)


def test_affected_assets_derive_from_paths():
    paths = (AttackPath(("A1", "A2")), AttackPath(("A2", "A3", "A4")), AttackPath(("A5", "A1")))
    result = DiscoveryResult(paths=paths)
    assert result.affected_assets == frozenset({"A1", "A2", "A3", "A4", "A5"})
    assert type(result.affected_assets) is frozenset
    assert DiscoveryResult(paths=()).affected_assets == frozenset()
    assert DiscoveryResult(paths=(), no_eligible_entries=True).affected_assets == frozenset()
    # the affected set is not a field, so no result can disagree with its paths
    assert [f.name for f in dataclasses.fields(DiscoveryResult)] == ["paths", "no_eligible_entries"]
    with pytest.raises(TypeError):
        DiscoveryResult(paths=paths, affected_assets=frozenset({"A1"}))

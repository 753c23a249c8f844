import functools
import random

import pytest
from hypothesis import given, settings, strategies as st

from attackcf import model, prediction, similarity
from attackcf.bench import SynthSpec, generate
from attackcf.discovery import DiscoveryResult, discover
from attackcf.model import (
    Asset,
    AssetGraph,
    AssetKind,
    AttackPath,
    AttackerProfile,
    Classification,
    DiscoveryConfig,
    Prediction,
    PredictionConfig,
    VulnType,
    VulnerabilityInstance,
)
from attackcf.prediction import (
    PredictionReport,
    classify_pair,
    predict,
)
from attackcf.report import format_prediction_report

import oracles
from conftest import office_config, pair_similarities, per_pair_reference, random_prediction_setup

DEFAULTS = PredictionConfig()


def _graph_from_cells(cells, cwe_of=None):
    """cells: {(asset, cve): score}; cwe_of optionally maps cve -> cwe id."""
    assets = {a for a, _ in cells}
    vulns = [
        VulnerabilityInstance(
            cve_id=cve, asset=a, score=score,
            cwe_id=(cwe_of or {}).get(cve, "CWE-1"),
            vuln_type=VulnType.XSS, required_location=1, required_capability=1,
        )
        for (a, cve), score in cells.items()
    ]
    return AssetGraph([Asset(a, a, AssetKind.HARDWARE) for a in assets], vulns)


def _empty_result() -> DiscoveryResult:
    return DiscoveryResult(paths=())


def _package_same_type(a, b, graph):
    """Type agreement of a -> b as the package's pair_grades index records it."""
    grades = graph.pair_grades
    rows = [k for k, pair in enumerate(zip(grades.srcs, grades.dsts)) if pair == (a, b)]
    return any(grades.grades[grades.grade[k]][1] for k in rows)


class TestSameType:
    """oracles.same_type, and the package's pair_grades agreeing with it."""

    def test_shared_cves_with_matching_cwe(self, office):
        assert oracles.same_type("A1", "A2", office)
        assert _package_same_type("A1", "A2", office)

    def test_disjoint_assets(self):
        g = _graph_from_cells({("X", "C1"): 5.0, ("Y", "C2"): 5.0})
        assert not oracles.same_type("X", "Y", g)
        assert not _package_same_type("X", "Y", g)

    def test_absent_cwe_cannot_certify(self):
        g = _graph_from_cells(
            {("X", "C1"): 5.0, ("Y", "C1"): 5.0}, cwe_of={"C1": None}
        )
        assert not oracles.same_type("X", "Y", g)
        assert not _package_same_type("X", "Y", g)

    def test_mismatched_cwe(self):
        cells = {("X", "C1"): 5.0, ("Y", "C1"): 5.0}
        assets = {a for a, _ in cells}
        vulns = [
            VulnerabilityInstance("C1", "X", 5.0, "CWE-10", VulnType.XSS, 1, 1),
            VulnerabilityInstance("C1", "Y", 5.0, "CWE-20", VulnType.XSS, 1, 1),
        ]
        g = AssetGraph([Asset(a, a, AssetKind.HARDWARE) for a in assets], vulns)
        assert not oracles.same_type("X", "Y", g)
        assert not _package_same_type("X", "Y", g)

    def test_rejects_same_asset(self, office):
        with pytest.raises(ValueError):
            oracles.same_type("A1", "A1", office)


class TestClassifyPair:
    def test_top_tier(self):
        assert classify_pair(4, True, DEFAULTS) is Classification.VERY_HIGH

    def test_high_tier(self):
        assert classify_pair(3, True, DEFAULTS) is Classification.HIGH

    def test_zero_shared(self):
        # x4=0 admits n=0 into the bottom bounded tier; with x4 >= 1 a
        # zero count sits below every threshold
        assert classify_pair(0, True, DEFAULTS) is Classification.LOW
        assert classify_pair(0, True, PredictionConfig(4, 3, 2, 1)) is Classification.VERY_LOW
        assert classify_pair(0, False, PredictionConfig(4, 3, 2, 1)) is Classification.VERY_LOW

    def test_type_disagreement_skips_upper_tiers(self):
        # n above every threshold but without type agreement matches no tier
        assert classify_pair(9, False, DEFAULTS) is Classification.VERY_LOW
        assert classify_pair(3, False, DEFAULTS) is Classification.VERY_LOW

    def test_middle_tiers_ignore_type(self):
        assert classify_pair(1, False, DEFAULTS) is Classification.MEDIUM
        assert classify_pair(1, True, DEFAULTS) is Classification.MEDIUM
        assert classify_pair(0, False, PredictionConfig(4, 3, 2, 0)) is Classification.LOW

    def test_rejects_negative_count(self):
        with pytest.raises(ValueError):
            classify_pair(-1, True, DEFAULTS)

    def test_monotone_in_n_when_types_agree(self):
        # with type agreement more shared CVEs never lowers the tier; with
        # disagreement the upper tiers are unreachable by construction, so
        # counts at or above x2 all collapse to the bottom tier instead
        rng = random.Random(11)
        for _ in range(100):
            xs = sorted(rng.sample(range(0, 12), 4), reverse=True)
            config = PredictionConfig(*xs)
            levels = [classify_pair(n, True, config) for n in range(15)]
            assert all(b >= a for a, b in zip(levels, levels[1:]))

    def test_disagreement_caps_out_at_bottom(self):
        assert classify_pair(2, False, DEFAULTS) is Classification.VERY_LOW
        assert classify_pair(14, False, DEFAULTS) is Classification.VERY_LOW

    def test_matches_reference(self):
        rng = random.Random(12)
        for _ in range(300):
            xs = sorted(rng.sample(range(0, 12), 4), reverse=True)
            config = PredictionConfig(*xs)
            n = rng.randint(0, 15)
            agree = rng.random() < 0.5
            expected = oracles.classify_reference(n, agree, *xs)
            got = classify_pair(n, agree, config).name.replace("_", " ").lower()
            assert got == expected


# (shared CVEs, CWE agreement) giving each tier before rearrangement under REARRANGE
REARRANGE = PredictionConfig(4, 3, 2, 1)
BASE_INPUTS = {
    Classification.VERY_HIGH: (4, True),
    Classification.HIGH: (3, True),
    Classification.MEDIUM: (2, True),
    Classification.LOW: (1, True),
    Classification.VERY_LOW: (4, False),
}
# the tier each base keeps in a direction no discovered path runs
OFF_PATH = {
    Classification.VERY_HIGH: Classification.HIGH,
    Classification.HIGH: Classification.HIGH,
    Classification.MEDIUM: Classification.MEDIUM,
    Classification.LOW: Classification.LOW,
    Classification.VERY_LOW: Classification.VERY_LOW,
}


def _pair_levels(base, path=None):
    """predict's {(src, dst): level} for the pair X, Y classified as base,
    with path (a node tuple) as the only discovered attack path."""
    n, agree = BASE_INPUTS[base]
    assert classify_pair(n, agree, REARRANGE) is base
    cves = [f"C{i}" for i in range(n)]
    cells = {(a, cve): 5.0 for a in "XY" for cve in cves}
    g = _graph_from_cells(cells, None if agree else dict.fromkeys(cves))
    result = DiscoveryResult(paths=() if path is None else (AttackPath(path),))
    return {(p.src, p.dst): p.level for p in predict(g, result, REARRANGE).predictions}


class TestRearrange:
    """The attack-path rule, seen through predict on two-asset graphs."""

    def test_path_promotes_to_top(self):
        for base in BASE_INPUTS:
            for path in (("X", "Y"), ("Y", "X")):
                assert _pair_levels(base, path) == {
                    path: Classification.VERY_HIGH, path[::-1]: OFF_PATH[base],
                }

    def test_no_path_leaves_high_alone(self):
        assert _pair_levels(Classification.HIGH) == {
            ("X", "Y"): Classification.HIGH, ("Y", "X"): Classification.HIGH,
        }

    def test_top_without_path_demoted(self):
        assert _pair_levels(Classification.VERY_HIGH) == {
            ("X", "Y"): Classification.HIGH, ("Y", "X"): Classification.HIGH,
        }

    def test_endpoints_not_transitive(self):
        # a multi-hop path A1->A2->A3 only certifies the (A1, A3) pair
        g = _graph_from_cells({("A1", "C1"): 5.0, ("A2", "C1"): 5.0,
                               ("A1", "C2"): 5.0, ("A3", "C2"): 5.0})
        path = AttackPath(("A1", "A2", "A3"))
        result = DiscoveryResult(paths=(path,))
        got = {(p.src, p.dst): p.level for p in predict(g, result, DEFAULTS).predictions}
        assert got == {
            ("A1", "A3"): Classification.VERY_HIGH,
            ("A1", "A2"): Classification.MEDIUM,
            ("A2", "A1"): Classification.MEDIUM,
            ("A3", "A1"): Classification.MEDIUM,
        }

    def test_lower_tiers_untouched(self):
        for level in (Classification.MEDIUM, Classification.LOW,
                      Classification.VERY_LOW):
            assert _pair_levels(level) == {("X", "Y"): level, ("Y", "X"): level}
            assert _pair_levels(level, ("Y", "X")) == {
                ("X", "Y"): level, ("Y", "X"): Classification.VERY_HIGH,
            }


class TestPredict:
    def test_office_final_classifications(self, office):
        result = discover(office, office_config())
        report = predict(office, result, DEFAULTS)
        got = {(p.src, p.dst): p.level for p in report.predictions}
        assert got == {
            ("A1", "A2"): Classification.VERY_HIGH,
            ("A2", "A1"): Classification.VERY_HIGH,
            ("A2", "A3"): Classification.VERY_HIGH,
            ("A1", "A3"): Classification.HIGH,
            ("A3", "A1"): Classification.HIGH,
            ("A3", "A2"): Classification.HIGH,
        }

    def test_office_pre_rearrangement_classifications(self, office):
        got = {}
        for a, b, n in (("A1", "A2", 4), ("A1", "A3", 3), ("A2", "A3", 3)):
            level = classify_pair(n, oracles.same_type(a, b, office), DEFAULTS)
            got[(a, b)] = got[(b, a)] = level
        assert got == {
            ("A1", "A2"): Classification.VERY_HIGH,
            ("A2", "A1"): Classification.VERY_HIGH,
            ("A1", "A3"): Classification.HIGH,
            ("A3", "A1"): Classification.HIGH,
            ("A2", "A3"): Classification.HIGH,
            ("A3", "A2"): Classification.HIGH,
        }

    def test_office_report_order_and_payload(self, office):
        result = discover(office, office_config())
        report = predict(office, result, DEFAULTS)
        rows = [(p.src, p.dst) for p in report.predictions]
        assert rows == [
            ("A1", "A2"), ("A2", "A1"), ("A2", "A3"),
            ("A1", "A3"), ("A3", "A1"), ("A3", "A2"),
        ]
        assert all(p.similarity == 1.0 and p.degenerate for p in report.predictions)
        assert report.config_echo == DEFAULTS

    def test_edge_to_a_missing_asset_changes_nothing(self, office):
        # predict reads no adjacency, so it runs on a graph that
        # validate_model rejects for an edge alone
        g = AssetGraph(office.assets, office.vulnerabilities, office.edges + (("A1", "X9"),))
        result = discover(office, office_config())
        assert predict(g, result, DEFAULTS) == predict(office, result, DEFAULTS)

    def test_no_shared_cves_gives_empty_report(self):
        g = _graph_from_cells({("X", "C1"): 5.0, ("Y", "C2"): 5.0})
        report = predict(g, _empty_result(), DEFAULTS)
        assert report.predictions == ()

    def test_grades_through_the_module_pcc(self, monkeypatch, office):
        # perfbench's tracer times pcc by replacing attackcf.similarity.pcc,
        # so the grading must look it up there, once per pair sharing 2+
        # CVEs on the graph's first predict and never again on that graph
        calls = []
        original = similarity.pcc

        def counted(pairs):
            calls.append(len(pairs))
            return original(pairs)

        monkeypatch.setattr(similarity, "pcc", counted)
        g = _graph_from_cells({("X", "C1"): 1.0, ("Y", "C1"): 2.0, ("Z", "C1"): 3.0,
                               ("X", "C2"): 4.0, ("Y", "C2"): 5.0})
        for graph, graded in ((office, [4, 3, 3]), (g, [2])):
            for expected in (graded, []):
                calls.clear()
                predict(graph, _empty_result(), DEFAULTS)
                assert calls == expected

    @pytest.mark.parametrize("seed", range(25))
    def test_matches_reference_on_random_models(self, seed):
        rng = random.Random(500 + seed)
        assets = ["P", "Q", "R", "S"]
        cves = [f"C{i}" for i in range(6)]
        cells = {}
        for a in assets:
            for c in rng.sample(cves, rng.randint(0, 6)):
                cells[(a, c)] = round(rng.uniform(0, 10), 1)
        cwe_of = {c: (f"CWE-{rng.randint(1, 2)}" if rng.random() < 0.8 else None)
                  for c in cves}
        g = _graph_from_cells(cells, cwe_of)

        path_pairs = set()
        for a in assets:
            for b in assets:
                if a != b and rng.random() < 0.3:
                    path_pairs.add((a, b))
        paths = tuple(AttackPath((a, b)) for a, b in sorted(path_pairs))
        result = DiscoveryResult(paths=paths)

        config = PredictionConfig(3, 2, 1, 0)
        report = predict(g, result, config)
        got = {(p.src, p.dst): p.level.name.replace("_", " ").lower()
               for p in report.predictions}

        rated = {a: {c for (aa, c) in cells if aa == a} for a in assets}
        shared, agree = {}, {}
        for i, a in enumerate(assets):
            for b in assets[i + 1:]:
                common = rated[a] & rated[b]
                if not common:
                    continue
                key = frozenset((a, b))
                shared[key] = len(common)
                agree[key] = any(cwe_of[c] is not None for c in common)
        expected = oracles.predict_reference(shared, agree, path_pairs, 3, 2, 1, 0)
        assert got == expected


class TestPredictProperties:
    @pytest.mark.parametrize("seed", range(40))
    def test_direction_pairing(self, seed):
        rng = random.Random(6000 + seed)
        _, _, report = random_prediction_setup(rng)
        by_pair = {(p.src, p.dst): p for p in report.predictions}
        for (src, dst), p in by_pair.items():
            assert (dst, src) in by_pair
            assert by_pair[(dst, src)].co_rated == p.co_rated

    @pytest.mark.parametrize("seed", range(40))
    def test_promotion_and_demotion_completeness(self, seed):
        rng = random.Random(7000 + seed)
        _, result, report = random_prediction_setup(rng)
        endpoint_pairs = {(p.entry, p.target) for p in result.paths}
        for p in report.predictions:
            if (p.src, p.dst) in endpoint_pairs:
                assert p.level is Classification.VERY_HIGH
            if p.level is Classification.VERY_HIGH:
                assert (p.src, p.dst) in endpoint_pairs

    def test_report_bytes_deterministic(self, office):
        result = discover(office, office_config())
        first = format_prediction_report(predict(office, result, DEFAULTS))
        second = format_prediction_report(predict(office, result, DEFAULTS))
        assert first == second


@functools.cache
def _scale_graph(seed):
    """A generated 150-asset graph and its per-pair reference similarities.

    generate() gives every record of a CVE the same score and CWE; both are
    redrawn per record, so pairs disagree in type, lack CWE data and have
    non-degenerate correlations.  25 CVEs per asset make many pairs share
    two or more.
    """
    rng = random.Random(seed)
    generated = generate(SynthSpec(30, 120, 0.05, 25, seed))
    vulns = [v._replace(score=float(rng.randint(0, 10)),
                        cwe_id=rng.choice(("CWE-1", "CWE-2", None)))
             for v in generated.vulnerabilities]
    graph = AssetGraph(generated.assets, vulns, generated.edges)
    sims, _ = per_pair_reference(graph, _empty_result(), DEFAULTS)
    return graph, sims


def _tier_grid(x1, agree_first):
    """One asset pair per (co_rated, types agree) for co_rated 1 to x1 + 1,
    each pair with CVEs of its own, and the paths that promote or leave
    each direction.  agree_first gives each count's agreeing pair the lower
    ids, so it reaches predict before the disagreeing one."""
    assets, vulns, ends = [], [], []
    for n in range(1, x1 + 2):
        for agree in (True, False):
            rank = 0 if agree == agree_first else 1
            a, b = f"N{n}-{rank}a", f"N{n}-{rank}b"
            assets += [Asset(a, a, AssetKind.HARDWARE), Asset(b, b, AssetKind.HARDWARE)]
            for j in range(n):
                cve, score = f"C{n}-{rank}-{j}", float((n + 3 * j) % 11)
                vulns += [
                    VulnerabilityInstance(cve, a, score, "CWE-1", VulnType.XSS, 1, 1),
                    VulnerabilityInstance(cve, b, 10.0 - score, "CWE-1" if agree else "CWE-2",
                                          VulnType.XSS, 1, 1),
                ]
            # promote the disagreeing pair one way; the agreeing pair of an
            # odd count stays off every path, so very high drops to high
            if not agree:
                ends.append((a, b))
            elif n % 2 == 0:
                ends.append((b, a))
    paths = tuple(map(AttackPath, ends))
    result = DiscoveryResult(paths=paths)
    return AssetGraph(assets, vulns), result


class TestPredictTierLookup:
    """predict classifies each distinct (co_rated, types agree) once; every
    pair must still get the tiers of its own input."""

    # the thresholds of the benchmark's predict-1800 what-if sweep
    @pytest.mark.parametrize("thresholds", [(4, 2, 1, 0), (3, 2, 1, 0), (5, 3, 2, 1)])
    @pytest.mark.parametrize("agree_first", [True, False])
    def test_matches_per_pair_reference(self, thresholds, agree_first, monkeypatch):
        config = PredictionConfig(*thresholds)
        graph, result = _tier_grid(config.x1, agree_first)
        _, expected = per_pair_reference(graph, result, config)
        classified = []
        monkeypatch.setattr(prediction, "classify_pair",
                            lambda *args: classified.append(args[:2]) or classify_pair(*args))

        report = predict(graph, result, config)
        assert report.predictions == tuple(expected)
        assert all(type(p) is Prediction and p == Prediction(*p) for p in report.predictions)
        assert sorted(classified) == sorted(
            (n, agree) for n in range(1, config.x1 + 2) for agree in (False, True))
        # low needs co_rated < x3, which x3 = 1 leaves to pairs sharing no CVE
        assert len({p.level for p in report.predictions}) == (5 if config.x3 > 1 else 4)


# ids where one is a prefix of another; X9 is never an asset
_IDS = ["A", "A1", "A10", "A2", "B"]


@st.composite
def _random_analyses(draw):
    """A small graph with repeated asset ids, records on unknown assets and
    pairs sharing several CVEs with and without CWE data; random paths,
    some between assets that share no CVE; and the thresholds."""
    ids = draw(st.lists(st.sampled_from(_IDS), min_size=1, max_size=7))
    assets = [Asset(aid, f"n{k}", AssetKind.HARDWARE) for k, aid in enumerate(ids)]
    vulns = draw(st.lists(st.builds(
        VulnerabilityInstance, st.sampled_from(["C1", "C2", "C3", "C4"]),
        st.sampled_from(_IDS + ["X9"]), st.sampled_from([0.0, 2.5, 5.0, 10.0]),
        st.sampled_from([None, "CWE-1", "CWE-2"]), st.just(VulnType.XSS),
        st.just(1), st.just(1)), max_size=24))
    ends = draw(st.lists(st.tuples(st.sampled_from(_IDS + ["X9"]), st.sampled_from(_IDS))
                         .filter(lambda e: e[0] != e[1]), max_size=5))
    # whether the first and the last row of the columns get a path too
    first_row, last_row = draw(st.booleans()), draw(st.booleans())
    config = draw(st.sampled_from([PredictionConfig(), PredictionConfig(3, 2, 1, 0),
                                   PredictionConfig(4, 3, 2, 1)]))
    return AssetGraph(assets, vulns), ends, first_row, last_row, config


class TestPredictOnRandomGraphs:
    @settings(max_examples=300, deadline=None)
    @given(_random_analyses())
    def test_matches_per_pair_reference_in_order(self, analysis):
        graph, ends, first_row, last_row, config = analysis
        # the reference's first and last rows in (src, dst) order are the
        # first and last rows of pair_grades' columns
        _, unpromoted = per_pair_reference(graph, _empty_result(), config)
        rows = sorted((p.src, p.dst) for p in unpromoted)
        ends = ends + ([rows[0]] if rows and first_row else []) + (
            [rows[-1]] if rows and last_row else [])
        result = DiscoveryResult(paths=tuple(AttackPath(e) for e in sorted(set(ends))))

        sims, expected = per_pair_reference(graph, result, config)
        report = predict(graph, result, config)
        assert report.predictions == tuple(expected)
        assert all(type(p) is Prediction for p in report.predictions)
        assert pair_similarities(graph) == sims


class TestPredictAtScale:
    """predict against the per-pair reference, in exact report order."""

    @pytest.mark.parametrize("thresholds", [(3, 2, 1, 0), (4, 3, 2, 1)])
    def test_matches_per_pair_reference_in_order(self, thresholds):
        config = PredictionConfig(*thresholds)
        graph, sims = _scale_graph(3)
        assert sum(co_rated >= 2 for _, _, _, co_rated, _ in sims) > 500
        assert pair_similarities(graph) == sims

        rng = random.Random(sum(thresholds))
        ids = sorted(a.id for a in graph.assets)
        very_high = [(a, b) for a, b, _, co_rated, _ in sims
                     if co_rated >= config.x1 and oracles.same_type(a, b, graph)]
        # one direction of every other very-high pair, and random other pairs,
        # some through a middle node that the rule must ignore
        ends = [rng.choice((pair, pair[::-1])) for pair in very_high[::2]]
        ends += [tuple(rng.sample(ids, 2)) for _ in range(60)]
        paths = tuple(
            AttackPath((src, rng.choice([i for i in ids if i not in (src, dst)]), dst)
                       if rng.random() < 0.5 else (src, dst))
            for src, dst in ends)
        result = DiscoveryResult(paths=paths)

        _, expected = per_pair_reference(graph, result, config)
        report = predict(graph, result, config)
        assert report.predictions == tuple(expected)
        # predict builds its predictions past Prediction's check
        assert all(type(p) is Prediction and p == Prediction(*p) for p in report.predictions)
        assert format_prediction_report(report) == format_prediction_report(
            PredictionReport(tuple(expected), config))

        level = {(p.src, p.dst): p.level for p in report.predictions}
        one_way = [(src, dst) for (src, dst), lv in level.items()
                   if lv is Classification.VERY_HIGH
                   and level[(dst, src)] is Classification.HIGH]
        assert len(one_way) >= 3
        assert len(set(level.values())) >= 4

    def test_all_analyses_share_one_cve_pass(self, monkeypatch):
        base, _ = _scale_graph(3)
        ids = sorted(a.id for a in base.assets)
        hardware = [a.id for a in base.assets if a.kind is AssetKind.HARDWARE]
        # the weakest attacker fails on some entries; the thresholds differ
        runs = [(AttackerProfile(1, 1), PredictionConfig(3, 2, 1, 0)),
                (AttackerProfile(3, 3), PredictionConfig(4, 3, 2, 1)),
                (AttackerProfile(2, 2), PredictionConfig())]

        def fresh():
            return AssetGraph(base.assets, base.vulnerabilities, base.edges)

        def analyse(graph, attacker, config):
            found = discover(graph, DiscoveryConfig(hardware, ids[::5], attacker, 3))
            return predict(graph, found, config)

        # each reference comes from a graph of its own
        expected_sims = pair_similarities(fresh())
        expected = [analyse(fresh(), *run) for run in runs]
        assert len({r.predictions for r in expected}) == len(runs)

        passes = []
        groupby = model.groupby

        def recording(records, key):
            passes.append(records)
            return groupby(records, key=key)

        monkeypatch.setattr(model, "groupby", recording)
        graph = fresh()
        assert pair_similarities(graph) == expected_sims
        assert [analyse(graph, *run) for run in runs] == expected
        assert len(passes) == 1
        assert passes[0] is graph.vulnerabilities

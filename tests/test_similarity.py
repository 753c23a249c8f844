import math
import random
import warnings
from fractions import Fraction

import pytest

from attackcf.discovery import DiscoveryResult
from attackcf.model import (
    Asset,
    AssetGraph,
    AssetKind,
    AttackPath,
    Classification,
    PredictionConfig,
    VulnType,
    VulnerabilityInstance,
)
from attackcf.prediction import predict
from attackcf.similarity import UndefinedSimilarityError, pcc

import oracles
from conftest import pair_similarities, per_pair_reference


def _pcc_exact(pairs) -> float:
    """The Pearson correlation of pairs in exact rational arithmetic, rounded
    once: r**2 is sxy**2 / (sxx * syy), and r takes the sign of sxy."""
    xs = [Fraction(x) for x, _ in pairs]
    ys = [Fraction(y) for _, y in pairs]
    mx, my = sum(xs) / len(xs), sum(ys) / len(ys)
    sxy = sum((x - mx) * (y - my) for x, y in zip(xs, ys))
    sxx = sum((x - mx) ** 2 for x in xs)
    syy = sum((y - my) ** 2 for y in ys)
    r = math.sqrt(sxy * sxy / (sxx * syy))
    return r if sxy >= 0 else -r


def _ratings_graph(ratings: dict[str, dict[str, float]]) -> AssetGraph:
    """Assets as raters, item ids as CVEs; missing cells are absent records."""
    assets = [Asset(a, a, AssetKind.HARDWARE) for a in ratings]
    vulns = [
        VulnerabilityInstance(
            cve_id=item, asset=rater, score=score, cwe_id="CWE-1",
            vuln_type=VulnType.XSS, required_location=1, required_capability=1,
        )
        for rater, row in ratings.items()
        for item, score in row.items()
    ]
    return AssetGraph(assets, vulns)


# four raters, four items, scores 1-5, two blanks
RATINGS = {
    "U1": {"I1": 1.0, "I2": 2.0, "I3": 5.0},
    "U2": {"I1": 4.0, "I2": 5.0, "I3": 4.0, "I4": 1.0},
    "U3": {"I3": 3.0, "I4": 2.0},
    "U4": {"I1": 1.0, "I2": 1.0, "I3": 2.0, "I4": 5.0},
}


class TestCommonVulnerabilities:
    def test_three_shared(self, office):
        common = oracles.common_vulnerabilities("A1", "A3", office)
        assert [c[0] for c in common] == [
            "CVE-2015-1769", "CVE-2015-2423", "CVE-2015-2433"
        ]
        assert common[0][1:] == (10.0, 10.0)

    def test_four_shared(self, office):
        assert len(oracles.common_vulnerabilities("A1", "A2", office)) == 4

    def test_disjoint_assets(self):
        g = _ratings_graph({"X": {"I1": 5.0}, "Y": {"I2": 5.0}})
        assert oracles.common_vulnerabilities("X", "Y", g) == []

    def test_rejects_same_asset(self, office):
        with pytest.raises(ValueError):
            oracles.common_vulnerabilities("A1", "A1", office)


class TestPcc:
    def test_perfect_anticorrelation(self):
        value, degenerate = pcc([(1, 3), (2, 2), (3, 1)])
        assert value == -1.0
        assert not degenerate

    def test_identical_vectors(self):
        value, degenerate = pcc([(1, 1), (2, 2), (5, 5)])
        assert value == 1.0
        assert degenerate

    def test_office_shared_scores(self):
        value, degenerate = pcc([(10, 10), (2.9, 2.9), (2.9, 2.9), (10, 10)])
        assert value == 1.0
        assert degenerate

    def test_constant_equal_vectors(self):
        value, degenerate = pcc([(5.0, 5.0), (5.0, 5.0)])
        assert value == 1.0
        assert degenerate

    def test_constant_one_side(self):
        value, degenerate = pcc([(5.0, 1.0), (5.0, 2.0)])
        assert value == 0.0
        assert degenerate

    def test_constant_both_sides_unequal(self):
        value, degenerate = pcc([(5.0, 3.0), (5.0, 3.0)])
        assert value == 0.0
        assert degenerate

    def test_single_pair_undefined(self):
        with pytest.raises(UndefinedSimilarityError):
            pcc([(1.0, 2.0)])

    @pytest.mark.parametrize("pairs", [
        [(float("nan"), 1.0), (2.0, 3.0)],
        [(1.0, 2.0), (3.0, float("nan"))],
        [(float("inf"), 1.0), (2.0, 3.0)],
        [(1.0, float("-inf")), (2.0, 3.0)],
        [(float("inf"), float("inf")), (1.0, 1.0)],  # identical vectors
        [(None, 1.0), (2.0, 3.0)],
        [(1.0, 2.0), (3.0, None)],
    ])
    def test_non_finite_score_undefined(self, pairs):
        with pytest.raises(UndefinedSimilarityError, match="finite"):
            pcc(pairs)
        with pytest.raises(ValueError):
            pcc(pairs)

    @pytest.mark.parametrize("ys", [(1.0, 2.0, 3.0), (3.0, 2.0, 1.0)], ids=["down", "up"])
    def test_overflowing_mean_is_graded(self, ys):
        # the sum of the xs overflows, so no deviation from the mean is finite
        pairs = list(zip((1.7e308, 1.7e308, -1.7e308), ys))
        value, degenerate = pcc(pairs)
        assert not degenerate
        assert value == pytest.approx(_pcc_exact(pairs), rel=0, abs=1e-12)

    def test_bits_match_numpy(self):
        # reports write the similarity as repr(float), so pcc must give
        # numpy's bits, not just a close value; numpy's formula is wrong
        # where the squared deviations under- or overflow, so that family
        # is checked against the exact correlation instead
        rng = random.Random(23)
        cases = [  # the means round so that every product is -0.0
            [(3.0, 7.7), (2.9999999999999996, 7.700000000000001)],
            [(2.0, 1.0000000000000002), (1.9999999999999998, 1.0000000000000004)],
        ]
        scaled = []
        for n in range(2, 301):
            scale = 10.0 ** rng.choice((-170, 160))
            xs = [rng.gauss(0.0, 1.0) for _ in range(n)]
            cases += [
                [(round(rng.uniform(0, 10), 1), round(rng.uniform(0, 10), 1))
                 for _ in range(n)],
                list(zip(xs, (rng.gauss(0.0, 1.0) for _ in range(n)))),
                [(x, x + rng.choice((0.0, 1e-15, -1e-15))) for x in xs],
                [(rng.choice((0.0, -0.0, 1.0, -1.0)), rng.choice((0.0, -0.0, 2.0)))
                 for _ in range(n)],
                # zero covariance whenever 4 divides n
                ([(1.0, 1.0), (2.0, 0.0), (2.0, 2.0), (3.0, 1.0)] * n)[:n],
            ]
            scaled.append(
                [(rng.randint(0, 2) * scale, rng.randint(0, 3) * scale) for _ in range(n)])
        zero_covariance = graded = 0
        for pairs, exact in [(p, False) for p in cases] + [(p, True) for p in scaled]:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                try:
                    expected = repr(oracles.pcc_numpy(pairs))
                except UndefinedSimilarityError:
                    expected = "undefined"
            try:
                got = repr(pcc(pairs))
            except UndefinedSimilarityError:
                got = "undefined"
            value, degenerate = pcc(pairs) if exact else (None, True)
            if degenerate:  # the fallbacks do no arithmetic
                assert got == expected, pairs
            else:
                assert value == pytest.approx(_pcc_exact(pairs), rel=0, abs=1e-12), pairs
                graded += 1
            zero_covariance += got == "(0.0, False)"
        assert zero_covariance >= 77  # the two fixed cases, and n = 4, 8, ..., 300
        assert graded == 299  # every n of the scaled family

    def test_symmetry(self):
        rng = random.Random(5)
        for _ in range(200):
            pairs = [(rng.uniform(0, 10), rng.uniform(0, 10))
                     for _ in range(rng.randint(2, 12))]
            swapped = [(b, a) for a, b in pairs]
            assert pcc(pairs) == pcc(swapped)

    def test_bounded(self):
        rng = random.Random(6)
        for _ in range(500):
            pairs = [(rng.uniform(0, 10), rng.uniform(0, 10))
                     for _ in range(rng.randint(2, 12))]
            value, _ = pcc(pairs)
            assert -1.0 <= value <= 1.0

    def test_translation_invariance(self):
        rng = random.Random(7)
        for _ in range(200):
            pairs = [(rng.uniform(0, 10), rng.uniform(0, 10))
                     for _ in range(rng.randint(3, 12))]
            value, degenerate = pcc(pairs)
            if degenerate:
                continue
            shift = rng.uniform(-100, 100)
            shifted_value, _ = pcc([(a + shift, b) for a, b in pairs])
            assert shifted_value == pytest.approx(value, abs=1e-9)

    def test_oracle_equivalence(self):
        rng = random.Random(8)
        for _ in range(1000):
            n = rng.randint(2, 20)
            xs = [rng.uniform(0, 10) for _ in range(n)]
            ys = [rng.uniform(0, 10) for _ in range(n)]
            value, degenerate = pcc(list(zip(xs, ys)))
            assert not degenerate
            assert value == pytest.approx(oracles.pearson_reference(xs, ys), abs=1e-9)


class TestSimilarityMatrix:
    """The pair similarities predict reports, one (a, b, value, co_rated,
    degenerate) per asset pair sharing a CVE (conftest.pair_similarities)."""

    def test_office_model(self, office):
        sims = pair_similarities(office)
        assert [(a, b) for a, b, *_ in sims] == [
            ("A1", "A2"), ("A1", "A3"), ("A2", "A3")
        ]
        assert all(value == 1.0 and degenerate for _, _, value, _, degenerate in sims)
        assert [co_rated for _, _, _, co_rated, _ in sims] == [4, 3, 3]

    def test_single_asset(self):
        g = _ratings_graph({"X": {"I1": 5.0}})
        assert pair_similarities(g) == []

    def test_pairs_without_common_cves_omitted(self):
        g = _ratings_graph({"X": {"I1": 5.0}, "Y": {"I2": 5.0}})
        assert pair_similarities(g) == []

    def test_single_common_cve_kept_with_zero_value(self):
        g = _ratings_graph({"X": {"I1": 5.0, "I2": 1.0}, "Y": {"I1": 3.0}})
        assert pair_similarities(g) == [("X", "Y", 0.0, 1, False)]

    def test_ratings_fixture_against_oracle(self):
        g = _ratings_graph(RATINGS)
        by_pair = {(a, b): rest for a, b, *rest in pair_similarities(g)}

        value, co_rated, degenerate = by_pair[("U1", "U2")]
        assert co_rated == 3
        expected = oracles.pearson_reference([1, 2, 5], [4, 5, 4])
        assert value == pytest.approx(expected, abs=1e-9)
        assert not degenerate

        value, co_rated, _ = by_pair[("U2", "U4")]
        assert co_rated == 4
        expected = oracles.pearson_reference([4, 5, 4, 1], [1, 1, 2, 5])
        assert value == pytest.approx(expected, abs=1e-9)

        assert by_pair[("U2", "U3")][1] == 2
        assert by_pair[("U1", "U3")][:2] == [0.0, 1]

    def test_symmetric_by_construction(self, office):
        for a, b, value, _, _ in pair_similarities(office):
            direct, _ = pcc(
                [(sa, sb) for _, sa, sb in oracles.common_vulnerabilities(a, b, office)]
            )
            flipped, _ = pcc(
                [(sb, sa) for _, sa, sb in oracles.common_vulnerabilities(a, b, office)]
            )
            assert direct == flipped == value


def _vuln(cve, asset, score, cwe):
    return VulnerabilityInstance(
        cve_id=cve, asset=asset, score=score, cwe_id=cwe,
        vuln_type=VulnType.XSS, required_location=1, required_capability=1,
    )


def _random_case(rng: random.Random):
    """Graph with duplicate (cve, asset) records, None CWEs and CVEs on
    unknown assets, plus random direct attack paths between its assets."""
    assets = [f"A{i}" for i in range(rng.randint(2, 7))]
    holders = assets + ["GHOST1", "GHOST2"]
    vulns = []
    for cve in (f"C{i}" for i in range(rng.randint(1, 6))):
        for asset in rng.sample(holders, rng.randint(0, len(holders))):
            for _ in range(rng.choice((1, 1, 1, 2, 3))):
                vulns.append(_vuln(cve, asset, float(rng.randint(0, 4)),
                                   rng.choice(("CWE-1", "CWE-2", None))))
    graph = AssetGraph([Asset(a, a, AssetKind.HARDWARE) for a in assets], vulns)
    paths = tuple(
        AttackPath((a, b)) for a in assets for b in assets if a != b and rng.random() < 0.3
    )
    result = DiscoveryResult(paths=paths)
    return graph, result


class TestSharedCvePass:
    """predict's similarities and predictions against the per-pair functions on every pair."""

    def test_matches_per_pair_reference(self):
        rng = random.Random(21)
        config = PredictionConfig(3, 2, 1, 0)
        saw_duplicate = False
        for _ in range(200):
            graph, result = _random_case(rng)
            keys = [(v.cve_id, v.asset) for v in graph.vulnerabilities]
            saw_duplicate |= len(keys) != len(set(keys))
            sims, preds = per_pair_reference(graph, result, config)
            assert pair_similarities(graph) == sims
            assert predict(graph, result, config).predictions == tuple(preds)
        assert saw_duplicate

    def test_last_sorted_duplicate_record_wins(self):
        # X carries C1 twice (scores differ) and C2 twice (CWEs differ); the
        # record that sorts last by VulnerabilityInstance._sort_key is used
        x_records = [_vuln("C1", "X", 8.0, "CWE-1"), _vuln("C1", "X", 2.0, "CWE-7"),
                     _vuln("C2", "X", 4.0, "CWE-2"), _vuln("C2", "X", 4.0, "CWE-1")]
        g = AssetGraph(
            [Asset(a, a, AssetKind.HARDWARE) for a in ("X", "Y")],
            x_records + [_vuln("C1", "Y", 5.0, "CWE-9"), _vuln("C2", "Y", 1.0, "CWE-2")],
        )
        last = {cve: max((v for v in x_records if v.cve_id == cve),
                         key=VulnerabilityInstance._sort_key) for cve in ("C1", "C2")}
        assert (last["C1"].score, last["C2"].cwe_id) == (8.0, "CWE-2")
        assert oracles.common_vulnerabilities("X", "Y", g) == [("C1", 8.0, 5.0), ("C2", 4.0, 1.0)]
        assert oracles.same_type("X", "Y", g)  # only C2's last record agrees with Y
        value, degenerate = pcc([(8.0, 5.0), (4.0, 1.0)])
        assert pair_similarities(g) == [("X", "Y", value, 2, degenerate)]
        empty = DiscoveryResult(paths=())
        report = predict(g, empty, PredictionConfig(3, 2, 1, 0))
        # 2 shared CVEs with agreeing types: HIGH, not the MEDIUM of disagreement
        assert [(p.level, p.co_rated, p.similarity) for p in report.predictions] == [
            (Classification.HIGH, 2, value)] * 2

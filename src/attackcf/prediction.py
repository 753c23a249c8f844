"""Classification of likely attacker movements between asset pairs.

Each directed pair of assets sharing at least one CVE is classified from
the number of shared CVEs (n) and whether the shared vulnerabilities agree
in CWE category, against the configured thresholds x1 > x2 > x3 > x4:

    very high  when n >= x1 and the types agree
    high       when x2 <= n < x1 and the types agree
    medium     when x3 <= n < x2
    low        when x4 <= n < x3
    very low   otherwise

A final rearrangement pass then consults the discovered attack paths:
a pair with a discovered path entry->target is promoted to very high,
and a very-high pair without one is demoted to high.

Each pair's shared-CVE count, type agreement and similarity come from
AssetGraph.pair_grades, which grades every pair at most once per graph,
so every predict call on one graph shares the grading.  A pair's
similarity is the Pearson correlation (similarity.pcc) of its scores over
the CVEs it shares; a pair sharing one CVE scores 0.0 and is not
degenerate.  Its similarity, co-rated count and degenerate flag are fields
of the two Predictions predict builds for it.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import repeat
from operator import itemgetter

from attackcf.discovery import DiscoveryResult
from attackcf.model import AssetGraph, Classification, Prediction, PredictionConfig


@dataclass(frozen=True)
class PredictionReport:
    """Predictions sorted by (level descending, src, dst) plus the config used."""

    predictions: tuple[Prediction, ...]
    config_echo: PredictionConfig


def classify_pair(
    co_rated: int, types_agree: bool, config: PredictionConfig
) -> Classification:
    """Threshold classification of a pair; first matching tier wins."""
    if co_rated < 0:
        raise ValueError(f"co_rated must be non-negative, got {co_rated}")
    n = co_rated
    if n >= config.x1 and types_agree:
        return Classification.VERY_HIGH
    if config.x2 <= n < config.x1 and types_agree:
        return Classification.HIGH
    if config.x3 <= n < config.x2:
        return Classification.MEDIUM
    if config.x4 <= n < config.x3:
        return Classification.LOW
    return Classification.VERY_LOW


def predict(
    graph: AssetGraph, result: DiscoveryResult, config: PredictionConfig
) -> PredictionReport:
    """Classify both directions of every asset pair sharing at least one CVE.

    Classification inputs (shared count, type agreement, similarity) are
    symmetric; the rearrangement is directional, so a->b and b->a can end
    on different tiers.  Predictions are sorted by tier descending, then
    src, then dst.
    """
    grades = graph.pair_grades
    # A pair's tiers depend only on its grade, (co_rated, types agree), and
    # few pairs differ in it: each grade is classified once, to its tier off
    # every path, where very high drops to high
    off_path = [min(classify_pair(n, agree, config), Classification.HIGH)
                for n, agree in grades.grades]
    levels = list(map(off_path.__getitem__, grades.grade))
    # a pair with a discovered path entry -> target rises to very high; the
    # columns list pairs in (src, dst) order, so a bisection finds it
    srcs, dsts = grades.srcs, grades.dsts
    for entry, target in {(p.entry, p.target) for p in result.paths}:
        lo = bisect_left(srcs, entry)
        hi = bisect_right(srcs, entry, lo)
        i = bisect_left(dsts, target, lo, hi)
        if i < hi and dsts[i] == target:
            levels[i] = Classification.VERY_HIGH

    # As src != dst in every pair, the predictions skip Prediction's check.
    # A stable sort on the tier alone keeps (src, dst) order within a tier.
    co_rated = [n for n, _ in grades.grades]
    predictions = list(map(tuple.__new__, repeat(Prediction), zip(
        srcs, dsts, levels, grades.similarity, map(co_rated.__getitem__, grades.grade),
        grades.degenerate)))
    predictions.sort(key=itemgetter(2), reverse=True)
    return PredictionReport(predictions=tuple(predictions), config_echo=config)

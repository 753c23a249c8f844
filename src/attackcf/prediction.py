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

The CVEs each asset pair shares come from AssetGraph.shared_cves, built
at most once per graph, so every predict call on one graph shares it.  A
pair's similarity is the Pearson correlation (similarity.pcc) of its
scores over those CVEs; a pair sharing one CVE scores 0.0 and is not
degenerate.  Its similarity, co-rated count and degenerate flag are fields
of the two Predictions predict builds for it.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from itertools import chain

from attackcf import similarity
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
    path_endpoints = {(p.entry, p.target) for p in result.paths}
    # A pair's tiers depend only on (co_rated, types agree), and few pairs
    # differ in it: tiers maps each distinct input, classified once, to the
    # pair's tier off every path (very high drops to high) and on a path.
    tiers: dict[tuple[int, bool], tuple[Classification, Classification]] = {}

    # by_tier[level][src] holds src's predictions at that tier.  Pairs come
    # sorted by (a, b) with a < b, so every asset meets its partners in
    # ascending order: first those below it, as b, then those above it, as a.
    # As a != b, the predictions skip Prediction's check.
    by_tier = [defaultdict(list) for _ in range(max(Classification) + 1)]
    new = tuple.__new__
    for a, b, rows in graph.shared_cves:
        co_rated = len(rows)
        if co_rated == 1:
            value, degenerate, agree = 0.0, False, rows[0][2]
        else:
            # looked up on the module, so a wrapper installed there sees each call
            value, degenerate = similarity.pcc([row[:2] for row in rows])
            agree = any(row[2] for row in rows)
        pair_tiers = tiers.get((co_rated, agree))
        if pair_tiers is None:
            base = classify_pair(co_rated, agree, config)
            pair_tiers = tiers[co_rated, agree] = (min(base, Classification.HIGH),
                                                   Classification.VERY_HIGH)
        for src, dst in ((a, b), (b, a)):
            level = pair_tiers[(src, dst) in path_endpoints]
            by_tier[level][src].append(
                new(Prediction, (src, dst, level, value, co_rated, degenerate)))

    predictions = tuple(chain.from_iterable(
        by_src[src] for by_src in reversed(by_tier) for src in sorted(by_src)))
    return PredictionReport(predictions=predictions, config_echo=config)

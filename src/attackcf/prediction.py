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
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from itertools import chain

from attackcf.discovery import DiscoveryResult
from attackcf.model import AssetGraph, Classification, Prediction, PredictionConfig
from attackcf.similarity import _similarities


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


def _rearranged(level: Classification, on_path: bool) -> Classification:
    """The attack-path rule for one direction src->dst of a pair.

    A discovered path whose entry is src and whose target is dst promotes
    the pair to very high; without one, very high drops to high and any
    other tier stays.
    """
    if on_path:
        return Classification.VERY_HIGH
    if level is Classification.VERY_HIGH:
        return Classification.HIGH
    return level


def predict(
    graph: AssetGraph, paths: DiscoveryResult, config: PredictionConfig
) -> PredictionReport:
    """Classify both directions of every asset pair sharing at least one CVE.

    Classification inputs (shared count, type agreement, similarity) are
    symmetric; the rearrangement is directional, so a->b and b->a can end
    on different tiers.  Predictions are sorted by tier descending, then
    src, then dst.
    """
    path_endpoints = {(p.entry, p.target) for p in paths.paths}
    # A pair's tiers depend only on (co_rated, types agree), and few pairs
    # differ in it: tiers maps each distinct input, classified once, to the
    # pair's (tier off every path, tier on a path).
    tiers: dict[tuple[int, bool], tuple[Classification, Classification]] = {}

    # by_tier[level][src] holds src's predictions at that tier.  Pairs come
    # sorted by (a, b) with a < b, so every asset meets its partners in
    # ascending order: first those below it, as b, then those above it, as a.
    # As a != b, the predictions skip Prediction's check.
    by_tier = [defaultdict(list) for _ in range(max(Classification) + 1)]
    new = tuple.__new__
    for a, b, value, co_rated, degenerate, agree in _similarities(graph):
        pair_tiers = tiers.get((co_rated, agree))
        if pair_tiers is None:
            base = classify_pair(co_rated, agree, config)
            pair_tiers = tiers[co_rated, agree] = (_rearranged(base, False),
                                                   _rearranged(base, True))
        for src, dst in ((a, b), (b, a)):
            level = pair_tiers[(src, dst) in path_endpoints]
            by_tier[level][src].append(
                new(Prediction, (src, dst, level, value, co_rated, degenerate)))

    predictions = tuple(chain.from_iterable(
        by_src[src] for by_src in reversed(by_tier) for src in sorted(by_src)))
    return PredictionReport(predictions=predictions, config_echo=config)

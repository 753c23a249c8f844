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

import dataclasses
from dataclasses import dataclass

from attackcf.discovery import DiscoveryResult
from attackcf.model import AssetGraph, Classification, Prediction, PredictionConfig
from attackcf.similarity import _similarities
from attackcf.similarity import same_type  # noqa: F401  (re-exported)


@dataclass(frozen=True)
class PredictionReport:
    """Predictions sorted by (level descending, src, dst) plus the config used."""

    predictions: tuple[Prediction, ...]
    config_echo: PredictionConfig


def classify_pair(
    co_rated: int, same_type: bool, config: PredictionConfig
) -> Classification:
    """Threshold classification of a pair; first matching tier wins."""
    if co_rated < 0:
        raise ValueError(f"co_rated must be non-negative, got {co_rated}")
    n = co_rated
    if n >= config.x1 and same_type:
        return Classification.VERY_HIGH
    if config.x2 <= n < config.x1 and same_type:
        return Classification.HIGH
    if config.x3 <= n < config.x2:
        return Classification.MEDIUM
    if config.x4 <= n < config.x3:
        return Classification.LOW
    return Classification.VERY_LOW


def rearrange(pred: Prediction, paths: DiscoveryResult) -> Prediction:
    """Apply the attack-path pass to one prediction.

    A discovered path whose entry is pred.src and whose target is pred.dst
    promotes the pair to very high; without one, a very-high pair drops to
    high and anything else is left alone.
    """
    return _rearrange(pred, {(p.entry, p.target) for p in paths.paths})


def _rearrange(pred: Prediction, path_endpoints: set[tuple[str, str]]) -> Prediction:
    if (pred.src, pred.dst) in path_endpoints:
        return dataclasses.replace(pred, level=Classification.VERY_HIGH)
    if pred.level is Classification.VERY_HIGH:
        return dataclasses.replace(pred, level=Classification.HIGH)
    return pred


def predict(
    graph: AssetGraph, paths: DiscoveryResult, config: PredictionConfig
) -> PredictionReport:
    """Classify both directions of every asset pair sharing a CVE.

    Classification inputs (shared count, type agreement, similarity) are
    symmetric; the rearrangement is directional, so a->b and b->a can end
    on different tiers.
    """
    path_endpoints = {(p.entry, p.target) for p in paths.paths}

    predictions: list[Prediction] = []
    for sim, agree in _similarities(graph):
        base = classify_pair(sim.co_rated, agree, config)
        for src, dst in ((sim.a, sim.b), (sim.b, sim.a)):
            pred = Prediction(
                src=src,
                dst=dst,
                level=base,
                similarity=sim.value,
                co_rated=sim.co_rated,
                degenerate=sim.degenerate,
            )
            predictions.append(_rearrange(pred, path_endpoints))

    predictions.sort(key=lambda p: (-p.level, p.src, p.dst))
    return PredictionReport(predictions=tuple(predictions), config_echo=config)

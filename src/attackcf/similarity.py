"""Pearson-correlation similarity between assets over shared vulnerability scores.

Assets play the role of users and CVEs the role of items: the score a CVE
carries on an asset is that asset's "rating" of it.  Similarity between
two assets is the Pearson correlation of their scores over the CVEs both
carry, with each asset's mean taken over that common set only.

Two fallback rules cover inputs the correlation formula cannot grade:

* identical score vectors mean perfect agreement and score 1.0 (shared
  CVEs usually carry the same score on both assets, so this is the common
  case in practice);
* a constant score vector on either side carries no co-variation
  information, so unequal inputs score 0.0.

Both fallbacks are flagged as degenerate in the results.

When one asset carries the same CVE twice, the record that sorts last by
VulnerabilityInstance._sort_key supplies its score and CWE; the others
are ignored.  validate_model flags such input, so the CLI rejects it.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, groupby
from typing import Iterator, Sequence

import numpy as np

from attackcf.model import AssetGraph, VulnerabilityInstance


class UndefinedSimilarityError(ValueError):
    """Raised when fewer than two co-rated scores are supplied."""


@dataclass(frozen=True)
class PairSimilarity:
    """Similarity of an unordered asset pair.

    value is in [-1, 1]; co_rated counts the CVEs the pair shares;
    degenerate marks values assigned by a fallback rule rather than the
    correlation formula (not the 0.0 placeholder for a single shared CVE).
    """

    a: str
    b: str
    value: float
    co_rated: int
    degenerate: bool


def _row(va: VulnerabilityInstance,
         vb: VulnerabilityInstance) -> tuple[str, float, float, bool]:
    """(cve, score on a, score on b, same CWE) for a CVE on assets a and b."""
    return va.cve_id, va.score, vb.score, va.cwe_id is not None and va.cwe_id == vb.cwe_id


def _shared(a: str, b: str, graph: AssetGraph) -> list[tuple[str, float, float, bool]]:
    if a == b:
        raise ValueError(f"assets must differ, got {a!r} for both")
    on_a = {v.cve_id: v for v in graph.vulns_by_asset.get(a, ())}
    on_b = {v.cve_id: v for v in graph.vulns_by_asset.get(b, ())}
    return [_row(on_a[cve], on_b[cve]) for cve in sorted(on_a.keys() & on_b.keys())]


def common_vulnerabilities(
    a: str, b: str, graph: AssetGraph
) -> list[tuple[str, float, float]]:
    """CVEs present on both assets with each side's score, sorted by CVE id."""
    return [row[:3] for row in _shared(a, b, graph)]


def same_type(a: str, b: str, graph: AssetGraph) -> bool:
    """True when some CVE shared by a and b carries the same CWE id on both.

    Absent CWE data never certifies agreement.
    """
    return any(row[3] for row in _shared(a, b, graph))


def pcc(pairs: Sequence[tuple[float, float]]) -> tuple[float, bool]:
    """Pearson correlation of co-rated score pairs.

    Returns (value, degenerate).  Means are per-side means over the
    supplied pairs.  Raises UndefinedSimilarityError for fewer than two
    pairs; applies the degenerate fallbacks for constant or identical
    vectors (see module docstring).
    """
    if len(pairs) < 2:
        raise UndefinedSimilarityError(
            f"correlation needs at least 2 co-rated scores, got {len(pairs)}"
        )
    xs = np.asarray([p[0] for p in pairs], dtype=np.float64)
    ys = np.asarray([p[1] for p in pairs], dtype=np.float64)

    if np.array_equal(xs, ys):
        return 1.0, True
    if (xs == xs[0]).all() or (ys == ys[0]).all():
        return 0.0, True

    dx = xs - xs.mean()
    dy = ys - ys.mean()
    value = float((dx * dy).sum() / np.sqrt((dx * dx).sum() * (dy * dy).sum()))
    # guard against eps-scale overshoot of the mathematical bound
    return min(1.0, max(-1.0, value)), False


def _similarities(graph: AssetGraph) -> Iterator[tuple[PairSimilarity, bool]]:
    """Each asset pair sharing a CVE, sorted by (a, b), with its type agreement.

    One pass over the CVEs gives each pair the rows _shared would give it;
    assets missing from the graph are skipped.
    """
    shared: dict[tuple[str, str], list[tuple[str, float, float, bool]]] = {}
    for _, group in groupby(graph.vulnerabilities, key=lambda v: v.cve_id):
        # records sort by (cve, asset, ...): each asset's last record, in id order
        holders = {v.asset: v for v in group if v.asset in graph.asset_by_id}
        for va, vb in combinations(holders.values(), 2):
            shared.setdefault((va.asset, vb.asset), []).append(_row(va, vb))
    for a, b in sorted(shared):
        rows = shared.pop((a, b))  # frees each pair's rows once it is yielded
        if len(rows) == 1:
            value, degenerate = 0.0, False
        else:
            value, degenerate = pcc([(sa, sb) for _, sa, sb, _ in rows])
        yield PairSimilarity(a, b, value, len(rows), degenerate), any(r[3] for r in rows)


def similarity_matrix(graph: AssetGraph) -> list[PairSimilarity]:
    """Similarity for every unordered asset pair sharing at least one CVE.

    Pairs sharing exactly one CVE have no defined correlation; they are
    kept with value 0.0 so the shared vulnerability stays visible.
    Output is sorted by (a, b).
    """
    return [sim for sim, _ in _similarities(graph)]

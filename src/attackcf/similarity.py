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

The CVEs each asset pair shares come from AssetGraph.shared_cves, an
index built in one pass over the CVEs at most once per graph, so every
predict call on one graph shares it.  A pair's similarity, co-rated count
and degenerate flag are fields of the two Predictions predict builds for
it.  When one asset carries the same CVE twice, the record that sorts
last by VulnerabilityInstance._sort_key supplies its score and CWE; the
others are ignored.  validate_model flags such input, so the CLI rejects
it.
"""

from __future__ import annotations

from typing import Iterator, Sequence

import numpy as np

from attackcf.model import AssetGraph


class UndefinedSimilarityError(ValueError):
    """Raised when fewer than two co-rated scores are supplied."""


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


def _similarities(graph: AssetGraph) -> Iterator[tuple[str, str, float, int, bool, bool]]:
    """(a, b, value, co_rated, degenerate, types_agree) for each asset pair
    sharing a CVE, sorted by (a, b) with a < b.

    Reads the pairs and their (score on a, score on b, same CWE) rows from
    the graph's shared_cves index, built once per graph, and grades each
    pair with pcc.
    """
    for a, b, rows in graph.shared_cves:
        if len(rows) == 1:
            yield a, b, 0.0, 1, False, rows[0][2]
        else:
            value, degenerate = pcc([row[:2] for row in rows])
            yield a, b, value, len(rows), degenerate, any(row[2] for row in rows)


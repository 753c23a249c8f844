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
"""

from __future__ import annotations

from typing import Sequence

import numpy as np


class UndefinedSimilarityError(ValueError):
    """Raised when the correlation is undefined: fewer than two co-rated
    scores, or a score that is not finite."""


def pcc(pairs: Sequence[tuple[float, float]]) -> tuple[float, bool]:
    """Pearson correlation of co-rated score pairs.

    Returns (value, degenerate).  Means are per-side means over the
    supplied pairs.  Raises UndefinedSimilarityError for fewer than two
    pairs or a NaN or infinite score; applies the degenerate fallbacks for
    constant or identical vectors (see module docstring).
    """
    if len(pairs) < 2:
        raise UndefinedSimilarityError(
            f"correlation needs at least 2 co-rated scores, got {len(pairs)}"
        )
    xs = np.asarray([p[0] for p in pairs], dtype=np.float64)
    ys = np.asarray([p[1] for p in pairs], dtype=np.float64)
    if not (np.isfinite(xs).all() and np.isfinite(ys).all()):
        raise UndefinedSimilarityError("correlation needs finite scores")

    if np.array_equal(xs, ys):
        return 1.0, True
    if (xs == xs[0]).all() or (ys == ys[0]).all():
        return 0.0, True

    dx = xs - xs.mean()
    dy = ys - ys.mean()
    value = float((dx * dy).sum() / np.sqrt((dx * dx).sum() * (dy * dy).sum()))
    # guard against eps-scale overshoot of the mathematical bound
    return min(1.0, max(-1.0, value)), False

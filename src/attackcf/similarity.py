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

import math
import sys
from typing import Sequence


class UndefinedSimilarityError(ValueError):
    """Raised when the correlation is undefined: fewer than two co-rated
    scores, or a score that is not a finite number."""


def pcc(pairs: Sequence[tuple[float, float]]) -> tuple[float, bool]:
    """Pearson correlation of co-rated score pairs.

    Returns (value, degenerate).  Means are per-side means over the
    supplied pairs.  Raises UndefinedSimilarityError for fewer than two
    pairs or a None, NaN or infinite score; applies the degenerate
    fallbacks for constant or identical vectors (see module docstring).
    """
    if len(pairs) < 2:
        raise UndefinedSimilarityError(
            f"correlation needs at least 2 co-rated scores, got {len(pairs)}"
        )
    try:
        xs = [float(p[0]) for p in pairs]
        ys = [float(p[1]) for p in pairs]
    except TypeError:  # None, say
        raise UndefinedSimilarityError("correlation needs finite scores") from None
    if not all(map(math.isfinite, xs + ys)):
        raise UndefinedSimilarityError("correlation needs finite scores")

    if xs == ys:
        return 1.0, True
    if len(set(xs)) == 1 or len(set(ys)) == 1:
        return 0.0, True

    dx, dy, denom = _deviations(xs, ys)
    if not sys.float_info.min <= denom < math.inf:
        # a mean (then denom is NaN) or the squared deviations over- or
        # underflow; scaling a side by a power of two leaves the correlation
        # unchanged, but may make unequal sides equal, so no rule above reruns
        dx, dy, denom = _deviations(_unit_scaled(xs), _unit_scaled(ys))
    value = _sum([a * b for a, b in zip(dx, dy)]) / math.sqrt(denom)
    # guard against eps-scale overshoot of the mathematical bound
    return min(1.0, max(-1.0, value)), False


def _deviations(xs: list[float], ys: list[float]) -> tuple[list[float], list[float], float]:
    """Each side's deviations from its mean, and the product of their sums of squares."""
    mx, my = _sum(xs) / len(xs), _sum(ys) / len(ys)
    dx = [x - mx for x in xs]
    dy = [y - my for y in ys]
    return dx, dy, _sum([a * a for a in dx]) * _sum([b * b for b in dy])


def _unit_scaled(v: list[float]) -> list[float]:
    """v times the power of two that brings its largest magnitude into [0.5, 1)."""
    shift = -math.frexp(max(map(abs, v)))[1]
    return [math.ldexp(a, shift) for a in v]


def _sum(v: list[float]) -> float:
    """numpy's pairwise float64 sum, bit for bit.

    The similarity lands in report bytes as repr(float), and the reports
    were first written with numpy, so the summation order stays fixed:
    below 8 items one running sum; up to 128, eight strided accumulators
    combined pairwise, then the tail; above, two halves split at a
    multiple of 8.  numpy's sum starts from +0.0, as the running sum
    here does.  The builtin sum() will not do: from Python 3.12 it
    compensates float rounding and gives other bits.
    """
    n = len(v)
    if n > 128:
        h = n // 2 - n // 2 % 8
        return _sum(v[:h]) + _sum(v[h:])
    m = n - n % 8
    s = 0.0
    if m:
        r = v[:8]
        for i in range(8, m, 8):
            r = [a + b for a, b in zip(r, v[i:i + 8])]
        s += ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
    for x in v[m:]:
        s += x
    return s

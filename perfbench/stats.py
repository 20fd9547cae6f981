"""Summary statistics and the report digest."""

from __future__ import annotations

import hashlib
import math


def median(values):
    """Median of a non-empty sequence (mean of the middle two when even)."""
    xs = sorted(values)
    if not xs:
        raise ValueError("median of no values")
    mid = len(xs) // 2
    return xs[mid] if len(xs) % 2 else (xs[mid - 1] + xs[mid]) / 2


def percentile(values, p):
    """Nearest-rank percentile: the smallest value with at least ``p`` %
    of the samples at or below it."""
    xs = sorted(values)
    if not xs:
        raise ValueError("percentile of no values")
    rank = max(1, math.ceil(p / 100 * len(xs)))
    return xs[rank - 1]


def tail(values, beyond=10):
    """``(p, value)`` for the highest whole percentile, from the median
    up, with at least ``beyond`` samples above its nearest rank, or
    ``None`` when there are too few samples for even the median."""
    n = len(values)
    for p in range(99, 49, -1):
        if n - max(1, math.ceil(p / 100 * n)) >= beyond:
            return p, percentile(values, p)
    return None


def digest(result) -> str:
    """SHA-256 over the bytes of a report's per-position arrays.

    Bytes rather than values: unevaluated positions carry NaN borders,
    which no value comparison treats as equal to themselves.
    """
    h = hashlib.sha256()
    for arr in (
        result.positions,
        result.omegas,
        result.left_borders_bp,
        result.right_borders_bp,
        result.n_evaluations,
    ):
        h.update(str(arr.dtype).encode())
        h.update(arr.tobytes())
    return h.hexdigest()

"""The OmegaPlus sum matrix *M* (Eq. 3) and fast window sums.

OmegaPlus never consumes individual r² values: the omega statistic only
needs *sums* of r² over sub-windows. It therefore maintains a matrix M
where ``M[i][j]`` holds the sum of r² over all unordered SNP pairs drawn
from the index interval ``[j, i]``, filled with the dynamic-programming
recurrence of Eq. (3):

    M[i][i]   = 0
    M[i][i-1] = r²(i, i-1)
    M[i][j]   = M[i][j+1] + M[i-1][j] - M[i-1][j+1] + r²(i, j)

With M in hand, every window sum the omega formula needs drops out in O(1):
for a region ``[a..b]`` split after index ``c``,

    Σ_L  = M[c][a]               (pairs inside the left window)
    Σ_R  = M[b][c+1]             (pairs inside the right window)
    Σ_LR = M[b][a] - Σ_L - Σ_R   (pairs straddling the split)

Two constructions are provided:

* :func:`build_m_recurrence` — the literal Eq. (3) loop. It is the
  ground-truth reference (kept deliberately simple) and the test oracle.
* :class:`SumMatrix` — an O(W²) vectorized construction via 2-D prefix
  sums of the r² matrix, used by the production scanner. Both agree to
  float round-off; hypothesis tests in ``tests/test_dp.py`` enforce it.

Memory: both hold a dense W x W float64 array for a W-SNP region. The
scanner bounds W via the maximum-window parameter, exactly as OmegaPlus
bounds its region size.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ScanConfigError

__all__ = ["build_m_recurrence", "SumMatrix"]


def build_m_recurrence(r2: np.ndarray) -> np.ndarray:
    """Fill M by the literal Eq. (3) recurrence (reference implementation).

    Parameters
    ----------
    r2:
        Symmetric (W x W) matrix of pairwise r² values for the region.
        Only the strict lower triangle is read.

    Returns
    -------
    numpy.ndarray
        (W x W) float64 matrix; entry ``[i, j]`` with ``j <= i`` holds the
        sum of r² over all pairs within ``[j, i]``; entries above the
        diagonal are 0.
    """
    r2 = np.asarray(r2, dtype=np.float64)
    if r2.ndim != 2 or r2.shape[0] != r2.shape[1]:
        raise ScanConfigError(f"r2 must be square, got shape {r2.shape}")
    w = r2.shape[0]
    m = np.zeros((w, w))
    for i in range(1, w):
        m[i, i - 1] = r2[i, i - 1]
        for j in range(i - 2, -1, -1):
            m[i, j] = m[i, j + 1] + m[i - 1, j] - m[i - 1, j + 1] + r2[i, j]
    return m


class SumMatrix:
    """O(1) window sums of r² for one region, built in O(W²) vector ops.

    Internally stores the 2-D inclusive prefix sum P of the *symmetrized*
    r² matrix (diagonal forced to 0). The sum of r² over all unordered
    pairs within ``[a..b]`` is then ``block_sum(a, b) / 2`` where
    ``block_sum`` is the rectangle sum over ``[a..b] x [a..b]``: each
    off-diagonal pair appears twice in the symmetric matrix and the
    diagonal contributes nothing.
    """

    def __init__(self, r2: np.ndarray, *, assume_symmetric: bool = False):
        """Build the prefix structure.

        Parameters
        ----------
        r2:
            (W x W) pairwise r² matrix. By default only the strict lower
            triangle is trusted and the matrix is symmetrized from it.
        assume_symmetric:
            Skip the symmetrization (profiling shows it is ~40 % of the
            construction cost): the caller asserts ``r2`` is symmetric —
            true for every matrix produced by :mod:`repro.ld` — and only
            the diagonal is cleared. The scanner uses this path.
        """
        r2 = np.asarray(r2, dtype=np.float64)
        if r2.ndim != 2 or r2.shape[0] != r2.shape[1]:
            raise ScanConfigError(f"r2 must be square, got shape {r2.shape}")
        w = r2.shape[0]
        if assume_symmetric:
            sym = r2.copy()
            np.fill_diagonal(sym, 0.0)
        else:
            sym = np.tril(r2, k=-1)
            sym = sym + sym.T
        # Pad with a zero row/column so prefix lookups need no branches.
        p = np.zeros((w + 1, w + 1))
        np.cumsum(sym, axis=0, out=sym)
        np.cumsum(sym, axis=1, out=sym)
        p[1:, 1:] = sym
        self._prefix = p
        self._w = w

    @classmethod
    def from_prefix(cls, prefix: np.ndarray, n_sites: int) -> "SumMatrix":
        """Wrap an existing ``(W+1, W+1)`` prefix block without rebuilding.

        Used by :class:`~repro.core.reuse.SumMatrixCache` to serve a
        region as an offset view into a larger anchored prefix structure.
        The block does **not** need a zero first row/column: every query
        below is a four-corner rectangle difference, so a constant shift
        of the prefix anchor cancels exactly.
        """
        prefix = np.asarray(prefix, dtype=np.float64)
        if prefix.shape != (n_sites + 1, n_sites + 1):
            raise ScanConfigError(
                f"prefix shape {prefix.shape} does not match "
                f"{n_sites} sites"
            )
        obj = cls.__new__(cls)
        obj._prefix = prefix
        obj._w = n_sites
        return obj

    @property
    def n_sites(self) -> int:
        """Region width W."""
        return self._w

    def _block(self, r0: int, r1: int, c0: int, c1: int) -> float:
        """Rectangle sum of the symmetric r² matrix over rows [r0..r1],
        cols [c0..c1], inclusive indices."""
        p = self._prefix
        return float(
            p[r1 + 1, c1 + 1] - p[r0, c1 + 1] - p[r1 + 1, c0] + p[r0, c0]
        )

    def _check(self, a: int, b: int) -> None:
        if not (0 <= a <= b < self._w):
            raise ScanConfigError(
                f"window [{a}, {b}] out of bounds for region of {self._w} sites"
            )

    def pair_sum(self, a: int, b: int) -> float:
        """Σ r² over all unordered pairs within sites ``[a..b]``.

        This is ``M[b][a]`` in OmegaPlus's storage.
        """
        self._check(a, b)
        return 0.5 * self._block(a, b, a, b)

    def cross_sum(self, a: int, c: int, b: int) -> float:
        """Σ r² over pairs straddling the split: left ``[a..c]`` x right
        ``[c+1..b]`` (the omega denominator term Σ_LR)."""
        self._check(a, b)
        if not (a <= c < b):
            raise ScanConfigError(
                f"split c={c} must satisfy a <= c < b (a={a}, b={b})"
            )
        return self._block(c + 1, b, a, c)

    # ------------------------------------------------------------------ #
    # vectorized forms used by the omega all-splits evaluation
    # ------------------------------------------------------------------ #

    def left_sums(self, borders: np.ndarray, c: int) -> np.ndarray:
        """Vector of Σ_L = pair_sum(i, c) for each left border ``i``."""
        borders = np.asarray(borders, dtype=np.intp)
        if borders.size == 0:
            return np.zeros(0)
        if borders.min() < 0 or borders.max() > c or c >= self._w:
            raise ScanConfigError("left borders must satisfy 0 <= i <= c < W")
        p = self._prefix
        # block(i..c, i..c) = P[c+1,c+1] - P[i,c+1] - P[c+1,i] + P[i,i]
        return 0.5 * (
            p[c + 1, c + 1]
            - p[borders, c + 1]
            - p[c + 1, borders]
            + p[borders, borders]
        )

    def right_sums(self, c: int, borders: np.ndarray) -> np.ndarray:
        """Vector of Σ_R = pair_sum(c + 1, j) for each right border ``j``."""
        borders = np.asarray(borders, dtype=np.intp)
        if borders.size == 0:
            return np.zeros(0)
        lo = c + 1
        if lo < 0 or borders.min() < lo or borders.max() >= self._w:
            raise ScanConfigError("right borders must satisfy c < j < W")
        p = self._prefix
        return 0.5 * (
            p[borders + 1, borders + 1]
            - p[lo, borders + 1]
            - p[borders + 1, lo]
            + p[lo, lo]
        )

    def cross_sums_grid(
        self, left_borders: np.ndarray, c: int, right_borders: np.ndarray
    ) -> np.ndarray:
        """Matrix of Σ_LR for every (right border, left border) pair.

        Returns shape ``(len(right_borders), len(left_borders))`` — the
        orientation matches the GPU kernels, which assign the inner loop to
        the larger side (Section IV-B).
        """
        li = np.asarray(left_borders, dtype=np.intp)
        rj = np.asarray(right_borders, dtype=np.intp)
        if li.size == 0 or rj.size == 0:
            return np.zeros((rj.size, li.size))
        if li.min() < 0 or li.max() > c or rj.min() <= c or rj.max() >= self._w:
            raise ScanConfigError("borders out of range for cross_sums_grid")
        p = self._prefix
        # block(c+1..j, i..c) = P[j+1, c+1] - P[c+1, c+1] - P[j+1, i] + P[c+1, i]
        return (
            (p[rj + 1, c + 1] - p[c + 1, c + 1])[:, None]
            - p[np.ix_(rj + 1, li)]
            + p[c + 1, li][None, :]
        )

    def cross_sums_block(
        self, l0: int, l1: int, c: int, r0: int, r1: int, out: np.ndarray
    ) -> np.ndarray:
        """:meth:`cross_sums_grid` for the contiguous border runs
        ``l0..l1`` and ``r0..r1``, written into ``out`` (shape
        ``(r1 - r0 + 1, l1 - l0 + 1)``).

        The rectangle corners are read as slice views of the prefix block
        instead of a fancy-index gather; the operation order is
        :meth:`cross_sums_grid`'s, so the values are bitwise identical.
        """
        if not (0 <= l0 <= l1 <= c < r0 <= r1 < self._w):
            raise ScanConfigError("borders out of range for cross_sums_block")
        p = self._prefix
        rows = slice(r0 + 1, r1 + 2)
        cols = slice(l0, l1 + 1)
        np.subtract(
            (p[rows, c + 1] - p[c + 1, c + 1])[:, None], p[rows, cols], out=out
        )
        np.add(out, p[c + 1, cols][None, :], out=out)
        return out

    def cross_sums_pairs(
        self, left_borders: np.ndarray, c: int, right_borders: np.ndarray
    ) -> np.ndarray:
        """Σ_LR for element-wise (left, right) border pairs (flat form of
        :meth:`cross_sums_grid`, used by the GPU kernels' per-work-item
        decode)."""
        li = np.asarray(left_borders, dtype=np.intp)
        rj = np.asarray(right_borders, dtype=np.intp)
        if li.shape != rj.shape:
            raise ScanConfigError("border arrays must have matching shapes")
        if li.size == 0:
            return np.zeros(li.shape)
        if li.min() < 0 or li.max() > c or rj.min() <= c or rj.max() >= self._w:
            raise ScanConfigError("borders out of range for cross_sums_pairs")
        p = self._prefix
        return (
            p[rj + 1, c + 1]
            - p[c + 1, c + 1]
            - p[rj + 1, li]
            + p[c + 1, li]
        )

    def as_matrix(self) -> np.ndarray:
        """Materialize the full OmegaPlus-layout M (for tests/inspection):
        ``M[i, j] = pair_sum(j, i)`` for ``j <= i``, zeros above."""
        w = self._w
        m = np.zeros((w, w))
        for i in range(w):
            for j in range(i + 1):
                m[i, j] = self.pair_sum(j, i)
        return m

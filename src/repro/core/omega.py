"""The ω statistic (Kim & Nielsen 2004), Eq. (2) of the paper.

For a region of W SNPs split into a left window of l SNPs and a right
window of r = W - l SNPs,

          ( C(l,2) + C(r,2) )⁻¹ · ( Σ_L + Σ_R )
    ω = ------------------------------------------
              ( l · r )⁻¹ · Σ_LR + ε

Σ_L and Σ_R are the sums of r² over pairs within the left and right
windows, Σ_LR the sum over straddling pairs. High ω flags the sweep
signature: strong LD inside each flank, weak LD across the focal point.

ε is OmegaPlus's ``DENOMINATOR_OFFSET`` (1e-5 in the original source): a
guard against division by zero when the cross-window LD sum is exactly 0.
We keep the same default so scores are comparable with the original tool.

Evaluation model (Fig. 2 / Fig. 6): at one grid position the split index c
is *fixed* (the SNP immediately left of the position); the left border i
and right border j vary over their candidate ranges, and the reported
score is the maximum ω over all (i, j) combinations. That double loop —
``(number of left borders) x (number of right borders)`` ω evaluations —
is precisely the workload the paper's GPU and FPGA accelerators attack.

Three evaluators live here:

* :func:`omega_from_sums` — the bare formula, vectorized.
* :func:`omega_brute_force` — triple-loop oracle built directly on r²
  pairs (test reference; O(W²) per (i, j) candidate).
* :func:`omega_split_matrix` / :func:`omega_max_at_split` — the production
  path: all splits at once from a :class:`~repro.core.dp.SumMatrix`.

:func:`omega_max_at_split` scores contiguous border runs (every grid
plan's) in place, the way OmegaPlus's Kernel I reads window sums straight
out of matrix M, with scratch in an :class:`OmegaWorkspace` owned by the
scan. A workspace is not thread-safe; each scan (scanner sink, service
request, worker block) keeps its own. Scores are bitwise identical to
:func:`omega_split_matrix`, which stays the path for any other border
set.

In-place scoring has two kernels with the same bits:

* the compiled loop in ``_eq2.c`` (see :mod:`repro.core.native`), which
  scores a position's whole grid in one call. Per cell it does exactly
  the numpy path's operations in its order: Σ_L and Σ_R as
  ``0.5*(((a-b)-c)+d)``, Σ_LR as in ``cross_sums_block``, then
  ``/ (l·r)``, ``+ eps``, ``(Σ_L+Σ_R) / max(C(l,2)+C(r,2), 1)`` with the
  numerator 0 at the l = r = 1 corner, and the final divide. It is built
  with ``-ffp-contract=off`` (no fused multiply-add) on the first call
  of a process, never at import;
* the numpy row blocks (:meth:`OmegaWorkspace.max_runs_numpy`): Σ_LR as
  a slice of the prefix block, window-pair counts from cached tables.
  They are the reference, and serve when the compiled kernel cannot be
  built or the prefix rows are not contiguous.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.core import native
from repro.core.dp import SumMatrix
from repro.errors import ScanConfigError

__all__ = [
    "DENOMINATOR_OFFSET",
    "omega_from_sums",
    "omega_brute_force",
    "omega_split_matrix",
    "omega_max_at_split",
    "OmegaMaximum",
    "OmegaWorkspace",
]

#: OmegaPlus's denominator guard (same value as the original C source).
DENOMINATOR_OFFSET = 1e-5


def _pairs(k: np.ndarray | int) -> np.ndarray | float:
    """C(k, 2) for scalars or arrays."""
    k = np.asarray(k, dtype=np.float64)
    return k * (k - 1.0) / 2.0


def omega_from_sums(
    sum_l,
    sum_r,
    sum_lr,
    n_left,
    n_right,
    *,
    eps: float = DENOMINATOR_OFFSET,
    checked: bool = True,
):
    """Evaluate Eq. (2) from window sums; broadcasts over array inputs.

    Splits whose within-pair normalizer C(l,2) + C(r,2) is zero (both
    windows of size 1) score 0 — they contain no within-window pair and so
    carry no sweep signal.

    ``checked=False`` skips the window-size validation pass — the fast
    path for internal callers whose border sets were already validated at
    plan/pack construction time (every border admitted by
    :class:`~repro.core.dp.SumMatrix`'s range checks yields window sizes
    >= 1 by construction). The public API keeps the checked default.
    """
    sum_l = np.asarray(sum_l, dtype=np.float64)
    sum_r = np.asarray(sum_r, dtype=np.float64)
    sum_lr = np.asarray(sum_lr, dtype=np.float64)
    n_left = np.asarray(n_left, dtype=np.float64)
    n_right = np.asarray(n_right, dtype=np.float64)
    if checked and (np.any(n_left < 1) or np.any(n_right < 1)):
        raise ScanConfigError("window sizes must be >= 1 SNP")
    within_pairs = _pairs(n_left) + _pairs(n_right)
    cross_pairs = n_left * n_right
    numerator = np.where(
        within_pairs > 0, (sum_l + sum_r) / np.maximum(within_pairs, 1.0), 0.0
    )
    denominator = sum_lr / cross_pairs + eps
    omega = numerator / denominator
    if omega.ndim == 0:
        return float(omega)
    return omega


def omega_brute_force(
    r2: np.ndarray,
    a: int,
    c: int,
    b: int,
    *,
    eps: float = DENOMINATOR_OFFSET,
) -> float:
    """ω for the single window (left = sites a..c, right = c+1..b) computed
    by explicit summation over the r² matrix. Test oracle only."""
    r2 = np.asarray(r2, dtype=np.float64)
    w = r2.shape[0]
    if not (0 <= a <= c < b < w):
        raise ScanConfigError(f"need 0 <= a <= c < b < W, got {(a, c, b, w)}")
    sum_l = 0.0
    for i in range(a, c + 1):
        for j in range(a, i):
            sum_l += r2[i, j]
    sum_r = 0.0
    for i in range(c + 1, b + 1):
        for j in range(c + 1, i):
            sum_r += r2[i, j]
    sum_lr = 0.0
    for i in range(c + 1, b + 1):
        for j in range(a, c + 1):
            sum_lr += r2[i, j]
    return float(
        omega_from_sums(sum_l, sum_r, sum_lr, c - a + 1, b - c, eps=eps)
    )


def omega_split_matrix(
    sums: SumMatrix,
    left_borders: np.ndarray,
    c: int,
    right_borders: np.ndarray,
    *,
    eps: float = DENOMINATOR_OFFSET,
) -> np.ndarray:
    """ω for every (left border, right border) combination at split ``c``.

    Returns shape ``(len(right_borders), len(left_borders))``; entry
    ``[jj, ii]`` scores the window ``left_borders[ii] .. right_borders[jj]``.
    Fully vectorized — this is the same score set the GPU kernels compute
    with one work-item per entry (Kernel I) or several entries per
    work-item (Kernel II).
    """
    li = np.asarray(left_borders, dtype=np.intp)
    rj = np.asarray(right_borders, dtype=np.intp)
    if li.size == 0 or rj.size == 0:
        return np.zeros((rj.size, li.size))
    sum_l = sums.left_sums(li, c)  # (L,)
    sum_r = sums.right_sums(c, rj)  # (R,)
    sum_lr = sums.cross_sums_grid(li, c, rj)  # (R, L)
    n_left = (c - li + 1).astype(np.float64)  # (L,)
    n_right = (rj - c).astype(np.float64)  # (R,)
    # Window sizes derive from valid border indices (li <= c < rj), so
    # they are >= 1 by construction — skip the public-API validation.
    return omega_from_sums(
        sum_l[None, :],
        sum_r[:, None],
        sum_lr,
        n_left[None, :],
        n_right[:, None],
        eps=eps,
        checked=False,
    )


@dataclass(frozen=True)
class OmegaMaximum:
    """Result of maximizing ω over all splits at one grid position.

    Attributes
    ----------
    omega:
        The maximum ω score (0.0 when no valid split exists).
    left_border, right_border:
        Region-local site indices of the maximizing window, or -1 when no
        valid split exists.
    n_evaluations:
        Number of (i, j) combinations scored — the per-position workload
        that the GPU dispatch threshold (Eq. 4) inspects.
    """

    omega: float
    left_border: int
    right_border: int
    n_evaluations: int


def _is_run(borders: np.ndarray) -> bool:
    """True when ``borders`` is an ascending step-1 run of indices: a
    strictly increasing integer array spanning exactly ``size - 1``."""
    if borders[-1] - borders[0] != borders.size - 1:
        return False
    return borders.size <= 2 or bool((borders[1:] > borders[:-1]).all())


class OmegaWorkspace:
    """Reusable buffers for scoring Eq. (2) in place.

    :meth:`max_runs` scores with the compiled kernel, whose column
    tables and row buffers live here. The numpy path
    (:meth:`max_runs_numpy`) scores a position's ``(R, L)`` grid in
    blocks of right-border rows (about :attr:`BLOCK_SCORES` scores each,
    so a block's operands stay cache-resident), keeping only a running
    first-hit maximum. Holds two
    block buffers (the cross term and the numerator) and two window-pair
    count tables indexed by window size: ``max(C(l,2) + C(r,2), 1)`` and
    ``l · r``. Counts are exact small integers in float64, so a table
    slice holds the same doubles :func:`omega_from_sums` computes. Every
    array grows to the largest shape seen and is then reused, so a scan
    allocates nothing per position once its widest position has been
    scored.

    A workspace belongs to one scan and is not thread-safe.
    """

    #: Target scores per row block (256 KiB per float64 buffer).
    BLOCK_SCORES = 1 << 15

    def __init__(self):
        self._cross_buf = np.empty(0)
        self._num_buf = np.empty(0)
        # Rows: n_right - 1. Columns: n_left in *descending* order
        # (column k holds n_left = n_cols - k), because ascending left
        # borders give descending left-window sizes.
        self._within_pairs = np.empty((0, 0))
        self._cross_pairs = np.empty((0, 0))
        # The compiled kernel's maximum cell, then its column tables and
        # row buffers; the address is kept, as reading it costs ~2 us.
        self._scratch = np.empty(1)
        self._scratch_at = self._scratch.ctypes.data

    def _counts(self, nr_lo: int, nr_hi: int, nl_hi: int, nl_lo: int):
        """Table views for right-window sizes ``nr_lo..nr_hi`` (rows) and
        left-window sizes ``nl_hi`` down to ``nl_lo`` (columns)."""
        rows, cols = self._within_pairs.shape
        if nr_hi > rows or nl_hi > cols:
            rows, cols = max(rows, nr_hi), max(cols, nl_hi)
            n_left = np.arange(cols, 0, -1, dtype=np.float64)
            n_right = np.arange(1, rows + 1, dtype=np.float64)
            within = _pairs(n_left)[None, :] + _pairs(n_right)[:, None]
            self._within_pairs = np.maximum(within, 1.0, out=within)
            self._cross_pairs = n_left[None, :] * n_right[:, None]
        r = slice(nr_lo - 1, nr_hi)
        k = slice(cols - nl_hi, cols - nl_lo + 1)
        return self._within_pairs[r, k], self._cross_pairs[r, k]

    def max_runs(
        self,
        sums: SumMatrix,
        left_borders: np.ndarray,
        c: int,
        right_borders: np.ndarray,
        *,
        eps: float = DENOMINATOR_OFFSET,
    ) -> tuple:
        """``(omega, flat index)`` of the first maximum of
        :func:`omega_split_matrix`'s grid, for non-empty, ascending step-1
        border runs (the caller checks; :func:`omega_max_at_split` does).

        Scores with the compiled kernel when it is loaded and the prefix
        block's rows are contiguous, else with :meth:`max_runs_numpy`.
        Both return the same bits.
        """
        l0, l1 = int(left_borders[0]), int(left_borders[-1])
        r0, r1 = int(right_borders[0]), int(right_borders[-1])
        if not (0 <= l0 <= l1 <= c < r0 <= r1 < sums.n_sites):
            raise ScanConfigError(
                f"borders {l0}..{l1} | {c} | {r0}..{r1} out of range for "
                f"a region of {sums.n_sites} sites"
            )
        kernel = native.load_eq2()
        p = sums.prefix
        if kernel is None or p.strides[1] != 8 or p.strides[0] % 8:
            return self.max_runs_numpy(
                sums, left_borders, c, right_borders, eps=eps
            )
        size = 1 + 5 * (l1 - l0 + 1)
        if self._scratch.size < size:
            self._scratch = np.empty(size)
            self._scratch_at = self._scratch.ctypes.data
        at = kernel(
            p.ctypes.data, p.strides[0] // 8, l0, l1, c, r0, r1, eps,
            self._scratch_at + 8, self._scratch_at,
        )
        return float(self._scratch[0]), at

    def max_runs_numpy(
        self,
        sums: SumMatrix,
        left_borders: np.ndarray,
        c: int,
        right_borders: np.ndarray,
        *,
        eps: float = DENOMINATOR_OFFSET,
    ) -> tuple:
        """:meth:`max_runs` in numpy row blocks: the reference for the
        compiled kernel and the path when it is unavailable.

        Each block performs :func:`omega_from_sums`'s operations in its
        order, so every score is bitwise identical; the single cell with
        no within-window pair (l = r = 1) is set to 0 before the final
        division, as the ``np.where`` there does. Blocks merge with
        ``np.argmax``'s rule: the first maximum wins, and the first NaN
        beats every number.
        """
        li, rj = left_borders, right_borders
        n_left, n_right = li.size, rj.size
        l0, l1 = int(li[0]), int(li[-1])
        r0, r1 = int(rj[0]), int(rj[-1])
        sum_l = sums.left_sums(li, c)[None, :]
        sum_r = sums.right_sums(c, rj)[:, None]
        within_pairs, cross_pairs = self._counts(
            r0 - c, r1 - c, c - l0 + 1, c - l1 + 1
        )
        rows = max(1, min(n_right, self.BLOCK_SCORES // n_left))
        if self._cross_buf.size < rows * n_left:
            self._cross_buf = np.empty(rows * n_left)
            self._num_buf = np.empty(rows * n_left)
        best, best_at = 0.0, -1
        for j0 in range(0, n_right, rows):
            j1 = min(j0 + rows, n_right)
            size = (j1 - j0) * n_left
            cross = self._cross_buf[:size].reshape(j1 - j0, n_left)
            num = self._num_buf[:size].reshape(j1 - j0, n_left)
            sums.cross_sums_block(l0, l1, c, r0 + j0, r0 + j1 - 1, out=cross)
            np.divide(cross, cross_pairs[j0:j1], out=cross)
            np.add(cross, eps, out=cross)
            np.add(sum_l, sum_r[j0:j1], out=num)
            np.divide(num, within_pairs[j0:j1], out=num)
            if j0 == 0 and l1 == c and r0 == c + 1:
                num[0, -1] = 0.0
            np.divide(num, cross, out=num)
            k = int(np.argmax(num))
            value = num.flat[k]
            if (
                best_at < 0
                or value > best
                or (value != value and best == best)  # the first NaN
            ):
                best, best_at = value, j0 * n_left + k
        return float(best), best_at


def omega_max_at_split(
    sums: SumMatrix,
    left_borders: np.ndarray,
    c: int,
    right_borders: np.ndarray,
    *,
    eps: float = DENOMINATOR_OFFSET,
    workspace: Optional[OmegaWorkspace] = None,
) -> OmegaMaximum:
    """Maximize ω over all border combinations at a fixed split ``c``.

    Contiguous border runs are scored in place in ``workspace`` (a fresh
    one when omitted; pass the scan's own to allocate nothing per call).
    Other border sets fall back to :func:`omega_split_matrix`. Both give
    the same maximum, borders and first-hit tie-breaking bit for bit.
    """
    li = np.asarray(left_borders, dtype=np.intp)
    rj = np.asarray(right_borders, dtype=np.intp)
    if li.size == 0 or rj.size == 0:
        return OmegaMaximum(0.0, -1, -1, 0)
    if _is_run(li) and _is_run(rj):
        if workspace is None:
            workspace = OmegaWorkspace()
        omega, flat = workspace.max_runs(sums, li, c, rj, eps=eps)
    else:
        scores = omega_split_matrix(sums, li, c, rj, eps=eps)
        flat = int(np.argmax(scores))
        omega = float(scores.flat[flat])
    jj, ii = divmod(flat, li.size)
    return OmegaMaximum(
        omega=omega,
        left_border=int(li[ii]),
        right_border=int(rj[jj]),
        n_evaluations=int(li.size * rj.size),
    )

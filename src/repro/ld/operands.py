"""Per-alignment LD operand planes and the backend-picking tile filler.

Every LD backend consumes a derived *operand plane* of the alignment:

* the GEMM formulation multiplies 0/1 float columns (``Aᵀ A``), and
* the popcount formulation ANDs bit-packed 64-bit word rows.

The GEMM plane is float32 below 2²⁴ samples and float64 from there on
(:func:`~repro.ld.gemm.gemm_dtype`): every partial sum of a 0/1 dot
product is an integer no larger than the sample count, so below that
bound the float32 counts are exact and convert to the float64 counts bit
for bit, at half the plane's bytes.

Before this module each consumer derived its plane ad hoc — worst of all
``r_squared_block`` converting the *entire* (samples x sites) matrix to
float64 on every tile, and every worker process re-packing its own
:class:`~repro.datasets.packed.PackedAlignment`. :class:`LDOperands`
materializes each plane **once per alignment** (lazily, only the planes a
backend actually touches) and serves column slices from it; the
process-local :func:`operands_for` memo shares one instance across the
region cache, tile store and tiled engine of the same alignment. In the
multiprocess path the packed plane is published to POSIX shared memory
(:class:`~repro.datasets.packed.SharedPackedWords`) so workers attach
zero-copy instead of re-packing — pass that attachment in via ``packed=``.

:class:`LDBackendFiller` is the block-computation callable the caches and
the shared tile store plug in: it serves ``r_squared_block`` semantics
from the operand planes, and with ``backend="auto"`` picks gemm-vs-packed
*per block* from the :class:`~repro.core.costmodel.ScanCostModel` LD
crossover constants (PLINK 2's observation that packed popcounts win as
sample counts grow, made quantitative and machine-calibrated). Because
the co-occurrence counts are integer-exact under both formulations, every
choice produces bitwise-identical r² — the pick is timing-only.
"""

from __future__ import annotations

import weakref
from typing import Dict, Optional

import numpy as np

import repro.obs as obs
from repro.datasets.alignment import SNPAlignment
from repro.datasets.packed import PackedAlignment
from repro.errors import LDError
from repro.ld.gemm import gemm_dtype, r_squared_block

__all__ = ["LDOperands", "LDBackendFiller", "operands_for", "LD_BACKENDS"]

#: The LD backend names understood by the filler (and by every consumer
#: that forwards a backend name here: config, tile store, CLI).
LD_BACKENDS = ("gemm", "packed", "auto")

#: Refuse to cache a GEMM plane larger than this (2 GB). Above the
#: cap :meth:`LDOperands.gemm_columns` converts each requested column
#: slice on demand (slice first, then convert — still never the full
#: matrix), trading repeated conversion for bounded residency.
DEFAULT_MAX_GEMM_PLANE_BYTES = 2 * 1024 * 1024 * 1024


class LDOperands:
    """Lazily materialized, cached LD operand planes of one alignment.

    Parameters
    ----------
    alignment:
        The source alignment.
    packed:
        Optional pre-built packed plane (e.g. a zero-copy attachment to a
        :class:`~repro.datasets.packed.SharedPackedWords` segment another
        process published). When omitted, the plane is packed locally on
        first use.
    max_gemm_plane_bytes:
        Cap on the cached GEMM plane's bytes; see
        :data:`DEFAULT_MAX_GEMM_PLANE_BYTES`.

    The instance keeps the alignment's arrays and only a *weak*
    reference to the alignment itself: the :func:`operands_for` memo
    holds instances strongly, and a strong back-reference would keep
    every memoised alignment (and its planes) alive for good.
    """

    def __init__(
        self,
        alignment: SNPAlignment,
        *,
        packed: Optional[PackedAlignment] = None,
        max_gemm_plane_bytes: int = DEFAULT_MAX_GEMM_PLANE_BYTES,
    ):
        self._source = weakref.ref(alignment)
        self._matrix = alignment.matrix
        self._positions = alignment.positions
        self._length = alignment.length
        self._packed = packed
        self._gemm: Optional[np.ndarray] = None
        self._counts: Optional[np.ndarray] = None
        self._max_gemm_plane_bytes = int(max_gemm_plane_bytes)

    # -------------------------------------------------------------- #

    @property
    def alignment(self) -> Optional[SNPAlignment]:
        """The source alignment, or ``None`` once it was collected."""
        return self._source()

    @property
    def n_samples(self) -> int:
        return int(self._matrix.shape[0])

    @property
    def n_sites(self) -> int:
        return int(self._matrix.shape[1])

    @property
    def n_words(self) -> int:
        """Packed words per site (without forcing the packed plane)."""
        return (self.n_samples + 63) // 64

    # -------------------------------------------------------------- #
    # plane accessors

    def gemm_plane(self) -> Optional[np.ndarray]:
        """The cached (samples x sites) GEMM operand in
        :func:`~repro.ld.gemm.gemm_dtype`, or ``None`` when it would
        exceed the plane cap (callers fall back to per-slice conversion
        via :meth:`gemm_columns`)."""
        if self._gemm is None:
            dtype = gemm_dtype(self.n_samples)
            needed = dtype.itemsize * self.n_samples * self.n_sites
            if needed > self._max_gemm_plane_bytes:
                return None
            self._gemm = self._matrix.astype(dtype)
        return self._gemm

    def gemm_columns(self, lo: int, hi: int) -> np.ndarray:
        """GEMM operand for site columns ``[lo, hi)`` — a view of the
        cached plane, or a fresh slice-first conversion above the cap
        (never a full-matrix ``astype``)."""
        plane = self.gemm_plane()
        if plane is not None:
            return plane[:, lo:hi]
        return self._matrix[:, lo:hi].astype(gemm_dtype(self.n_samples))

    def packed(self) -> PackedAlignment:
        """The bit-packed word plane, packed once on first use (or the
        shared-memory attachment this instance was constructed around)."""
        if self._packed is None:
            self._packed = PackedAlignment.from_matrix(
                self._matrix, self._positions, self._length
            )
        return self._packed

    def derived_counts(self) -> np.ndarray:
        """Per-site derived-allele counts, computed once."""
        if self._counts is None:
            self._counts = self._matrix.sum(axis=0, dtype=np.int64)
        return self._counts

    def nbytes(self) -> int:
        """Bytes currently held by materialized planes (not the source
        matrix)."""
        total = 0
        if self._gemm is not None:
            total += int(self._gemm.nbytes)
        if self._packed is not None:
            total += self._packed.nbytes()
        if self._counts is not None:
            total += int(self._counts.nbytes)
        return total


# ------------------------------------------------------------------ #
# process-local memo

_CACHE: Dict[int, LDOperands] = {}


def operands_for(
    alignment: SNPAlignment, *, packed: Optional[PackedAlignment] = None
) -> LDOperands:
    """The process-local :class:`LDOperands` for ``alignment``.

    Keyed by object identity (cheap, and alignments are immutable); the
    entry is dropped when the alignment is garbage collected, so a
    streaming scan's dead chunks do not pin their planes. A ``packed``
    plane passed on first call seeds the instance (the shared-memory
    attach path); later calls for the same alignment reuse it.
    """
    key = id(alignment)
    entry = _CACHE.get(key)
    if entry is not None and entry.alignment is alignment:
        return entry
    ops = LDOperands(alignment, packed=packed)
    _CACHE[key] = ops
    weakref.finalize(alignment, _CACHE.pop, key, None)
    return ops


# ------------------------------------------------------------------ #
# backend-picking block filler


class LDBackendFiller:
    """``(rows, cols) -> r²`` block source over cached operand planes.

    Drop-in ``block_fn`` for :class:`~repro.core.reuse.R2RegionCache` and
    the compute side of :class:`~repro.core.tilestore.SharedR2TileStore`:
    serves :func:`~repro.ld.gemm.r_squared_block` semantics, bitwise-equal
    across all three backend modes.

    ``backend="auto"`` asks the process-wide
    :class:`~repro.core.costmodel.ScanCostModel` which formulation is
    predicted cheaper for each block's (rows x cols x samples) shape; the
    fixed names always use that formulation. Every fill increments
    ``<metric_prefix>.backend_gemm_fills`` /
    ``<metric_prefix>.backend_packed_fills`` so the realized mix is
    observable per store (``tilestore.*``) and per region cache
    (``ld.*``).
    """

    def __init__(
        self,
        operands: LDOperands,
        backend: str = "gemm",
        *,
        metric_prefix: str = "ld",
    ):
        if backend not in LD_BACKENDS:
            raise LDError(
                f"unknown LD backend {backend!r}; use 'gemm', 'packed' "
                f"or 'auto'"
            )
        self.operands = operands
        self.backend = backend
        self._metric_prefix = metric_prefix
        if backend == "auto":
            # Calibrate the crossover constants once per process (a few
            # ms of microbenchmark) so the first pick is already informed.
            from repro.core.costmodel import ensure_ld_crossover_calibrated

            ensure_ld_crossover_calibrated(operands.n_samples)

    def pick(self, n_rows: int, n_cols: int) -> str:
        """The backend that will serve a (n_rows x n_cols) block."""
        if self.backend != "auto":
            return self.backend
        from repro.core.costmodel import get_cost_model

        return get_cost_model().ld_backend_for_tile(
            n_rows, n_cols, self.operands.n_samples
        )

    def __call__(
        self,
        rows: slice,
        cols: slice,
        *,
        backend: Optional[str] = None,
        out: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """r² for the block ``rows x cols``; ``backend`` (from a prior
        :meth:`pick`) skips re-deciding. With ``out`` (a float64 array of
        the block's shape, e.g. a view of the region cache's buffer) the
        block is written there and ``out`` is returned."""
        ops = self.operands
        n_sites = ops.n_sites
        r0, r1, rstep = rows.indices(n_sites)
        c0, c1, cstep = cols.indices(n_sites)
        if rstep != 1 or cstep != 1:
            raise LDError("LD blocks require contiguous (step-1) slices")
        if backend is None:
            backend = self.pick(r1 - r0, c1 - c0)
        obs.get_metrics().counter(
            f"{self._metric_prefix}.backend_{backend}_fills"
        ).inc()
        if backend == "packed":
            from repro.ld.packed_kernels import r_squared_block_packed

            return r_squared_block_packed(
                ops.packed(), rows, cols, counts=ops.derived_counts(), out=out
            )
        return r_squared_block(None, rows, cols, operands=ops, out=out)

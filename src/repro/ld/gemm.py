"""All-pairs LD as dense linear algebra (the GEMM formulation).

Alachiotis, Popovici & Low [24] showed that the co-occurrence counts that
feed r² can be produced for *all* site pairs at once by one general matrix
multiplication: with A the (samples x sites) 0/1 matrix,

    N11 = Aᵀ A        (N11[i, j] = number of samples derived at i and j)

after which r² is an element-wise map over N11 and the per-site counts.
Binder et al. [17] mapped exactly this onto GPUs via the BLIS framework,
and the paper's GPU-accelerated OmegaPlus reuses that kernel for its LD
stage. In NumPy the analogue of the vendor GEMM is ``A.T @ A`` dispatched
to BLAS — this module is therefore both the fastest host implementation
and the functional model of the GPU LD path.

Exactness: the operands are 0/1, so every partial sum of a dot product
is an integer no larger than n_samples. Below 2²⁴ samples every such
integer is exact in float32, so :func:`gemm_dtype` picks float32 there —
half the operand bytes and a faster GEMM — and the counts it yields
convert to float64 bit for bit as a float64 GEMM's would, whatever the
BLAS's summation order. From 2²⁴ samples on the operands are float64
(exact up to 2⁵³).

Memory note: the full matrix is O(sites²) float64. For the window sizes
OmegaPlus feeds it (a few thousand SNPs per region) that is tens of MB;
whole-chromosome all-pairs use :mod:`repro.ld.tiled` instead.
"""

from __future__ import annotations

from typing import Optional, Union

import numpy as np

from repro.datasets.alignment import SNPAlignment
from repro.errors import LDError
from repro.ld.correlation import r_squared_from_site_counts

__all__ = [
    "cooccurrence_gemm",
    "gemm_dtype",
    "r_squared_matrix",
    "r_squared_block",
]

#: Sample counts below this bound use float32 GEMM operands: every
#: integer up to 2²⁴ is exact in float32.
FLOAT32_EXACT_SAMPLES = 1 << 24


def gemm_dtype(n_samples: int) -> np.dtype:
    """Operand dtype of every LD GEMM over ``n_samples`` samples: float32
    while each co-occurrence count (at most ``n_samples``) is exact in
    it, float64 from 2²⁴ samples on."""
    if n_samples < FLOAT32_EXACT_SAMPLES:
        return np.dtype(np.float32)
    return np.dtype(np.float64)


def _device_gemm(a: np.ndarray, b: np.ndarray, backend) -> np.ndarray:
    """``a @ b`` on the given array backend, result back on the host.

    Host backends (numpy, numba) take the BLAS path directly — it is
    already the reference — so only genuine device backends pay the
    transfer round trip.
    """
    if backend is None or backend.is_host:
        return a @ b
    da = backend.asarray(a)
    db = backend.asarray(b)
    out = backend.to_host(da @ db)
    backend.synchronize()
    return out


def _resolve(backend: Union[str, None, object]):
    if backend is None or not isinstance(backend, str):
        return backend
    from repro.accel.backend import resolve_backend

    return resolve_backend(backend)


def cooccurrence_gemm(
    alignment: SNPAlignment,
    *,
    backend: Union[str, None, object] = None,
    operands=None,
) -> np.ndarray:
    """Return the (sites x sites) co-occurrence count matrix AᵀA.

    Uses a GEMM over :func:`gemm_dtype` operands (BLAS, or the array
    ``backend``'s device GEMM — see :mod:`repro.accel.backend`) and
    rounds back to integers: counts are bounded by n_samples, which that
    dtype represents exactly, so the round-trip is exact either way.
    ``operands`` accepts an :class:`~repro.ld.operands.LDOperands` cache
    whose GEMM plane is reused instead of converting the matrix per call.
    """
    backend = _resolve(backend)
    if operands is not None:
        a = operands.gemm_columns(0, alignment.n_sites)
    else:
        a = alignment.matrix.astype(gemm_dtype(alignment.n_samples))
    return np.rint(_device_gemm(a.T, a, backend)).astype(np.int64)


def r_squared_matrix(
    alignment: SNPAlignment,
    *,
    strict: bool = False,
    backend: Union[str, None, object] = None,
    operands=None,
) -> np.ndarray:
    """Full symmetric r² matrix for all site pairs.

    The diagonal is 1 for polymorphic sites (a site is perfectly correlated
    with itself) and 0 for monomorphic ones, consistent with the
    monomorphic-pair convention in :mod:`repro.ld.correlation`.
    """
    n11 = cooccurrence_gemm(alignment, backend=backend, operands=operands)
    counts = (
        operands.derived_counts()
        if operands is not None
        else alignment.derived_counts()
    )
    return r_squared_from_site_counts(
        n11, counts, counts, alignment.n_samples, strict=strict
    )


def r_squared_block(
    alignment: Optional[SNPAlignment],
    rows: slice,
    cols: slice,
    *,
    strict: bool = False,
    backend: Union[str, None, object] = None,
    operands=None,
    out: Optional[np.ndarray] = None,
) -> np.ndarray:
    """r² for the rectangular block ``rows x cols`` of the pair matrix.

    This is the primitive the tiled large-dataset driver composes; it is
    also how the GEMM engine serves OmegaPlus, which only ever needs the
    pairs inside the current grid-position window rather than the whole
    matrix. Only the requested columns are converted to
    :func:`gemm_dtype` (slice first, then ``astype``); pass ``operands``
    (:class:`~repro.ld.operands.LDOperands`) to serve the conversion from
    the per-alignment cached plane instead; ``alignment`` may then be
    ``None``, since the operands carry the shape. With ``out`` (a float64
    array of the block's shape, e.g. a view of a larger buffer) the r²
    is written there and ``out`` is returned.
    """
    shape = operands if operands is not None else alignment
    n_sites = shape.n_sites
    r0, r1, rstep = rows.indices(n_sites)
    c0, c1, cstep = cols.indices(n_sites)
    if rstep != 1 or cstep != 1:
        raise LDError("r_squared_block requires contiguous (step-1) slices")
    backend = _resolve(backend)
    if operands is not None:
        a_rows = operands.gemm_columns(r0, r1)
        a_cols = operands.gemm_columns(c0, c1)
        counts = operands.derived_counts()
    else:
        dtype = gemm_dtype(alignment.n_samples)
        a_rows = alignment.matrix[:, r0:r1].astype(dtype)
        a_cols = alignment.matrix[:, c0:c1].astype(dtype)
        counts = alignment.derived_counts()
    n11 = _device_gemm(a_rows.T, a_cols, backend)
    return r_squared_from_site_counts(
        n11, counts[r0:r1], counts[c0:c1], shape.n_samples,
        strict=strict, out=out,
    )

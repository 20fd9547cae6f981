"""Pairwise linkage disequilibrium as squared Pearson correlation (r²).

This is Eq. (1) of the paper with its typos corrected (the numerator is
squared and the second denominator frequency is p_j, matching the
OmegaPlus source and Kim & Nielsen 2004):

    r²_ij = (p_ij - p_i p_j)² / (p_i (1 - p_i) p_j (1 - p_j))

where p_i, p_j are derived-allele frequencies at sites i and j and p_ij is
the frequency of samples derived at *both* sites. For binary data this is
exactly the squared Pearson correlation of the two indicator columns.

Monomorphic sites make the denominator zero; following OmegaPlus we define
their r² contribution as 0 (they carry no association information) unless
the caller asks for strict behaviour.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.datasets.alignment import SNPAlignment
from repro.errors import LDError

__all__ = [
    "r_squared_pair",
    "r_squared_pairs",
    "r_squared_from_counts",
    "r_squared_from_site_counts",
]


def r_squared_from_counts(
    n11: np.ndarray,
    c_i: np.ndarray,
    c_j: np.ndarray,
    n_samples: int,
    *,
    strict: bool = False,
) -> np.ndarray:
    """r² from sufficient statistics (vectorized).

    Parameters
    ----------
    n11:
        Count of samples derived at both sites of each pair.
    c_i, c_j:
        Derived-allele counts at the first/second site of each pair.
    n_samples:
        Total sample count n (so p = c / n).
    strict:
        If True, raise :class:`~repro.errors.LDError` when any pair involves
        a monomorphic site; otherwise those pairs get r² = 0.

    Returns
    -------
    numpy.ndarray
        float64 array of r² values in [0, 1], same shape as the inputs.
    """
    if n_samples <= 0:
        raise LDError(f"n_samples must be positive, got {n_samples}")
    n = float(n_samples)
    n11 = np.asarray(n11, dtype=np.float64)
    c_i = np.asarray(c_i, dtype=np.float64)
    c_j = np.asarray(c_j, dtype=np.float64)
    p_i = c_i / n
    p_j = c_j / n
    p_ij = n11 / n
    # Grouped per site so the product is exactly symmetric under an
    # (i, j) swap (float multiplication commutes bitwise; the flat
    # left-to-right order would not associate the same way) — this is
    # what lets symmetric consumers serve r2(j, i) as r2(i, j) verbatim.
    denom = (p_i * (1.0 - p_i)) * (p_j * (1.0 - p_j))
    bad = denom <= 0.0
    if strict and np.any(bad):
        raise LDError("r-squared undefined for monomorphic site(s)")
    num = p_ij - p_i * p_j
    with np.errstate(divide="ignore", invalid="ignore"):
        r2 = np.where(bad, 0.0, (num * num) / np.where(bad, 1.0, denom))
    # Guard against float round-off pushing r2 infinitesimally above 1.
    return np.clip(r2, 0.0, 1.0)


def r_squared_from_site_counts(
    n11: np.ndarray,
    c_rows: np.ndarray,
    c_cols: np.ndarray,
    n_samples: int,
    *,
    strict: bool = False,
    out: Optional[np.ndarray] = None,
) -> np.ndarray:
    """r² of a rectangular block from its (R, C) co-occurrence counts and
    the per-site derived counts of its R rows and C columns.

    Bitwise equal to :func:`r_squared_from_counts` on the broadcast
    counts: every cell goes through the same operations in the same
    order, but the per-site factors ``p`` and ``p(1 − p)`` are formed
    once per row and column as vectors, and the block is written into
    ``out`` (any float64 (R, C) array, e.g. a strided view of a larger
    buffer) with one (R, C) float64 temporary. A monomorphic site makes
    ``p(1 − p)`` exactly 0 and a product of two positive factors never
    underflows at these magnitudes, so the cells with a zero denominator
    are exactly the rows and columns of monomorphic sites.
    """
    if n_samples <= 0:
        raise LDError(f"n_samples must be positive, got {n_samples}")
    n = float(n_samples)
    p_i = np.asarray(c_rows, dtype=np.float64) / n
    p_j = np.asarray(c_cols, dtype=np.float64) / n
    q_i = p_i * (1.0 - p_i)
    q_j = p_j * (1.0 - p_j)
    bad_i = q_i <= 0.0
    bad_j = q_j <= 0.0
    if strict and n11.size and (bad_i.any() or bad_j.any()):
        raise LDError("r-squared undefined for monomorphic site(s)")
    if out is None:
        out = np.empty(n11.shape)
    # out = p_ij, then num = p_ij - p_i p_j, then num * num ...
    np.divide(n11, n, out=out, dtype=np.float64)
    tmp = np.multiply(p_i[:, None], p_j[None, :])
    np.subtract(out, tmp, out=out)
    np.multiply(out, out, out=out)
    # ... divided by the denominator, with 1 standing in where it is 0.
    np.multiply(
        np.where(bad_i, 1.0, q_i)[:, None],
        np.where(bad_j, 1.0, q_j)[None, :],
        out=tmp,
    )
    np.divide(out, tmp, out=out)
    out[bad_i, :] = 0.0
    out[:, bad_j] = 0.0
    return np.clip(out, 0.0, 1.0, out=out)


def r_squared_pair(alignment: SNPAlignment, i: int, j: int) -> float:
    """r² between two sites of an alignment (scalar convenience form)."""
    if not (0 <= i < alignment.n_sites and 0 <= j < alignment.n_sites):
        raise LDError(
            f"site indices ({i}, {j}) out of range for {alignment.n_sites} sites"
        )
    col_i = alignment.matrix[:, i].astype(np.int64)
    col_j = alignment.matrix[:, j].astype(np.int64)
    n11 = int(np.dot(col_i, col_j))
    return float(
        r_squared_from_counts(
            np.array([n11]),
            np.array([col_i.sum()]),
            np.array([col_j.sum()]),
            alignment.n_samples,
        )[0]
    )


def r_squared_pairs(
    alignment: SNPAlignment,
    i: np.ndarray,
    j: np.ndarray,
    *,
    strict: bool = False,
) -> np.ndarray:
    """r² for arbitrary arrays of site-index pairs.

    The co-occurrence counts come from one batched einsum over the gathered
    columns, so cost is O(pairs * samples) with a single pass over memory.
    """
    i = np.asarray(i, dtype=np.intp)
    j = np.asarray(j, dtype=np.intp)
    if i.shape != j.shape:
        raise LDError(f"index shapes differ: {i.shape} vs {j.shape}")
    if i.size == 0:
        return np.zeros(i.shape)
    hi = alignment.n_sites
    if i.min() < 0 or j.min() < 0 or i.max() >= hi or j.max() >= hi:
        raise LDError(f"site index out of range for {hi} sites")
    # Gather the requested columns first, then convert — never a
    # full-matrix float64 temporary for a handful of pairs.
    a = alignment.matrix[:, i].astype(np.float64)
    b = alignment.matrix[:, j].astype(np.float64)
    n11 = np.einsum("sk,sk->k", a, b)
    counts = alignment.derived_counts()
    return r_squared_from_counts(
        n11, counts[i], counts[j], alignment.n_samples, strict=strict
    )

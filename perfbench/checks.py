"""Correctness oracles for scan reports.

Sampled positions are re-scored from r² computed directly from the
genotype matrix (not through the program's LD layer): every border
combination is scored from independent 2-D prefix sums, the maximum must
match the reported ω, and the reported window is re-scored once more by
the program's explicit-summation oracle ``omega_brute_force``.
"""

from __future__ import annotations

import os

import numpy as np

#: Relative tolerance between independently summed ω values; the sums
#: differ only in float64 rounding order.
RTOL = 1e-9


def shm_left_by(pid: int) -> set:
    """Shared-memory segments still named after process ``pid``: the
    program names each segment ``repro-shm-<creator pid>-<token>``."""
    prefix = f"repro-shm-{pid}-"
    try:
        return {e for e in os.listdir("/dev/shm") if e.startswith(prefix)}
    except OSError:
        return set()


def direct_r2(matrix: np.ndarray) -> np.ndarray:
    """Pearson r² between all columns of a 0/1 (samples x sites) matrix."""
    x = matrix.astype(np.float64)
    n = x.shape[0]
    p = x.mean(axis=0)
    cov = (x.T @ x) / n - np.outer(p, p)
    var = p * (1.0 - p)
    denom = np.outer(var, var)
    with np.errstate(divide="ignore", invalid="ignore"):
        r2 = np.where(denom > 0, cov * cov / denom, 0.0)
    return r2


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= RTOL * max(abs(a), abs(b), 1e-300)


def check_position(matrix, site_positions, plan, result, k, eps) -> str:
    """Empty string when grid position ``k`` of ``result`` agrees with the
    oracle, else a description of the first disagreement."""
    from repro.core.omega import omega_brute_force, omega_from_sums

    lo, hi = plan.region_start, plan.region_stop
    li = plan.left_borders - lo
    rj = plan.right_borders - lo
    c = plan.split_index - lo
    if int(result.n_evaluations[k]) != li.size * rj.size:
        return (
            f"position {k}: {int(result.n_evaluations[k])} evaluations, "
            f"expected {li.size * rj.size}"
        )
    if li.size == 0 or rj.size == 0:
        return "" if result.omegas[k] == 0.0 else f"position {k}: ω != 0"
    r2 = direct_r2(matrix[:, lo : hi + 1])
    lower = np.tril(r2, -1)
    pre = np.zeros((r2.shape[0] + 1, r2.shape[0] + 1))
    pre[1:, 1:] = lower.cumsum(axis=0).cumsum(axis=1)

    def rect(r0, r1, c0, c1):  # Σ lower[r0..r1, c0..c1], inclusive
        return pre[r1 + 1, c1 + 1] - pre[r0, c1 + 1] - pre[r1 + 1, c0] + pre[
            r0, c0
        ]

    sum_l = rect(li, c, li, c)
    sum_r = rect(c + 1, rj, c + 1, rj)
    sum_lr = rect(c + 1, rj[:, None], li[None, :], c)
    scores = omega_from_sums(
        sum_l[None, :], sum_r[:, None], sum_lr,
        (c - li + 1)[None, :], (rj - c)[:, None], eps=eps,
    )
    omega = float(result.omegas[k])
    if not _close(float(scores.max()), omega):
        return f"position {k}: ω {omega!r}, oracle max {float(scores.max())!r}"
    a = int(np.searchsorted(site_positions, result.left_borders_bp[k])) - lo
    b = int(np.searchsorted(site_positions, result.right_borders_bp[k])) - lo
    brute = omega_brute_force(r2, a, c, b, eps=eps)
    if not _close(brute, omega):
        return f"position {k}: ω {omega!r}, brute force {brute!r}"
    return ""


def check_sampled(matrix, site_positions, plans, result, eps, rng, n=6):
    """Oracle-check ``n`` randomly chosen evaluated positions; returns the
    list of disagreements (empty when all agree)."""
    evaluated = np.flatnonzero(result.n_evaluations > 0)
    if evaluated.size == 0:
        return ["no position was evaluated"]
    picks = rng.choice(evaluated, size=min(n, evaluated.size), replace=False)
    errors = []
    for k in sorted(int(x) for x in picks):
        msg = check_position(matrix, site_positions, plans[k], result, k, eps)
        if msg:
            errors.append(msg)
    return errors



def omega_drift(a, b):
    """``(positions whose ω bytes differ, largest relative difference)``
    between two reports of the same grid."""
    differ = a.omegas.view(np.uint64) != b.omegas.view(np.uint64)
    with np.errstate(divide="ignore", invalid="ignore"):
        rel = np.abs(a.omegas - b.omegas) / np.abs(b.omegas)
    worst = float(np.nanmax(rel[differ])) if differ.any() else 0.0
    return int(np.count_nonzero(differ)), worst

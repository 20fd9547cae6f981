"""Host-side ω throughput: what this machine's NumPy scanner actually
sustains, next to the paper's CPU rates.

The in-place all-splits evaluation (one reused workspace, as a scan runs
it) is measured at two window sizes, after checking it bit for bit
against :func:`~repro.core.omega.omega_split_matrix` — the measured
counterpart of the flat per-score cost the CPU model
assumes (and a check that our vectorization is in a sane relation to the
paper's single-core C code: one NumPy-driven core on 2020s hardware
should land within an order of magnitude of 60-100 Mscores/s).
"""

import numpy as np

from repro.core.dp import SumMatrix
from repro.core.omega import (
    OmegaWorkspace,
    omega_max_at_split,
    omega_split_matrix,
)
from repro.datasets.generators import random_alignment
from repro.ld.gemm import r_squared_matrix


def _setup(n_sites):
    aln = random_alignment(40, n_sites, seed=51)
    sums = SumMatrix(r_squared_matrix(aln))
    c = n_sites // 2
    li = np.arange(0, c - 1)
    rj = np.arange(c + 2, n_sites)
    return sums, li, c, rj


def _assert_bitwise(sums, li, c, rj, workspace):
    """The timed in-place path must equal omega_split_matrix + argmax
    bit for bit (score, both borders, evaluation count)."""
    got = omega_max_at_split(sums, li, c, rj, workspace=workspace)
    scores = omega_split_matrix(sums, li, c, rj)
    jj, ii = np.unravel_index(int(np.argmax(scores)), scores.shape)
    assert np.float64(got.omega).tobytes() == scores[jj, ii].tobytes()
    assert (got.left_border, got.right_border, got.n_evaluations) == (
        int(li[ii]), int(rj[jj]), scores.size
    )


def test_omega_small_window(benchmark, report):
    sums, li, c, rj = _setup(200)
    n = li.size * rj.size
    ws = OmegaWorkspace()
    _assert_bitwise(sums, li, c, rj, ws)
    benchmark(lambda: omega_max_at_split(sums, li, c, rj, workspace=ws))
    rate = n / benchmark.stats["mean"]
    report(
        "host omega throughput: ~10k evaluations/position",
        f"{rate / 1e6:.1f} Mscores/s (paper CPU core: 60-100 M/s)",
    )


def test_omega_large_window(benchmark, report):
    sums, li, c, rj = _setup(1200)
    n = li.size * rj.size
    ws = OmegaWorkspace()
    _assert_bitwise(sums, li, c, rj, ws)
    benchmark(lambda: omega_max_at_split(sums, li, c, rj, workspace=ws))
    rate = n / benchmark.stats["mean"]
    report(
        "host omega throughput: ~360k evaluations/position",
        f"{rate / 1e6:.1f} Mscores/s",
    )
    assert rate > 1e6  # sanity floor


def test_dp_matrix_construction(benchmark, report):
    aln = random_alignment(40, 1000, seed=52)
    r2 = r_squared_matrix(aln)
    benchmark(lambda: SumMatrix(r2))
    report(
        "host SumMatrix construction (1000-SNP region)",
        f"{benchmark.stats['mean'] * 1e3:.2f} ms per region "
        f"(O(W^2) prefix sums; amortized across all window sums at the "
        f"position)",
    )

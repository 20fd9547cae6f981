"""Host-side LD throughput: the three interchangeable r² implementations
measured for real on this machine (GEMM / packed popcount / tiled).

Not a paper artefact per se, but the measured counterpart of the LD cost
laws every model builds on — EXPERIMENTS.md quotes these numbers when
discussing what "one CPU core" means on modern hardware vs the paper's
2013-era laptop parts.
"""

import time

import numpy as np

from repro.datasets.generators import random_alignment
from repro.datasets.packed import PackedAlignment
from repro.ld.correlation import r_squared_from_counts
from repro.ld.gemm import r_squared_matrix
from repro.ld.operands import LDBackendFiller, LDOperands
from repro.ld.packed_kernels import r_squared_matrix_packed
from repro.ld.tiled import TiledLDEngine

N_SAMPLES, N_SITES = 200, 600

#: Region-cache fill shapes at the balanced regime's sample count: one
#: thin forward fringe per grid position (rows x columns) as the cache
#: filled before it filled ahead, and one fill-ahead slab.
FILL_SAMPLES = 2800
FRINGE_SHAPE = (5, 356)
SLAB_SHAPE = (64, 420)


def _pairs():
    return N_SITES * N_SITES


def test_ld_gemm(benchmark, report):
    aln = random_alignment(N_SAMPLES, N_SITES, seed=41)
    result = benchmark(lambda: r_squared_matrix(aln))
    rate = _pairs() / benchmark.stats["mean"]
    report(
        "host LD throughput: GEMM backend",
        f"{rate / 1e6:.1f} Mscores/s at {N_SAMPLES} samples "
        f"(paper CPU law at this sample count: "
        f"{1e-6 / (5.2e-8 + 3.98e-11 * N_SAMPLES):.1f} M/s)",
    )
    assert result.shape == (N_SITES, N_SITES)


def test_ld_packed(benchmark, report):
    aln = random_alignment(N_SAMPLES, N_SITES, seed=41)
    packed = PackedAlignment.from_alignment(aln)
    result = benchmark(lambda: r_squared_matrix_packed(packed, block=256))
    rate = _pairs() / benchmark.stats["mean"]
    report(
        "host LD throughput: packed popcount backend",
        f"{rate / 1e6:.1f} Mscores/s at {N_SAMPLES} samples",
    )
    assert result.shape == (N_SITES, N_SITES)


def test_ld_tiled_window_sums(benchmark, report):
    aln = random_alignment(N_SAMPLES, N_SITES, seed=41)
    engine = TiledLDEngine(aln, tile=128)

    def run():
        return engine.reduce_sum(
            slice(0, N_SITES), slice(0, N_SITES), distinct_pairs=True
        )

    total = benchmark(run)
    report(
        "host LD throughput: tiled window-sum (quickLD-style)",
        f"sum over {N_SITES * (N_SITES - 1) // 2} pairs = {total:.1f}",
    )
    assert total > 0


def test_backends_agree(benchmark, report):
    aln = random_alignment(N_SAMPLES, 200, seed=42)
    packed = PackedAlignment.from_alignment(aln)

    def run():
        return (
            r_squared_matrix(aln),
            r_squared_matrix_packed(packed, block=128),
        )

    gemm, pk = benchmark.pedantic(run, rounds=1, iterations=1)
    diff = float(np.abs(gemm - pk).max())
    report(
        "host LD backends cross-validation",
        f"max |gemm - packed| = {diff:.2e}",
    )
    assert diff < 1e-12


def _best_of(fn, repeats: int = 5) -> float:
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def test_region_fill_shapes(benchmark, report):
    """ns per r² entry of the two region-cache fill shapes: 5 x 356
    fringes over a float64 plane with the broadcast r² tail, and
    64 x 420 slabs over the float32 plane with the tail written into a
    buffer. Both must give the same bytes. Run with
    ``OPENBLAS_NUM_THREADS=1`` for single-core figures."""
    fr, fc = FRINGE_SHAPE
    sr, sc = SLAB_SHAPE
    aln = random_alignment(FILL_SAMPLES, sc, seed=43)
    counts = aln.derived_counts()
    a64 = aln.matrix.astype(np.float64)

    def fringe(r0):
        n11 = a64[:, r0 : r0 + fr].T @ a64[:, :fc]
        return r_squared_from_counts(
            n11,
            np.broadcast_to(counts[r0 : r0 + fr, None], n11.shape),
            np.broadcast_to(counts[None, :fc], n11.shape),
            FILL_SAMPLES,
        )

    ops = LDOperands(aln)
    assert ops.gemm_plane().dtype == np.float32
    filler = LDBackendFiller(ops, "gemm")
    buf = np.empty((sc, sc))

    def slabs():
        for r0 in range(0, sc, sr):
            r1 = min(r0 + sr, sc)
            filler(slice(r0, r1), slice(0, sc), out=buf[r0:r1])

    fringe_rows = range(0, sc - fr + 1, fr)
    ref = np.vstack([fringe(r0) for r0 in fringe_rows])
    benchmark.pedantic(slabs, rounds=1, iterations=1)
    assert buf[: ref.shape[0], :fc].tobytes() == ref.tobytes()

    t_fringe = _best_of(lambda: [fringe(r0) for r0 in fringe_rows])
    t_slab = _best_of(slabs)
    ns_fringe = t_fringe / (len(fringe_rows) * fr * fc) * 1e9
    ns_slab = t_slab / (sc * sc) * 1e9
    report(
        "region-cache fill shapes (r2 ns per entry)",
        f"{FILL_SAMPLES} samples: {fr}x{fc} float64 fringes "
        f"{ns_fringe:.0f} ns/entry, {sr}x{sc} float32 slabs "
        f"{ns_slab:.0f} ns/entry ({ns_fringe / ns_slab:.1f}x); "
        f"bitwise identical",
    )
    assert ns_fringe > 0 and ns_slab > 0

"""Workload definitions and seeded input generation.

Each workload fixes an input shape and a scan geometry; the seed only
changes genotype values and SNP positions, never the shape, so every
seed loads the same layers by the same amounts (see README.md for why
each workload exists). This module imports numpy only: the benchmark
writes the inputs before any process imports the program.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

#: Every input spans this many bp; SNP positions are distinct integers.
LENGTH_BP = 10_000_000
#: Inputs and span dumps, relative to the checkout root.
WORK_DIR = ".bench_work"


@dataclass(frozen=True)
class Workload:
    name: str
    n_samples: int
    n_sites: int
    #: SNPs per side of a grid position (sets the bp max window).
    snps_per_side: int
    n_positions: int
    #: "memory" (sequential in-memory), "parallel" (ParallelScanSession)
    #: or "stream" (ms file on disk, StreamingAlignmentReader).
    mode: str
    n_workers: int = 1
    #: Share of the chromosome's SNPs resident per streamed chunk.
    budget_fraction: float = 0.0
    #: Table III row this regime corresponds to (None: no paper row).
    paper_row: str | None = None

    @property
    def max_window(self) -> float:
        return LENGTH_BP * self.snps_per_side / self.n_sites

    @property
    def snp_budget(self) -> int:
        return int(self.n_sites * self.budget_fraction)


WORKLOADS = {
    w.name: w
    for w in (
        Workload("balanced", 2800, 1560, 174, 400, "memory",
                 paper_row="balanced"),
        Workload("high_omega", 125, 1000, 333, 250, "memory",
                 paper_row="high_omega"),
        Workload("high_ld", 30000, 1400, 106, 500, "parallel",
                 n_workers=2, paper_row="high_ld"),
        Workload("stream", 200, 16_000, 30, 1600, "stream",
                 budget_fraction=0.02),
    )
}


def make_alignment(w: Workload, seed: int):
    """Seeded (matrix, positions) with haplotype-block LD structure.

    Samples copy one of a few founder haplotypes per block of sites and
    carry sparse mutations, so r² spans the whole [0, 1] range instead of
    the near-zero values independent columns would give. Every site is
    polymorphic.
    """
    rng = np.random.default_rng(seed)
    n, m = w.n_samples, w.n_sites
    n_founders, block = 8, 40
    freq = rng.uniform(0.05, 0.5, size=m)
    founders = (rng.random((n_founders, m)) < freq).astype(np.uint8)
    n_blocks = (m + block - 1) // block
    pick = rng.integers(0, n_founders, size=(n, n_blocks), dtype=np.uint8)
    matrix = np.empty((n, m), dtype=np.uint8)
    for b in range(n_blocks):
        lo, hi = b * block, min(m, (b + 1) * block)
        matrix[:, lo:hi] = founders[pick[:, b], lo:hi]
    flips = rng.random((n, m)) < 0.01
    matrix ^= flips.astype(np.uint8)
    col = matrix.sum(axis=0)
    matrix[0, col == 0] = 1
    matrix[0, col == n] = 0
    positions = np.sort(
        rng.choice(np.arange(1, LENGTH_BP, dtype=np.int64), size=m,
                   replace=False)
    ).astype(np.float64)
    return matrix, positions


def write_inputs(w: Workload, seed: int, directory: str) -> str:
    """Write the workload's input under ``directory``; returns its path.

    In-memory workloads get an ``.npz`` the driver loads; ``stream`` gets
    an ms file whose relative positions are exact in seven decimals.
    """
    os.makedirs(directory, exist_ok=True)
    matrix, positions = make_alignment(w, seed)
    if w.mode != "stream":
        path = os.path.join(directory, f"{w.name}-{seed}.npz")
        np.savez(path, matrix=matrix, positions=positions)
        return path
    path = os.path.join(directory, f"{w.name}-{seed}.ms")
    rel = " ".join(f"{int(p) / LENGTH_BP:.7f}" for p in positions)
    rows = (matrix + ord("0")).astype(np.uint8)
    with open(path, "wb") as fh:
        fh.write(
            f"ms {w.n_samples} 1 -s {w.n_sites}\n{seed}\n\n//\n"
            f"segsites: {w.n_sites}\npositions: {rel}\n".encode("ascii")
        )
        for row in rows:
            fh.write(row.tobytes())
            fh.write(b"\n")
    return path

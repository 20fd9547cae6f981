"""Host ceilings and fingerprint, measured in the run that uses them."""

from __future__ import annotations

import os
import platform
import time

import numpy as np


def llc_bytes() -> int:
    """Size of the largest CPU cache sysfs reports (0 when unknown)."""
    base = "/sys/devices/system/cpu/cpu0/cache"
    best = 0
    try:
        entries = os.listdir(base)
    except OSError:
        return 0
    for entry in entries:
        try:
            with open(os.path.join(base, entry, "size")) as fh:
                text = fh.read().strip()
        except OSError:
            continue
        scale = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}.get(text[-1:], 1)
        digits = text.rstrip("KMG")
        if digits.isdigit():
            best = max(best, int(digits) * scale)
    return best


def _best_rate(fn, work: float, budget_s: float = 0.4, min_reps: int = 3):
    """Highest ``work / seconds`` over repeated calls of ``fn``."""
    best = 0.0
    reps = 0
    t_end = time.perf_counter() + budget_s
    while reps < min_reps or time.perf_counter() < t_end:
        t0 = time.perf_counter()
        fn()
        dt = time.perf_counter() - t0
        best = max(best, work / dt)
        reps += 1
    return best


def gemm_gflops(n_samples: int, rows: int, cols: int) -> float:
    """float64 ``Aᵀ B`` GFLOP/s at one tile-fill shape: ``A`` and ``B``
    are column slices of a (samples x sites) plane, as the LD layer's
    operands are."""
    rng = np.random.default_rng(0)
    plane = (rng.random((n_samples, rows + cols)) < 0.3).astype(np.float64)
    a, b = plane[:, :rows], plane[:, rows:]
    return _best_rate(lambda: a.T @ b, 2.0 * n_samples * rows * cols) / 1e9


def memcpy_gb_s(llc: int):
    """``(GB/s, bytes per array)``: bytes copied per second between two
    arrays of twice the last-level cache each, so the copy's footprint is
    four times the cache. Falls back to 256 MiB arrays when the cache
    size is unknown."""
    nbytes = 2 * llc if llc else 256 << 20
    src = np.ones(nbytes // 8)
    dst = np.empty_like(src)
    np.copyto(dst, src)  # fault both arrays in before timing
    rate = _best_rate(lambda: np.copyto(dst, src), float(nbytes), 0.0, 3)
    return rate / 1e9, nbytes


def fingerprint() -> dict:
    model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    blas = "unknown"
    try:
        deps = np.__config__.CONFIG["Build Dependencies"]["blas"]
        blas = f"{deps.get('name')} {deps.get('version')}"
    except (AttributeError, KeyError, TypeError):
        pass
    return {
        "cpu": model,
        "nproc": os.cpu_count(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
    }

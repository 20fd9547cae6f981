"""The Eq. 4 scan cost model, shared by host scheduling and GPU dispatch.

The paper's dynamic dispatcher (Eq. 4) predicts per-position work from the
number of ω evaluations; the host block scheduler additionally charges the
LD/DP region area (``region_width²``) each position touches. Before this
module both users carried private copies of the formula inline; now one
:class:`ScanCostModel` owns it, is **cached across scans** (module-level,
survives :class:`~repro.core.parallel.ParallelScanSession` teardown), and
is **calibrated** after every parallel scan from the
``scheduler.block_est_cost`` vs ``scheduler.block_seconds`` histograms
that ``repro.obs`` already emits: total observed block seconds over total
estimated cost yields ``seconds_per_unit``, turning the dimensionless
Eq. 4 estimate into a wall-clock prediction the GPU dispatcher and block
scheduler can both consume.

Knobs (see ``docs/OBSERVABILITY.md``):

* ``eval_weight`` — weight of ``n_evaluations`` (ω work).
* ``area_weight`` — weight of ``region_width²`` (LD/DP work).
* ``seconds_per_unit`` — calibrated cost→seconds scale (``None`` until a
  parallel scan has published block timings).
* ``batch_score_threshold`` — positions at or above this many score-grid
  elements bypass host-side batch packing (the per-position vectorized
  path already amortizes dispatch overhead there; packing would only add
  gather traffic). Mirrors the spirit of the device dispatch threshold.
"""

from __future__ import annotations

import threading
from collections import deque
from dataclasses import dataclass, replace
from typing import List, Optional, Sequence

import numpy as np

__all__ = [
    "ScanCostModel",
    "CalibrationPair",
    "calibrate_from",
    "calibrate_ld_crossover",
    "ensure_ld_crossover_calibrated",
    "get_cost_model",
    "set_cost_model",
    "reset_cost_model",
    "record_calibration_pair",
    "calibration_pairs",
    "clear_calibration_pairs",
]

@dataclass(frozen=True)
class CalibrationPair:
    """One archived (estimated, realized) observation.

    ``kind`` tells where the pair came from: ``"block"`` pairs are whole
    scheduler blocks (realized seconds include LD + DP + ω work, so
    ``region_area`` is charged); ``"kernel"`` pairs are single backend
    kernel launches (ω work only — ``region_area`` is 0 and
    ``est_seconds`` comes from the device timing model rather than the
    scan cost model). :meth:`ScanCostModel.fit_weights` uses both: each
    pair is one least-squares row ``realized ≈ a·evals + b·area``.
    """

    n_evaluations: float
    region_area: float
    realized_seconds: float
    est_seconds: Optional[float] = None
    kind: str = "block"
    kernel: str = ""
    backend: str = ""


#: Bounded archive of calibration pairs (process-wide, newest kept).
_PAIR_LOG_CAPACITY = 4096
_pair_log: deque = deque(maxlen=_PAIR_LOG_CAPACITY)
_pair_lock = threading.Lock()


def record_calibration_pair(pair: CalibrationPair) -> None:
    """Append one (estimated, realized) observation to the archive."""
    with _pair_lock:
        _pair_log.append(pair)


def calibration_pairs() -> List[CalibrationPair]:
    """A snapshot of the archived pairs (oldest first)."""
    with _pair_lock:
        return list(_pair_log)


def clear_calibration_pairs() -> None:
    """Drop the archive (tests, or after a deliberate refit)."""
    with _pair_lock:
        _pair_log.clear()


#: Default host batching bypass: ≥ this many packed scores per position
#: and the position is evaluated directly (see ``batch_score_threshold``).
#: Calibrated by microbenchmark: below ~2⁸ scores the per-position path
#: is dominated by fixed numpy-dispatch overhead and packing wins; above
#: it the broadcast (R, L) evaluation needs ~3× fewer memory passes than
#: the flat-arena gather, so batching would regress.
DEFAULT_BATCH_SCORE_THRESHOLD = 1 << 8

#: Default LD tile-fill crossover constants (seconds), measured on a dev
#: box with OpenBLAS and NumPy's bitwise_count. The gemm fill of an
#: (R x C) tile over n samples costs roughly
#: ``g0 + g1 · R·C·n`` and the blocked popcount fill
#: ``p0·w + p1 · R·C·w`` with ``w = ceil(n / 64)`` packed words.
#: :func:`calibrate_ld_crossover` replaces these with constants measured
#: on the running machine at the actual tile shapes.
DEFAULT_LD_GEMM_TILE_OVERHEAD_SECONDS = 5e-6
DEFAULT_LD_GEMM_CELL_SAMPLE_SECONDS = 5e-11
DEFAULT_LD_PACKED_WORD_PASS_SECONDS = 1.5e-6
DEFAULT_LD_PACKED_CELL_WORD_SECONDS = 2.1e-9


@dataclass(frozen=True)
class ScanCostModel:
    """Eq. 4-style position cost estimate plus calibration state."""

    eval_weight: float = 1.0
    area_weight: float = 1.0
    seconds_per_unit: Optional[float] = None
    calibration_blocks: int = 0
    #: Accumulated calibration evidence behind ``seconds_per_unit``: the
    #: running totals of estimated cost and measured block seconds across
    #: every scan folded in so far. ``seconds_per_unit`` is always their
    #: ratio, so ``calibration_blocks`` genuinely describes the fit and a
    #: single small scan moves the model in proportion to its weight.
    est_cost_sum: float = 0.0
    seconds_sum: float = 0.0
    batch_score_threshold: int = DEFAULT_BATCH_SCORE_THRESHOLD
    #: LD tile-fill crossover constants (the ``backend="auto"`` pick; see
    #: the DEFAULT_LD_* module constants for the model and units).
    ld_gemm_tile_overhead_seconds: float = DEFAULT_LD_GEMM_TILE_OVERHEAD_SECONDS
    ld_gemm_cell_sample_seconds: float = DEFAULT_LD_GEMM_CELL_SAMPLE_SECONDS
    ld_packed_word_pass_seconds: float = DEFAULT_LD_PACKED_WORD_PASS_SECONDS
    ld_packed_cell_word_seconds: float = DEFAULT_LD_PACKED_CELL_WORD_SECONDS
    #: Sample count the LD constants were last microbenchmarked at; 0
    #: means the shipped defaults are still in place.
    ld_calibration_samples: int = 0

    # ------------------------------------------------------------------ #
    # estimation

    def position_cost(self, n_evaluations: int, region_width: int) -> float:
        """Dimensionless cost of one grid position."""
        return (
            self.eval_weight * float(n_evaluations)
            + self.area_weight * float(region_width) ** 2
        )

    def position_costs(self, plans: Sequence) -> np.ndarray:
        """Vectorized :meth:`position_cost` over ``PositionPlan``-likes."""
        if len(plans) == 0:
            return np.zeros(0, dtype=np.float64)
        evals = np.array(
            [p.n_evaluations for p in plans], dtype=np.float64
        )
        widths = np.array(
            [p.region_width for p in plans], dtype=np.float64
        )
        return self.eval_weight * evals + self.area_weight * widths**2

    def estimate_seconds(self, cost: float) -> Optional[float]:
        """Wall-clock prediction for a cost estimate, once calibrated."""
        if self.seconds_per_unit is None:
            return None
        return float(cost) * self.seconds_per_unit

    # ------------------------------------------------------------------ #
    # LD backend crossover (the backend="auto" tile pick)

    def ld_tile_seconds(
        self, backend: str, n_rows: int, n_cols: int, n_samples: int
    ) -> float:
        """Predicted wall time of filling one (n_rows x n_cols) r² tile.

        ``backend`` is ``"gemm"`` (BLAS over 0/1 columns, cost linear
        in cells x samples) or ``"packed"`` (blocked popcount, cost linear
        in cells x words plus a fixed per-word-pass overhead).
        """
        cells = float(n_rows) * float(n_cols)
        if backend == "gemm":
            return (
                self.ld_gemm_tile_overhead_seconds
                + self.ld_gemm_cell_sample_seconds * cells * float(n_samples)
            )
        if backend == "packed":
            w = float((int(n_samples) + 63) // 64)
            return (
                self.ld_packed_word_pass_seconds * w
                + self.ld_packed_cell_word_seconds * cells * w
            )
        raise ValueError(f"unknown LD backend {backend!r}")

    def ld_backend_for_tile(
        self, n_rows: int, n_cols: int, n_samples: int
    ) -> str:
        """The cheaper of gemm/packed for one tile shape (ties → gemm,
        the BLAS path with the more predictable constant factors)."""
        gemm = self.ld_tile_seconds("gemm", n_rows, n_cols, n_samples)
        packed = self.ld_tile_seconds("packed", n_rows, n_cols, n_samples)
        return "packed" if packed < gemm else "gemm"

    # ------------------------------------------------------------------ #
    # calibration

    def calibrated(self, metrics_snapshot: dict) -> "ScanCostModel":
        """Refit ``seconds_per_unit`` from a metrics snapshot.

        Reads the ``scheduler.block_est_cost`` / ``scheduler.block_seconds``
        histogram pair (the per-block estimate and measured wall time of
        the dynamic scheduler) and, when present, the
        ``backend.block_est_cost`` / ``backend.block_seconds`` pair (the
        per-launch cost estimate and *realized* execution time of the
        executable kernel backends), folds them into the running
        ``est_cost_sum`` / ``seconds_sum`` totals and refits
        ``seconds_per_unit = Σ seconds / Σ est_cost`` over *all*
        calibration evidence so far — every block ever observed carries
        equal weight, so a short scan nudges the fit rather than
        replacing it. Returns ``self`` unchanged when the snapshot has no
        usable timings, so a metrics-free scan never discards an earlier
        calibration.
        """
        hists = (metrics_snapshot or {}).get("histograms", {})
        est_sum = 0.0
        sec_sum = 0.0
        blocks = 0
        for est_name, sec_name in (
            ("scheduler.block_est_cost", "scheduler.block_seconds"),
            ("backend.block_est_cost", "backend.block_seconds"),
        ):
            est = hists.get(est_name)
            sec = hists.get(sec_name)
            if not est or not sec:
                continue
            e = float(est.get("sum", 0.0))
            s = float(sec.get("sum", 0.0))
            n = int(sec.get("count", 0))
            if e <= 0.0 or s <= 0.0 or n == 0:
                continue
            est_sum += e
            sec_sum += s
            blocks += n
        if est_sum <= 0.0 or sec_sum <= 0.0 or blocks == 0:
            return self
        est_total = self.est_cost_sum + est_sum
        sec_total = self.seconds_sum + sec_sum
        return replace(
            self,
            seconds_per_unit=sec_total / est_total,
            calibration_blocks=self.calibration_blocks + blocks,
            est_cost_sum=est_total,
            seconds_sum=sec_total,
        )

    def fit_weights(
        self, pairs: Optional[Sequence["CalibrationPair"]] = None
    ) -> "ScanCostModel":
        """Least-squares refit of the *relative* ``eval_weight`` vs
        ``area_weight`` from archived (estimated, realized) pairs.

        Solves ``realized_seconds ≈ a·n_evaluations + b·region_area``
        over the given pairs (the process-wide archive by default) and
        returns a model with ``eval_weight = 1`` and
        ``area_weight = b / a`` — the ratio is what ordering and Eq. 4
        dispatch decisions actually consume, so the fit is normalized to
        the evaluation term. ``seconds_per_unit`` and the running
        calibration sums are restated under the new weights (ratio of
        total realized seconds to total refitted cost), keeping
        :meth:`estimate_seconds` consistent with the fit.

        Returns ``self`` unchanged when the evidence cannot support a
        fit: fewer than two usable pairs, a non-finite solution, or a
        non-positive evaluation coefficient.
        """
        if pairs is None:
            pairs = calibration_pairs()
        usable = [
            p
            for p in pairs
            if np.isfinite(p.realized_seconds)
            and p.realized_seconds > 0.0
            and (p.n_evaluations > 0.0 or p.region_area > 0.0)
        ]
        if len(usable) < 2:
            return self
        design = np.array(
            [[p.n_evaluations, p.region_area] for p in usable],
            dtype=np.float64,
        )
        seconds = np.array(
            [p.realized_seconds for p in usable], dtype=np.float64
        )
        coef, *_ = np.linalg.lstsq(design, seconds, rcond=None)
        a, b = float(coef[0]), float(coef[1])
        if not (np.isfinite(a) and np.isfinite(b)) or a <= 0.0:
            return self
        area_w = max(b / a, 0.0)
        units = design[:, 0] + area_w * design[:, 1]
        units_sum = float(units.sum())
        if units_sum <= 0.0:
            return self
        return replace(
            self,
            eval_weight=1.0,
            area_weight=area_w,
            seconds_per_unit=float(seconds.sum()) / units_sum,
            calibration_blocks=len(usable),
            est_cost_sum=units_sum,
            seconds_sum=float(seconds.sum()),
        )


_DEFAULT = ScanCostModel()
_cached: ScanCostModel = _DEFAULT
#: Serializes read-modify-write calibration folds: the scan service runs
#: concurrent requests on threads, and two interleaved ``calibrated``
#: folds from the same base model would silently drop one scan's
#: evidence from the running sums.
_calibrate_lock = threading.Lock()


def get_cost_model() -> ScanCostModel:
    """The process-wide cost model (calibrations persist across scans)."""
    return _cached


def set_cost_model(model: ScanCostModel) -> None:
    """Publish a (possibly recalibrated) model for subsequent scans."""
    global _cached
    _cached = model


def calibrate_from(metrics_snapshot: dict) -> ScanCostModel:
    """Fold one scan's block timings into the process-wide model.

    Atomic get→:meth:`ScanCostModel.calibrated`→set, so concurrent scans
    (the service's request threads) each contribute their evidence to the
    running sums exactly once. Returns the published model.
    """
    global _cached
    with _calibrate_lock:
        _cached = _cached.calibrated(metrics_snapshot)
        return _cached


def reset_cost_model() -> None:
    """Restore the uncalibrated default and drop the pair archive
    (tests)."""
    global _cached
    with _calibrate_lock:
        _cached = _DEFAULT
    clear_calibration_pairs()


# ---------------------------------------------------------------------- #
# LD crossover microbenchmark


def _best_of(fn, repeats: int) -> float:
    import time

    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def calibrate_ld_crossover(
    n_samples: int,
    *,
    tiles: tuple = (128, 512),
    repeats: int = 3,
    publish: bool = True,
) -> ScanCostModel:
    """Measure the LD backend crossover constants on this machine.

    Times the raw co-occurrence primitives of both formulations (a GEMM
    over the operand dtype the filler uses at ``n_samples``,
    :func:`~repro.ld.gemm.gemm_dtype`, and the blocked popcount — the
    shared r² tail costs the same either way, so it cancels out of the
    pick) on
    synthetic operands at two tile sizes, then solves each backend's
    two-parameter linear cost model exactly from the two points. The
    whole microbenchmark is a few milliseconds; with ``publish=True``
    (default) the refitted model is installed process-wide under the
    calibration lock.
    """
    global _cached
    from repro.ld.gemm import gemm_dtype
    from repro.ld.packed_kernels import cooccurrence_block_packed

    n = max(1, int(n_samples))
    t_small, t_big = sorted(int(t) for t in tiles)
    if t_small == t_big or t_small < 1:
        raise ValueError(f"tiles must be two distinct sizes >= 1, got {tiles}")
    w = (n + 63) // 64
    rng = np.random.default_rng(0xC0DE)
    # Operands are shaped exactly like production serves them: the gemm
    # rows/cols are *strided* column views into a wider (n, sites) plane
    # (BLAS packs strided panels differently from contiguous ones — a
    # contiguous microbenchmark is systematically gemm-optimistic) and
    # the packed rows/cols are contiguous row slices of a (sites, w)
    # word plane, with rows != cols as in an off-diagonal tile.
    a = rng.integers(0, 2, size=(n, 2 * t_big)).astype(gemm_dtype(n))
    words = rng.integers(
        0, np.iinfo(np.uint64).max, size=(2 * t_big, w), dtype=np.uint64
    )

    def gemm_fill(t: int) -> float:
        rows, cols = a[:, :t], a[:, t_big:t_big + t]
        return _best_of(lambda: rows.T @ cols, repeats)

    def packed_fill(t: int) -> float:
        rows, cols = words[:t], words[t_big:t_big + t]
        return _best_of(lambda: cooccurrence_block_packed(rows, cols), repeats)

    eps = 1e-12
    c_small = float(t_small) ** 2
    c_big = float(t_big) ** 2
    dc = c_big - c_small

    g_small, g_big = gemm_fill(t_small), gemm_fill(t_big)
    g1 = max((g_big - g_small) / (dc * n), eps)
    g0 = max(g_small - g1 * c_small * n, eps)

    p_small, p_big = packed_fill(t_small), packed_fill(t_big)
    p1 = max((p_big - p_small) / (dc * w), eps)
    p0 = max((p_small - p1 * c_small * w) / w, eps)

    with _calibrate_lock:
        model = replace(
            _cached,
            ld_gemm_tile_overhead_seconds=g0,
            ld_gemm_cell_sample_seconds=g1,
            ld_packed_word_pass_seconds=p0,
            ld_packed_cell_word_seconds=p1,
            ld_calibration_samples=n,
        )
        if publish:
            _cached = model
    return model


def ensure_ld_crossover_calibrated(
    n_samples: int, *, tiles: tuple = (128, 512), repeats: int = 3
) -> ScanCostModel:
    """Calibrate the LD crossover constants unless the cached model was
    already measured at a comparable sample count (within 2x), in which
    case the existing constants are kept — calibration is cheap but not
    free, and repeated scans over the same cohort shape should not pay it
    per scan."""
    model = get_cost_model()
    done = model.ld_calibration_samples
    n = max(1, int(n_samples))
    if done > 0 and done / 2 <= n <= done * 2:
        return model
    return calibrate_ld_crossover(n, tiles=tiles, repeats=repeats)

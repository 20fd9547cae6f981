"""Zero-copy shared-memory multiprocess genome scan.

The paper's multicore baseline (Table IV) is OmegaPlus-generic [31]:
pthreads that *share* one alignment and one LD workspace and partition the
grid positions. Python threads cannot parallelize this CPU-bound
NumPy-plus-control-flow loop under the GIL, so processes stand in for
pthreads — but the original process model here shipped a pickled copy of
the full SNP matrix to every worker and carved the grid into one static
contiguous chunk per worker, which capped the reproducible speedup three
ways: per-task serialization, per-worker cache warmup, and load imbalance
(per-position ω work varies by orders of magnitude — the very skew the
paper's Eq. 4 dispatch threshold exists for).

The current architecture mirrors the pthread model instead:

* **Shared segments** — the SNP matrix and positions live in POSIX shared
  memory (:class:`~repro.datasets.alignment.SharedAlignmentSegments`),
  created once by the parent; a persistent worker pool attaches zero-copy
  by segment name. Per-task payloads are a block's grid positions plus
  the segment names — never the alignment.
* **Shared r² tile store** — fresh r² entries are computed once
  process-wide into a shared tile band
  (:class:`~repro.core.tilestore.SharedR2TileStore`) and served to every
  worker, recovering the region-overlap reuse that scheduling boundaries
  would otherwise lose. For the packed/auto LD backends the store also
  publishes the bit-packed word plane as a shared segment
  (:class:`~repro.datasets.packed.SharedPackedWords`), so workers attach
  it zero-copy instead of re-packing the alignment per process, and the
  ``auto`` crossover constants are calibrated in the parent pre-fork so
  every worker inherits them.
* **Dynamic block scheduling** — the grid is cut into many small
  contiguous blocks (contiguity preserves the within-block r²/DP reuse),
  which workers pull from the pool's shared task queue as they free up; a
  cost model (estimated ω evaluations plus region area per position, the
  Eq. 4 accounting) orders blocks largest-first so stragglers start
  early.
* **Observability** — per-worker phase breakdowns, DP sub-timings and
  :class:`~repro.core.reuse.ReuseStats` merge through the result; the
  merged breakdown's phase totals remain *summed worker CPU seconds*,
  while its ``wall_seconds`` field records true elapsed time (see
  :class:`~repro.utils.timing.TimeBreakdown`).
"""

from __future__ import annotations

import dataclasses
import math
import multiprocessing as mp
import time
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

import repro.obs as obs
from repro.core.costmodel import (
    CalibrationPair,
    calibrate_from,
    get_cost_model,
    record_calibration_pair,
)
from repro.core.grid import (
    GridSpec,
    build_plans,
    build_plans_from_positions,
    fixed_position_spec,
)
from repro.core.results import ScanResult, merge_scan_results
from repro.core.scan import OmegaConfig, OmegaPlusScanner
from repro.core.tilestore import SharedR2TileStore, TileStoreSpec
from repro.datasets.alignment import (
    SharedAlignmentSegments,
    SharedAlignmentSpec,
    SNPAlignment,
)
from repro.datasets.streaming import AlignmentStreamSource
from repro.errors import ScanConfigError
from repro.utils.timing import TimeBreakdown

__all__ = [
    "ParallelScanSession",
    "StreamingScanSession",
    "fixed_position_spec",
    "make_blocks",
    "parallel_scan",
    "plans_for_positions",
]

#: Target number of scheduling blocks per worker. More blocks balance the
#: load better (a worker stuck on high-evaluation positions strands at
#: most one block); fewer blocks preserve more within-block reuse. Four
#: per worker keeps the straggler tail under ~25 % of one worker's share
#: while blocks stay tens of positions long on realistic grids.
BLOCKS_PER_WORKER = 4


def make_blocks(
    n_positions: int,
    n_workers: int,
    *,
    block_size: Optional[int] = None,
) -> List[Tuple[int, int]]:
    """Cut ``n_positions`` into contiguous [start, stop) scheduling blocks.

    The default block size targets :data:`BLOCKS_PER_WORKER` blocks per
    worker; pass ``block_size`` to override. Blocks are never empty.
    """
    if n_positions < 1:
        raise ScanConfigError(f"n_positions must be >= 1, got {n_positions}")
    if n_workers < 1:
        raise ScanConfigError(f"n_workers must be >= 1, got {n_workers}")
    if block_size is None:
        block_size = max(
            1, math.ceil(n_positions / (BLOCKS_PER_WORKER * n_workers))
        )
    if block_size < 1:
        raise ScanConfigError(f"block_size must be >= 1, got {block_size}")
    return [
        (lo, min(lo + block_size, n_positions))
        for lo in range(0, n_positions, block_size)
    ]


def plans_for_positions(
    site_positions: np.ndarray, grid_positions: np.ndarray, spec: GridSpec
):
    """Per-position evaluation plans for an explicit grid-position array
    (the admission controller prices requests from these)."""
    return build_plans_from_positions(
        site_positions, fixed_position_spec(spec, grid_positions)
    )


def _unscanned_result(grid_positions: np.ndarray) -> ScanResult:
    """Report for grid positions with no sites to scan: ω = 0 and NaN
    borders, as the sequential scanner reports SNP deserts."""
    size = grid_positions.size
    return ScanResult(
        positions=grid_positions.copy(),
        omegas=np.zeros(size),
        left_borders_bp=np.full(size, np.nan),
        right_borders_bp=np.full(size, np.nan),
        n_evaluations=np.zeros(size, dtype=np.int64),
    )


# ---------------------------------------------------------------------- #
# worker side
# ---------------------------------------------------------------------- #


@dataclass(frozen=True)
class _WorkerSetup:
    """Everything a worker needs up front, shipped once via the pool
    initializer."""

    config: OmegaConfig
    obs_spec: Optional[obs.ObsSpec] = None
    #: Capacity of each worker's private LRU of assembled multi-tile
    #: r² blocks (0 disables). Long-lived service sessions turn this on
    #: so repeated scans of hot regions stop re-memcpying assemblies.
    block_lru_bytes: int = 0
    #: Segments to attach in the initializer, keeping the attach cost out
    #: of the first block (``None`` for streamed pools, whose chunks are
    #: attached as their tasks arrive).
    alignment_spec: Optional[SharedAlignmentSpec] = None
    tile_spec: Optional[TileStoreSpec] = None


@dataclass(frozen=True)
class _BlockTask:
    """One scheduling block: its grid positions and the shared segments to
    scan them against. The specs are a few strings/ints each — the data
    stays in shared memory."""

    idx: int
    grid_block: np.ndarray
    alignment_spec: SharedAlignmentSpec
    tile_spec: Optional[TileStoreSpec] = None
    #: Global plan validity per grid position (streamed scans only): the
    #: attached alignment may be a chunk, and chunk-local planning must
    #: not resurrect positions the global plan skipped.
    valid_mask: Optional[np.ndarray] = None
    span_args: Optional[dict] = None


#: Per-worker-process state. ``setup`` comes from the pool initializer;
#: ``name``/``segments``/``store`` are the currently mapped segments,
#: swapped whenever a task names a different alignment segment. ``error``
#: holds an initializer attach failure, reported by the first task instead
#: of crashing the initializer (which would make the pool respawn workers
#: forever).
_WORKER_STATE: dict = {
    "setup": None,
    "name": None,
    "segments": None,
    "store": None,
    "error": None,
}


def _attach(
    alignment_spec: SharedAlignmentSpec, tile_spec: Optional[TileStoreSpec]
) -> None:
    """Map the named segments, releasing the previously mapped ones."""
    state = _WORKER_STATE
    segments = SharedAlignmentSegments.attach(alignment_spec)
    store = None
    if tile_spec is not None:
        store = SharedR2TileStore.attach(tile_spec, segments.alignment)
        if state["setup"].block_lru_bytes > 0:
            store.enable_block_lru(state["setup"].block_lru_bytes)
    for old in (state["segments"], state["store"]):
        if old is not None:
            old.close()
    state.update(
        name=alignment_spec.matrix_name, segments=segments, store=store
    )


def _init_worker(setup: _WorkerSetup) -> None:
    _WORKER_STATE.update(
        setup=setup, name=None, segments=None, store=None, error=None
    )
    try:
        obs.configure_worker(setup.obs_spec)
        if setup.alignment_spec is not None:
            _attach(setup.alignment_spec, setup.tile_spec)
    except BaseException as exc:  # noqa: BLE001 - reported by first task
        _WORKER_STATE["error"] = exc


def _scan_block(task: _BlockTask) -> Tuple[int, ScanResult]:
    """Worker body: scan one grid block against the task's shared
    alignment (attached here unless already mapped); returns
    ``(block index, block result)``."""
    state = _WORKER_STATE
    if state["error"] is not None:
        raise RuntimeError(
            "shared-memory worker failed to attach its segments"
        ) from state["error"]
    if task.grid_block.size == 0:
        # GridSpec requires n_positions >= 1, so an empty block cannot
        # take the fixed-position spec below; it scans to nothing.
        return task.idx, _unscanned_result(task.grid_block)
    if state["name"] != task.alignment_spec.matrix_name:
        _attach(task.alignment_spec, task.tile_spec)
    segments, store = state["segments"], state["store"]
    config = state["setup"].config
    if store is not None:
        computed0 = store.tile_entries_computed
        reused0 = store.tile_entries_reused
    tr = obs.get_tracer()
    with tr.span("scan_block", "block", args=task.span_args):
        # The sequential scanner, verbatim, over the block's explicit
        # positions; every other config field is forwarded unchanged.
        grid = fixed_position_spec(config.grid, task.grid_block)
        result = OmegaPlusScanner(
            dataclasses.replace(config, grid=grid),
            block_fn=store.block if store is not None else None,
            valid_mask=task.valid_mask,
        ).scan(segments.alignment)
    if store is not None:
        result.reuse.tile_entries_computed += (
            store.tile_entries_computed - computed0
        )
        result.reuse.tile_entries_reused += store.tile_entries_reused - reused0
    tr.flush()
    return task.idx, result


# ---------------------------------------------------------------------- #
# driver side
# ---------------------------------------------------------------------- #


class _SharedPool:
    """A worker pool plus the shared segments it scans; :meth:`close`
    tears both down, so error paths do not orphan ``/dev/shm`` entries."""

    _pool = None
    _segments: Optional[SharedAlignmentSegments] = None
    _store: Optional[SharedR2TileStore] = None

    _n_workers: int
    _mp_context: Optional[str]

    def _fork(self, setup: _WorkerSetup) -> None:
        ctx = (
            mp.get_context(self._mp_context)
            if self._mp_context
            else mp.get_context()
        )
        self._pool = ctx.Pool(
            processes=self._n_workers,
            initializer=_init_worker,
            initargs=(setup,),
        )

    def _block_task(self, idx, grid_block, valid_mask=None, **span_args):
        return _BlockTask(
            idx=idx,
            grid_block=grid_block,
            alignment_spec=self._segments.spec,
            tile_spec=self._store.spec if self._store is not None else None,
            valid_mask=valid_mask,
            span_args={"block": idx, **span_args},
        )

    def _unpublish(self) -> None:
        if self._store is not None:
            self._store.close()
            self._store.unlink()
            self._store = None
        if self._segments is not None:
            self._segments.close()
            self._segments.unlink()
            self._segments = None

    def close(self) -> None:
        """Tear down the pool and remove any shared segments still live."""
        if self._pool is not None:
            self._pool.terminate()
            self._pool.join()
            self._pool = None
        self._unpublish()

    def __enter__(self):
        return self.start()

    def __exit__(self, *exc: object) -> None:
        self.close()


class ParallelScanSession(_SharedPool):
    """Persistent shared-memory scan workers over one alignment.

    Creating a session places the alignment (and the r² tile band) in
    shared memory and forks a worker pool that attaches zero-copy; every
    :meth:`scan` then only moves block descriptors — the block's grid
    positions plus the segment names — through the pool's task queue, so
    repeated scans reuse warm workers *and* the already-computed tiles.
    Use as a context manager (or call :meth:`close`): teardown unlinks the
    segments even on error paths, so failed scans do not orphan
    ``/dev/shm`` entries.
    """

    def __init__(
        self,
        alignment: SNPAlignment,
        config: OmegaConfig,
        *,
        n_workers: int,
        mp_context: Optional[str] = None,
        block_size: Optional[int] = None,
        block_lru_bytes: int = 0,
    ):
        if n_workers < 1:
            raise ScanConfigError(f"n_workers must be >= 1, got {n_workers}")
        self._alignment = alignment
        self._config = config
        self._n_workers = n_workers
        self._mp_context = mp_context
        self._block_size = block_size
        self._block_lru_bytes = block_lru_bytes
        self._grid_positions: Optional[np.ndarray] = None
        self._position_costs: Optional[np.ndarray] = None
        self._position_evals: Optional[np.ndarray] = None
        self._position_areas: Optional[np.ndarray] = None
        self._cost_model = get_cost_model()

    # -------------------------------------------------------------- #

    def start(self) -> "ParallelScanSession":
        """Create the shared segments and the worker pool (idempotent)."""
        if self._pool is not None:
            return self
        alignment, config = self._alignment, self._config
        self._grid_positions = config.grid.positions(alignment)
        plans = build_plans(alignment, config.grid)
        # Eq. 4 per-position cost from the process-wide model: omega work
        # is the evaluation count, LD work scales with the region area.
        # The cached model carries any seconds_per_unit calibration from
        # earlier scans in this process.
        self._cost_model = get_cost_model()
        self._position_costs = self._cost_model.position_costs(plans)
        # Raw per-position workload terms, kept so finished blocks can be
        # archived as (evals, area, realized seconds) calibration pairs
        # for ScanCostModel.fit_weights.
        self._position_evals = np.array(
            [float(p.n_evaluations) for p in plans], dtype=np.float64
        )
        self._position_areas = np.array(
            [float(p.region_width) ** 2 for p in plans], dtype=np.float64
        )
        max_span = max(
            (p.region_width for p in plans if p.valid), default=0
        )
        tr = obs.get_tracer()
        try:
            with tr.span(
                "shm_publish", "shm", args={"sites": int(alignment.n_sites)}
            ):
                self._segments = SharedAlignmentSegments.create(alignment)
                if max_span >= 1:
                    self._store = SharedR2TileStore.create(
                        alignment,
                        max_pair_span=max_span,
                        backend=config.ld_backend,
                    )
            self._fork(
                _WorkerSetup(
                    config=config,
                    obs_spec=obs.current_spec(),
                    block_lru_bytes=self._block_lru_bytes,
                    alignment_spec=self._segments.spec,
                    tile_spec=self._store.spec if self._store else None,
                ),
            )
        except BaseException:
            self.close()
            raise
        return self

    def _sorted_tasks(self, grid_positions, blocks, costs, **span_args):
        """One task per block, largest estimated cost first so stragglers
        start early."""
        tasks = [
            self._block_task(
                idx, grid_positions[lo:hi], lo=lo, hi=hi, **span_args
            )
            for idx, (lo, hi) in enumerate(blocks)
        ]
        tasks.sort(key=lambda t: -float(costs[slice(*blocks[t.idx])].sum()))
        return tasks

    def scan(self) -> ScanResult:
        """Run one full scan; the report matches the sequential scanner."""
        self.start()
        t_wall = time.perf_counter()
        assert self._grid_positions is not None
        assert self._position_costs is not None
        blocks = make_blocks(
            self._grid_positions.size,
            self._n_workers,
            block_size=self._block_size,
        )
        costs = self._position_costs
        tasks = self._sorted_tasks(self._grid_positions, blocks, costs)
        tr = obs.get_tracer()
        with obs.scoped_metrics() as registry:
            blocks_c = registry.counter("scheduler.blocks_dispatched")
            depth_g = registry.gauge("scheduler.queue_depth")
            secs_h = registry.histogram("scheduler.block_seconds")
            est_h = registry.histogram("scheduler.block_est_cost")
            with tr.span(
                "dispatch", "scheduler", args={"blocks": len(tasks)}
            ):
                blocks_c.inc(len(tasks))
                for task in tasks:
                    lo, hi = blocks[task.idx]
                    est_h.observe(float(costs[lo:hi].sum()))
                pending = len(tasks)
                depth_g.set(pending)
                parts = {}
                live = obs.live_slot()
                for idx, part in self._pool.imap_unordered(
                    _scan_block, tasks, chunksize=1
                ):
                    parts[idx] = part
                    pending -= 1
                    depth_g.set(pending)
                    secs_h.observe(part.breakdown.wall_seconds)
                    # Archive the block as a least-squares row for
                    # ScanCostModel.fit_weights (evals vs area split).
                    lo, hi = blocks[idx]
                    if live is not None:
                        live.add_progress(hi - lo, float(costs[lo:hi].sum()))
                    record_calibration_pair(
                        CalibrationPair(
                            n_evaluations=float(
                                self._position_evals[lo:hi].sum()
                            ),
                            region_area=float(
                                self._position_areas[lo:hi].sum()
                            ),
                            realized_seconds=float(
                                part.breakdown.wall_seconds
                            ),
                            est_seconds=self._cost_model.estimate_seconds(
                                float(costs[lo:hi].sum())
                            ),
                            kind="block",
                        )
                    )
            # Fold this scan's estimate-vs-measured block timings into
            # the process-wide model (running-sum refit, atomic under the
            # calibration lock), so the next scan (and the GPU
            # dispatcher) predict wall-clock from the same constants.
            self._cost_model = calibrate_from(registry.snapshot())
            if self._cost_model.seconds_per_unit is not None:
                registry.gauge("scheduler.cost_seconds_per_unit").set(
                    self._cost_model.seconds_per_unit
                )
                registry.gauge("scheduler.cost_calibration_blocks").set(
                    self._cost_model.calibration_blocks
                )
            sched_snap = registry.snapshot()
        result = merge_scan_results([parts[i] for i in range(len(blocks))])
        result.metrics = obs.merge_snapshots(result.metrics, sched_snap)
        result.breakdown.wall_seconds = time.perf_counter() - t_wall
        return result

    # -------------------------------------------------------------- #
    # multi-request reuse (the scan service rides on this)

    @property
    def alignment(self) -> SNPAlignment:
        return self._alignment

    @property
    def config(self) -> OmegaConfig:
        return self._config

    @property
    def n_workers(self) -> int:
        return self._n_workers

    @property
    def cost_model(self):
        """The process-wide Eq. 4 model as of the last calibration fold."""
        return self._cost_model

    def scan_positions(
        self,
        grid_positions: np.ndarray,
        *,
        position_costs: Optional[np.ndarray] = None,
        block_size: Optional[int] = None,
        registry: Optional[obs.MetricsRegistry] = None,
        request_id: str = "",
        progress: Optional[obs.SlotWriter] = None,
    ) -> ScanResult:
        """Scan an explicit grid-position array over the shared pool.

        This is the multi-tenant entry point: unlike :meth:`scan` (which
        replays the session's own grid) the positions travel inside the
        block tasks, so many concurrent requests — each with its own
        region grid — multiplex over one worker pool, one shared
        alignment and one shared r² tile store. The method is
        thread-safe: scheduler metrics go to the caller-supplied
        ``registry`` (never the process-global one, which
        ``obs.scoped_metrics`` would make a cross-request race), and the
        calibration fold is atomic. Results are bitwise-equal to a
        sequential scan of the same positions.
        """
        self.start()
        if registry is None:
            registry = obs.MetricsRegistry()
        grid_positions = np.asarray(grid_positions, dtype=np.float64)
        if grid_positions.size == 0:
            raise ScanConfigError("scan_positions needs >= 1 position")
        t_wall = time.perf_counter()
        if position_costs is None:
            plans = plans_for_positions(
                self._alignment.positions, grid_positions, self._config.grid
            )
            position_costs = get_cost_model().position_costs(plans)
        blocks = make_blocks(
            grid_positions.size,
            self._n_workers,
            block_size=block_size if block_size else self._block_size,
        )
        tasks = self._sorted_tasks(
            grid_positions, blocks, position_costs, request=request_id
        )
        tr = obs.get_tracer()
        secs_h = registry.histogram("scheduler.block_seconds")
        est_h = registry.histogram("scheduler.block_est_cost")
        depth_g = registry.gauge("scheduler.queue_depth")
        registry.counter("scheduler.blocks_dispatched").inc(len(tasks))
        with tr.span(
            "dispatch",
            "scheduler",
            args={"blocks": len(tasks), "request": request_id},
        ):
            for task in tasks:
                lo, hi = blocks[task.idx]
                est_h.observe(float(position_costs[lo:hi].sum()))
            pending = len(tasks)
            depth_g.set(pending)
            parts = {}
            # Per-request progress goes to an explicitly passed slot (the
            # service dispatchers each own one); fall back to the ambient
            # process slot for standalone callers.
            if progress is None:
                progress = obs.live_slot()
            for idx, part in self._pool.imap_unordered(
                _scan_block, tasks, chunksize=1
            ):
                parts[idx] = part
                pending -= 1
                depth_g.set(pending)
                secs_h.observe(part.breakdown.wall_seconds)
                if progress is not None:
                    lo, hi = blocks[idx]
                    progress.add_progress(
                        hi - lo, float(position_costs[lo:hi].sum())
                    )
        self._cost_model = calibrate_from(registry.snapshot())
        if self._cost_model.seconds_per_unit is not None:
            registry.gauge("scheduler.cost_seconds_per_unit").set(
                self._cost_model.seconds_per_unit
            )
            registry.gauge("scheduler.cost_calibration_blocks").set(
                self._cost_model.calibration_blocks
            )
        result = merge_scan_results([parts[i] for i in range(len(blocks))])
        result.metrics = obs.merge_snapshots(
            result.metrics, registry.snapshot()
        )
        result.breakdown.wall_seconds = time.perf_counter() - t_wall
        return result


# ---------------------------------------------------------------------- #
# public entry point
# ---------------------------------------------------------------------- #


def parallel_scan(
    alignment: SNPAlignment,
    config: OmegaConfig,
    *,
    n_workers: int,
    mp_context: Optional[str] = None,
    block_size: Optional[int] = None,
) -> ScanResult:
    """Scan with ``n_workers`` processes; results match a sequential scan.

    The alignment and r² tile band go to shared memory once, and workers
    pull contiguous grid blocks largest-estimated-cost first (see
    :class:`ParallelScanSession`).

    Parameters
    ----------
    alignment, config:
        Same inputs as :class:`~repro.core.scan.OmegaPlusScanner`.
    n_workers:
        Number of worker processes. ``1`` short-circuits to the sequential
        scanner (no process overhead).
    mp_context:
        Multiprocessing start method (default: platform default, ``fork``
        on Linux).
    block_size:
        Scheduling-block length in grid positions; default targets
        :data:`BLOCKS_PER_WORKER` blocks per worker.

    The returned breakdown's phase totals sum CPU seconds *across
    workers*; its ``wall_seconds`` holds the true elapsed time of this
    call.
    """
    if n_workers < 1:
        raise ScanConfigError(f"n_workers must be >= 1, got {n_workers}")
    t_wall = time.perf_counter()
    if n_workers == 1:
        return OmegaPlusScanner(config).scan(alignment)
    with ParallelScanSession(
        alignment,
        config,
        n_workers=n_workers,
        mp_context=mp_context,
        block_size=block_size,
    ) as session:
        result = session.scan()
    result.breakdown.wall_seconds = time.perf_counter() - t_wall
    return result


# ---------------------------------------------------------------------- #
# streaming: persistent pool over shared-memory chunks
# ---------------------------------------------------------------------- #


class StreamingScanSession(_SharedPool):
    """Streaming counterpart of :class:`ParallelScanSession`: one
    persistent worker pool scans a *sequence* of shared-memory chunks.

    Each :meth:`scan_chunk` call publishes the chunk (and its r² tile
    band) to shared memory exactly once, ships only block descriptors to
    the pool, and unpublishes before returning — so at most one chunk is
    resident at any time and a failed scan cannot orphan ``/dev/shm``
    entries. Workers keep their mapping of the current chunk between
    blocks and swap it lazily when the next chunk's tasks arrive.
    """

    def __init__(
        self,
        config: OmegaConfig,
        *,
        n_workers: int,
        mp_context: Optional[str] = None,
    ):
        if n_workers < 1:
            raise ScanConfigError(f"n_workers must be >= 1, got {n_workers}")
        self._config = config
        self._n_workers = n_workers
        self._mp_context = mp_context

    def start(self) -> "StreamingScanSession":
        """Fork the worker pool (idempotent)."""
        if self._pool is None:
            self._fork(
                _WorkerSetup(config=self._config, obs_spec=obs.current_spec())
            )
        return self

    def scan_chunk(
        self,
        chunk: SNPAlignment,
        block_tasks,
        *,
        max_pair_span: int,
        prefetch=None,
        block_costs=None,
    ):
        """Scan one chunk's grid blocks; returns ``(parts, prefetched)``.

        ``block_tasks`` is a list of ``(block index, grid positions,
        valid mask)`` triples, already in the desired dispatch order.
        ``prefetch`` (optional, zero-argument) runs in the parent *after*
        dispatch and *before* result collection, overlapping the next
        chunk's ingestion with this chunk's compute; its return value is
        passed through. ``block_costs`` (optional ``{block index: Eq. 4
        cost}``) feeds the live progress ledger's cost accounting.
        """
        self.start()
        tr = obs.get_tracer()
        with tr.span("shm_publish", "shm", args={"sites": int(chunk.n_sites)}):
            self._segments = SharedAlignmentSegments.create(chunk)
        try:
            if max_pair_span >= 1:
                with tr.span("shm_publish_tiles", "shm"):
                    self._store = SharedR2TileStore.create(
                        chunk,
                        max_pair_span=max_pair_span,
                        backend=self._config.ld_backend,
                    )
            tasks = [
                self._block_task(idx, grid_block, valid_mask=mask)
                for idx, grid_block, mask in block_tasks
            ]
            registry = obs.get_metrics()
            registry.counter("scheduler.blocks_dispatched").inc(len(tasks))
            depth_g = registry.gauge("scheduler.queue_depth")
            secs_h = registry.histogram("scheduler.block_seconds")
            it = self._pool.imap_unordered(_scan_block, tasks, chunksize=1)
            prefetched = prefetch() if prefetch is not None else None
            parts = {}
            pending = len(tasks)
            depth_g.set(pending)
            live = obs.live_slot()
            for idx, part in it:
                parts[idx] = part
                pending -= 1
                depth_g.set(pending)
                secs_h.observe(part.breakdown.wall_seconds)
                if live is not None:
                    live.add_progress(
                        len(part.positions),
                        block_costs.get(idx, 0.0) if block_costs else 0.0,
                    )
            obs.get_flight().record(
                "chunk", "stream.parallel_chunk",
                sites=int(chunk.n_sites), blocks=len(tasks),
            )
            return parts, prefetched
        finally:
            with tr.span("shm_unpublish", "shm"):
                self._unpublish()


def _block_spans(plans, blocks) -> List[Optional[Tuple[int, int]]]:
    """Per scheduling block, the [lo, hi) site range covering every one of
    its positions' ω regions — ``None`` for blocks whose positions all
    have empty regions (pure SNP desert, nothing to compute)."""
    spans: List[Optional[Tuple[int, int]]] = []
    for lo, hi in blocks:
        rs = min(p.region_start for p in plans[lo:hi])
        re1 = max(p.region_stop + 1 for p in plans[lo:hi])
        spans.append((rs, re1) if re1 > rs else None)
    return spans


def _group_stream_chunks(
    spans, snp_budget: int
) -> List[Tuple[int, int, List[int]]]:
    """Greedily group consecutive data blocks into chunk descriptors
    ``(site_lo, site_hi, data block indices)`` under the SNP budget.

    Block spans are non-decreasing in both endpoints (blocks follow the
    grid), so the resulting site ranges satisfy the streaming-source
    monotonicity contract.
    """
    chunks: List[Tuple[int, int, List[int]]] = []
    cur: Optional[list] = None
    for b, span in enumerate(spans):
        if span is None:
            continue
        rs, re1 = span
        if re1 - rs > snp_budget:
            raise ScanConfigError(
                f"snp_budget {snp_budget} cannot hold scheduling block {b} "
                f"({re1 - rs} SNPs); raise the budget, reduce max_window, "
                f"or use a smaller block_size"
            )
        if cur is None:
            cur = [rs, re1, [b]]
        elif max(cur[1], re1) - cur[0] <= snp_budget:
            cur[1] = max(cur[1], re1)
            cur[2].append(b)
        else:
            chunks.append((cur[0], cur[1], cur[2]))
            cur = [rs, re1, [b]]
    if cur is not None:
        chunks.append((cur[0], cur[1], cur[2]))
    return chunks


def _iter_scan_stream_parallel(
    source: AlignmentStreamSource,
    config: OmegaConfig,
    *,
    snp_budget: int,
    n_workers: int,
    block_size: Optional[int],
    mp_context: Optional[str],
):
    """Parallel streamed scan (driven via
    :func:`repro.core.scan.iter_scan_stream`), yielding one merged
    :class:`ScanResult` part per chunk.

    The grid partition is *identical* to the in-memory scheduler's
    (:func:`make_blocks`), each worker computes its block from a chunk
    covering all of the block's ω regions, and globally invalid positions
    are masked — so every block's records are bitwise equal to the
    in-memory run's.
    """
    positions = source.positions
    tr = obs.get_tracer()
    _plan_bd = TimeBreakdown()
    with tr.phase(_plan_bd, "plan", "phase"):
        grid_positions = config.grid.positions_from(positions)
        plans = build_plans_from_positions(positions, config.grid)
        blocks = make_blocks(
            grid_positions.size, n_workers, block_size=block_size
        )
        valid = np.array([p.valid for p in plans], dtype=bool)
        costs = get_cost_model().position_costs(plans)
        spans = _block_spans(plans, blocks)
        chunk_descs = _group_stream_chunks(spans, snp_budget)
    plan_seconds = _plan_bd.totals["plan"]
    block_cost = [float(costs[lo:hi].sum()) for lo, hi in blocks]

    def ingest_next(window_iter):
        """Pull the next chunk, timed and traced on the ingest track."""
        bd = TimeBreakdown()
        with tr.phase(bd, "ingest", "ingest", thread="ingest"):
            chunk = next(window_iter)
        return chunk, bd.totals["ingest"]

    # Result-ordering coverage: chunk i merges every block after chunk
    # i-1's coverage up to its own last data block; dataless blocks in
    # between are synthesized in the parent (their positions have no
    # sites to scan), and the final chunk extends to the last block.
    coverage: List[Tuple[int, int]] = []
    prev_end = 0
    for ci, (_lo, _hi, data_blocks) in enumerate(chunk_descs):
        end = (
            data_blocks[-1] + 1
            if ci < len(chunk_descs) - 1
            else len(blocks)
        )
        coverage.append((prev_end, end))
        prev_end = end

    def synth_part(b: int) -> ScanResult:
        lo, hi = blocks[b]
        return _unscanned_result(grid_positions[lo:hi])

    def chunk_max_span(data_blocks: List[int]) -> int:
        return max(
            (
                plans[k].region_width
                for b in data_blocks
                for k in range(*blocks[b])
                if plans[k].valid
            ),
            default=0,
        )

    def gen():
        window_iter = source.windows(
            [(lo, hi) for lo, hi, _ in chunk_descs]
        )
        session = StreamingScanSession(
            config, n_workers=n_workers, mp_context=mp_context
        )
        try:
            if not chunk_descs:
                part = merge_scan_results(
                    [synth_part(b) for b in range(len(blocks))]
                )
                part.breakdown.add("plan", plan_seconds)
                yield part
                return
            chunk, ingest_seconds = ingest_next(window_iter)
            for ci, (_lo, _hi, data_blocks) in enumerate(chunk_descs):
                tasks = []
                for b in sorted(data_blocks, key=lambda b: -block_cost[b]):
                    lo, hi = blocks[b]
                    tasks.append((b, grid_positions[lo:hi], valid[lo:hi]))
                prefetch = None
                if ci + 1 < len(chunk_descs):

                    def prefetch():
                        return ingest_next(window_iter)

                block_costs = None
                if obs.live_slot() is not None:
                    block_costs = {b: block_cost[b] for b in data_blocks}
                with obs.scoped_metrics() as registry:
                    parts, prefetched = session.scan_chunk(
                        chunk,
                        tasks,
                        max_pair_span=chunk_max_span(data_blocks),
                        prefetch=prefetch,
                        block_costs=block_costs,
                    )
                    registry.counter("stream.chunks").inc()
                    registry.gauge("stream.chunk_rss_bytes").set(
                        obs.current_rss_bytes()
                    )
                    parent_snap = registry.snapshot()
                cov_lo, cov_hi = coverage[ci]
                merged = merge_scan_results(
                    [
                        parts[b] if b in parts else synth_part(b)
                        for b in range(cov_lo, cov_hi)
                    ]
                )
                merged.metrics = obs.merge_snapshots(
                    merged.metrics, parent_snap
                )
                merged.breakdown.add("ingest", ingest_seconds)
                if ci == 0:
                    merged.breakdown.add("plan", plan_seconds)
                yield merged
                if prefetched is not None:
                    chunk, ingest_seconds = prefetched
        finally:
            window_iter.close()
            session.close()

    return gen()

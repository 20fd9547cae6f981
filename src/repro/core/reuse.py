"""Data-reuse across overlapping grid regions — r² level and DP level.

Consecutive grid positions bound regions that largely overlap (Fig. 2), and
r² between two given SNPs does not depend on which region asks for it.
OmegaPlus exploits this by relocating already-computed values of matrix M
when it advances to the next grid position and computing only the values
involving newly entered SNPs (Fig. 3, "data-reuse optimization"). We apply
the same idea at *two* levels:

* :class:`R2RegionCache` — reuse of the r² matrix itself, where the
  expensive O(W² · samples) work lives: entries for the overlapping SNP
  block stay in place in one anchored buffer, only the new rows and
  columns are computed, and each region is served as a read-only view
  that is valid until the next :meth:`~R2RegionCache.region_matrix`
  call. The new rows are computed *ahead*: a forward move that passes
  the buffer's valid square fills every row up to
  ``min(horizon, anchor + capacity)`` in a few wide slabs instead of one
  thin fringe per position, where ``horizon`` is the exclusive site
  bound the block source can serve (``n_sites`` in memory, the resident
  chunk's end in a streamed scan).
* :class:`SumMatrixCache` — reuse of the window-sum DP structure
  (:class:`~repro.core.dp.SumMatrix`, Eq. 3). The prefix-sum block built
  for the previous region is *relocated* (served as an offset view — every
  window-sum query is a four-corner rectangle difference, so the prefix
  anchor cancels) and extended with only the rows/columns of newly entered
  SNPs, making the per-position DP cost proportional to the
  non-overlapping fringe instead of the full O(W²) rebuild.

Both caches keep reuse statistics in one :class:`ReuseStats` so the
benefit is measurable (``tests/test_reuse.py`` asserts the saving; the
ablation benchmarks report it). Its r² counters keep the paper's
*served-region* meaning — W² − V² fresh entries for a region of width W
overlapping the previous one in V sites, as :func:`simulate_fresh_entries`
computes and the modelled GPU/FPGA engines charge — not the entries the
host physically filled: filling ahead computes about 10–20 % more
physical entries (the ``tile_fill`` entries of a trace) in about a tenth
of the calls.
"""

from __future__ import annotations

import inspect
import math
from collections import deque
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from repro.core.dp import SumMatrix
from repro.datasets.alignment import SNPAlignment
from repro.errors import ScanConfigError
from repro.ld.operands import LDBackendFiller, operands_for

__all__ = [
    "DpSeed",
    "R2RegionCache",
    "ReuseStats",
    "SumMatrixCache",
    "dp_replay_seed",
    "simulate_dp_actions",
    "simulate_fresh_entries",
]


def simulate_fresh_entries(regions) -> list:
    """Per-region count of r² entries that would be *computed* (not
    reused) by :class:`R2RegionCache` serving the given sequence of
    inclusive ``(start, stop)`` regions.

    Pure arithmetic mirror of the cache's accounting — used by the
    paper-scale workload models, where the r² matrices themselves are
    never materialized. Kept next to the cache so the two stay in sync
    (``tests/test_reuse.py`` cross-checks them).
    """
    out = []
    prev: Optional[tuple] = None
    for start, stop in regions:
        if stop < start:
            raise ScanConfigError(f"bad region ({start}, {stop})")
        width = stop - start + 1
        if prev is None or max(start, prev[0]) > min(stop, prev[1]):
            out.append(width * width)
        else:
            # Everything outside the relocated overlap block is fresh —
            # exact even when fresh segments exist on *both* sides of the
            # overlap (a backward-then-forward jump).
            overlap = min(stop, prev[1]) - max(start, prev[0]) + 1
            out.append(width * width - overlap * overlap)
        prev = (start, stop)
    return out


@dataclass
class ReuseStats:
    """Counters for the two-level data-reuse optimization.

    ``entries_*`` count r² matrix cells (:class:`R2RegionCache`);
    ``dp_entries_*`` count window-sum DP cells (:class:`SumMatrixCache`),
    both in units of one region cell, so ``computed + reused`` equals the
    sum of served region areas at either level.

    ``dp_anchor_*`` record the prefix-anchor allocations the DP cache
    chose (so the adaptive growth policy is observable: mean span =
    ``dp_anchor_span_total / dp_anchor_allocs``). ``tile_entries_*``
    count r² cells a shared tile store computed vs served from
    already-published tiles (multiprocess scans only; zero otherwise).
    """

    entries_computed: int = 0
    entries_reused: int = 0
    regions_served: int = 0
    dp_entries_computed: int = 0
    dp_entries_reused: int = 0
    dp_builds: int = 0
    dp_anchor_allocs: int = 0
    dp_anchor_span_total: int = 0
    tile_entries_computed: int = 0
    tile_entries_reused: int = 0

    @property
    def reuse_fraction(self) -> float:
        """Share of served r² entries that were copies, not computations."""
        total = self.entries_computed + self.entries_reused
        return self.entries_reused / total if total else 0.0

    @property
    def dp_reuse_fraction(self) -> float:
        """Share of served window-sum DP entries relocated, not rebuilt."""
        total = self.dp_entries_computed + self.dp_entries_reused
        return self.dp_entries_reused / total if total else 0.0

    @property
    def mean_anchor_span(self) -> float:
        """Mean SNP capacity of the DP prefix anchors allocated so far."""
        if self.dp_anchor_allocs == 0:
            return 0.0
        return self.dp_anchor_span_total / self.dp_anchor_allocs

    def merge_from(self, other: "ReuseStats") -> None:
        """Accumulate another scan's counters (chunked/parallel scans)."""
        self.entries_computed += other.entries_computed
        self.entries_reused += other.entries_reused
        self.regions_served += other.regions_served
        self.dp_entries_computed += other.dp_entries_computed
        self.dp_entries_reused += other.dp_entries_reused
        self.dp_builds += other.dp_builds
        self.dp_anchor_allocs += other.dp_anchor_allocs
        self.dp_anchor_span_total += other.dp_anchor_span_total
        self.tile_entries_computed += other.tile_entries_computed
        self.tile_entries_reused += other.tile_entries_reused


class R2RegionCache:
    """Serve per-region r² matrices, reusing the overlap with the previous
    region.

    The cache owns one square buffer whose cell ``[i, j]`` holds r² of
    global sites ``anchor + i`` and ``anchor + j``, with side at most
    :attr:`CAPACITY_FACTOR` times the widest region served. Of that
    buffer, the *valid square* ``[v_lo, v_hi]`` holds computed r². A
    region inside it is served as a read-only view with nothing computed.
    A forward move that passes its edge **fills ahead**: every row from
    the old edge to ``min(horizon, anchor + capacity)`` is computed in
    one go, against columns from the region start, so the next several
    grid positions find their rows already in place. Backward and
    disjoint moves compute exactly their region's fresh fringe. A region
    that does not fit at the anchor re-anchors in place (the kept square
    is shifted within the buffer), so a scan holds one r² buffer, never
    a copy per position. A served view is valid until the next
    :meth:`region_matrix` call; copy it to keep it longer.

    Fresh rows are filled in slabs of at most :attr:`FILL_SLAB_ROWS`
    rows, each against only the columns up to its own last row (the
    rest of the square is the slab's mirror image), and a block source
    that takes an ``out`` keyword writes each slab's r² straight into
    the buffer.

    ``stats`` counts *served-region* entries, as the paper's reuse model
    does: a region's entries outside its overlap with the previous
    region are ``entries_computed`` and the overlap ``entries_reused``,
    regardless of what was physically filled ahead
    (:func:`simulate_fresh_entries` mirrors these counts, and the
    modelled GPU/FPGA engines charge device time from them). The
    physical fills are the calls into the block source.

    Parameters
    ----------
    alignment:
        The full alignment being scanned.
    backend:
        ``"gemm"`` (default) computes fresh blocks with the GEMM
        formulation; ``"packed"`` uses blocked popcounts on the cached
        bit-packed plane; ``"auto"`` picks between them per block from
        the calibrated cost model. All are bitwise identical, validated
        against each other in tests.
    block_fn:
        Optional override for the fresh-block source: a callable
        ``(rows, cols) -> ndarray`` with :func:`~repro.ld.gemm.
        r_squared_block` semantics; when it also takes an ``out``
        keyword, blocks are written into the buffer through it. The
        multiprocess scanner injects a shared-memory tile store here so
        fresh entries one worker computes are served to every other
        worker; ``backend`` is ignored when set.
    n_sites:
        Global site count when ``alignment`` is ``None`` — the streaming
        scanner addresses regions in global coordinates while only the
        current chunk is materialized, so it supplies a chunk-dispatching
        ``block_fn`` plus the global bound instead of an alignment.

    Attributes
    ----------
    horizon:
        Exclusive bound on the sites the block source can serve; fills
        never reach past it. ``n_sites`` by default; the streaming
        scanner sets it to the resident chunk's end each time a chunk
        loads.
    """

    #: Default cap on one region's r² matrix (512 MB of float64): wide
    #: enough for several-thousand-SNP windows, small enough to fail
    #: with a clear message instead of an opaque MemoryError when a
    #: misconfigured max_window asks for a chromosome-sized region.
    DEFAULT_MAX_REGION_BYTES = 512 * 1024 * 1024
    #: Side of the anchored buffer relative to the region width that
    #: (re)allocates it: the slack lets the grid advance that far before
    #: an in-place re-anchor, and is what a forward move fills ahead.
    CAPACITY_FACTOR = 1.25
    #: Rows per fill call: wide enough for a BLAS-3-shaped GEMM, small
    #: enough that a slab's two temporaries stay far below the buffer.
    FILL_SLAB_ROWS = 64

    def __init__(
        self,
        alignment: Optional[SNPAlignment],
        *,
        backend: str = "gemm",
        max_region_bytes: Optional[int] = None,
        block_fn: Optional[Callable[[slice, slice], np.ndarray]] = None,
        n_sites: Optional[int] = None,
    ):
        if alignment is None:
            if block_fn is None or n_sites is None:
                raise ScanConfigError(
                    "R2RegionCache without an alignment needs an explicit "
                    "block_fn and n_sites (the streaming scanner's setup)"
                )
            self._n_sites = int(n_sites)
        else:
            self._n_sites = alignment.n_sites
        self._alignment = alignment
        self._max_region_bytes = (
            self.DEFAULT_MAX_REGION_BYTES
            if max_region_bytes is None
            else max_region_bytes
        )
        if self._max_region_bytes < 8:
            raise ScanConfigError("max_region_bytes too small")
        if block_fn is not None:
            self._block = block_fn
        elif backend in ("gemm", "packed", "auto"):
            # All backends flow through the per-alignment operand-plane
            # cache: the GEMM plane / packed words are materialized once
            # per alignment, and "auto" picks per block from the
            # calibrated cost-model crossover.
            self._block: Callable[[slice, slice], np.ndarray] = (
                LDBackendFiller(operands_for(alignment), backend)
            )
        else:
            raise ScanConfigError(
                f"unknown LD backend {backend!r}; use 'gemm', 'packed' "
                f"or 'auto'"
            )
        self._fills_into = _takes_out(self._block)
        self.horizon = self._n_sites
        self._prev_start: Optional[int] = None
        self._prev_stop: Optional[int] = None
        #: The valid square ``[v_lo, v_hi]`` (global sites) of the buffer.
        self._v_lo: Optional[int] = None
        self._v_hi = -1
        #: The anchored r² buffer: cell ``[i, j]`` holds r² of global
        #: sites ``anchor + i`` and ``anchor + j``.
        self._buf: Optional[np.ndarray] = None
        self._anchor = 0
        self.stats = ReuseStats()

    @property
    def capacity(self) -> int:
        """Side length of the anchored buffer (0 before the first call)."""
        return 0 if self._buf is None else self._buf.shape[0]

    def region_matrix(self, start: int, stop: int) -> np.ndarray:
        """r² matrix for global sites ``[start .. stop]`` (inclusive).

        Returns a read-only view of the anchored buffer, valid until the
        next call on this cache. Entries already in the valid square are
        not computed again; see the class docstring for what is filled.
        """
        n = self._n_sites
        if not (0 <= start <= stop < n):
            raise ScanConfigError(
                f"region [{start}, {stop}] out of bounds for {n} sites"
            )
        if stop >= self.horizon:
            raise ScanConfigError(
                f"region [{start}, {stop}] reaches past the block source's "
                f"horizon ({self.horizon} sites)"
            )
        width = stop - start + 1
        needed = 8 * width * width
        if needed > self._max_region_bytes:
            raise ScanConfigError(
                f"region of {width} SNPs needs a {needed / 1e6:.0f} MB r2 "
                f"matrix (cap {self._max_region_bytes / 1e6:.0f} MB); "
                f"reduce max_window or raise max_region_bytes"
            )
        overlap = 0
        if self._prev_start is not None:
            overlap = max(
                0,
                min(stop, self._prev_stop)  # type: ignore[type-var]
                - max(start, self._prev_start)
                + 1,
            )
        self.stats.entries_reused += overlap * overlap
        self.stats.entries_computed += width * width - overlap * overlap
        self._fill(start, stop)
        self.stats.regions_served += 1
        self._prev_start, self._prev_stop = start, stop
        lo = start - self._anchor
        served = self._buf[lo : lo + width, lo : lo + width]  # type: ignore[index]
        served.flags.writeable = False
        return served

    def _fill(self, start: int, stop: int) -> None:
        """Make ``[start, stop]`` part of the valid square."""
        v_lo, v_hi = self._v_lo, self._v_hi
        if v_lo is None or max(start, v_lo) > min(stop, v_hi):
            # First or disjoint region: exactly its own square.
            self._place(start, stop, None)
            self._grow(start, start - 1, start, stop)
            self._v_lo, self._v_hi = start, stop
        elif start >= v_lo:
            if stop <= v_hi:
                return  # already in place
            # Forward: fill ahead to the edge of the buffer.
            self._place(start, stop, (start, v_hi))
            edge = min(self.horizon, self._anchor + self.capacity)
            self._grow(start, v_hi, start, edge - 1)
            self._v_lo, self._v_hi = start, edge - 1
        else:
            # Backward: exactly the fringes around the overlap.
            o_hi = min(stop, v_hi)
            self._place(start, stop, (v_lo, o_hi))
            self._grow(v_lo, o_hi, start, stop)
            self._v_lo, self._v_hi = start, stop

    def _grow(self, lo: int, hi: int, new_lo: int, new_hi: int) -> None:
        """Extend the valid square ``[lo, hi]`` (empty when ``hi < lo``)
        to ``[new_lo, new_hi]`` in slabs of rows: right of it, each slab
        against the columns from ``lo`` to its own last row; left of it,
        each against the columns from its own first row to ``new_hi``
        (walking away from the square, so every cell a slab skips is
        already valid or written by a later slab's mirror)."""
        step = self.FILL_SLAB_ROWS
        for r0 in range(hi + 1, new_hi + 1, step):
            r1 = min(r0 + step, new_hi + 1)
            self._fill_rows(r0, r1, lo, r1)
        for r1 in range(lo, new_lo, -step):
            r0 = max(r1 - step, new_lo)
            self._fill_rows(r0, r1, r0, new_hi + 1)

    def _fill_rows(self, r0: int, r1: int, c0: int, c1: int) -> None:
        """Fill rows ``[r0, r1)`` x columns ``[c0, c1)`` (rows inside the
        columns) and mirror the columns outside the rows across the
        diagonal; the rows x rows square is symmetric on its own."""
        a = self._anchor
        buf = self._buf
        dst = buf[r0 - a : r1 - a, c0 - a : c1 - a]  # type: ignore[index]
        rows, cols = slice(r0, r1), slice(c0, c1)
        if self._fills_into:
            self._block(rows, cols, out=dst)  # type: ignore[call-arg]
        else:
            dst[...] = self._block(rows, cols)
        buf[c0 - a : r0 - a, r0 - a : r1 - a] = dst[:, : r0 - c0].T  # type: ignore[index]
        buf[r1 - a : c1 - a, r0 - a : r1 - a] = dst[:, r1 - c0 :].T  # type: ignore[index]

    def _place(self, start: int, stop: int, keep) -> None:
        """Make ``[start, stop]`` addressable in the buffer, moving the
        valid square ``keep = (lo, hi)`` (global sites) along with the
        anchor.

        A region that fits at the current anchor changes nothing. One
        that does not, but fits the capacity, re-anchors *in place*: the
        kept square is shifted row block by row block, so no second
        buffer exists even transiently. Only a region wider than the
        capacity allocates (``CAPACITY_FACTOR`` x its width).
        """
        cap = self.capacity
        width = stop - start + 1
        if self._anchor <= start and stop < self._anchor + cap:
            return
        if width <= cap:
            # Forward moves anchor at the region start (room to grow
            # right); backward moves at its end (room to grow left).
            if start >= self._anchor:
                anchor = start
            else:
                anchor = max(0, stop + 1 - cap)
            if keep is not None:
                _shift_square(
                    self._buf,  # type: ignore[arg-type]
                    keep[0] - self._anchor,
                    keep[0] - anchor,
                    keep[1] - keep[0] + 1,
                )
            self._anchor = anchor
            return
        # Each bound is >= width (the byte cap was checked per region).
        cap = min(
            self._n_sites,
            math.isqrt(self._max_region_bytes // 8),
            math.ceil(self.CAPACITY_FACTOR * width),
        )
        buf = np.empty((cap, cap))
        if keep is not None:
            n = keep[1] - keep[0] + 1
            src, dst = keep[0] - self._anchor, keep[0] - start
            buf[dst : dst + n, dst : dst + n] = self._buf[  # type: ignore[index]
                src : src + n, src : src + n
            ]
        self._buf, self._anchor = buf, start

    def reset(self) -> None:
        """Forget the served and computed regions (e.g. when jumping to a
        new chromosome); the buffer is kept for the next region."""
        self._prev_start = self._prev_stop = None
        self._v_lo, self._v_hi = None, -1


def _takes_out(fn) -> bool:
    """Whether a block source accepts an ``out`` keyword."""
    try:
        return "out" in inspect.signature(fn).parameters
    except (TypeError, ValueError):
        return False


def _shift_square(buf: np.ndarray, src: int, dst: int, n: int) -> None:
    """Move the ``n x n`` square at ``buf[src:, src:]`` to
    ``buf[dst:, dst:]`` in place.

    Copies blocks of at most ``|src - dst|`` rows, ordered so that no
    block overwrites rows not yet read (ascending towards the origin,
    descending away from it); each block's source and destination rows
    are disjoint, so no temporary the size of the square is made.
    """
    shift = abs(src - dst)
    if shift == 0 or n == 0:
        return
    starts = range(0, n, shift)
    if src < dst:
        starts = reversed(starts)
    for k in starts:
        m = min(shift, n - k)
        buf[dst + k : dst + k + m, dst : dst + n] = buf[
            src + k : src + k + m, src : src + n
        ]


def _dp_choose_capacity(width: int, strides, growth: Optional[float]) -> int:
    """Anchor capacity for a fresh build of ``width`` SNPs (shared by
    :class:`SumMatrixCache` and its pure mirror
    :func:`simulate_dp_actions`, so the two cannot drift)."""
    if growth is not None:
        return max(width, int(math.ceil(growth * width)))
    if not strides:
        return int(math.ceil(SumMatrixCache.DEFAULT_GROWTH * width))
    stride = sorted(strides)[len(strides) // 2]
    # Append-vs-rebuild balance: √2·W/s appends equalize total append
    # work with the amortized O(W²) rebuild; W(W−s)/s² caps planning
    # where one stride-s append on a ≥W-wide anchor already exceeds a
    # rebuild. Small strides ⇒ many planned appends ⇒ larger anchors.
    n_appends = min(
        int(math.sqrt(2.0) * width / stride),
        int(width * max(0, width - stride) / (stride * stride)),
        int((SumMatrixCache.MAX_ADAPTIVE_GROWTH - 1.0) * width / stride),
    )
    return width + max(0, n_appends) * stride


def _dp_can_serve(
    start: int,
    stop: int,
    *,
    anchor: Optional[int],
    hi: Optional[int],
    capacity: int,
    growth_eff: float,
    fill_starts: Optional[np.ndarray],
) -> bool:
    """Serve decision for ``[start, stop]`` against an anchored block
    (shared by :class:`SumMatrixCache` and :func:`simulate_dp_actions`)."""
    if anchor is None or hi is None or fill_starts is None:
        return False
    if start < anchor or start > hi:
        return False  # reaches back before the anchor, or disjoint
    if stop - anchor + 1 > capacity:
        return False  # would outgrow the allocated block
    width = stop - start + 1
    if stop - anchor + 1 > growth_eff * width:
        return False  # re-anchor: keep magnitudes and memory bounded
    lo = start - anchor
    hi_col = min(stop, hi) - anchor
    # Every column the query touches must be truthfully filled from
    # the query's own start row downwards.
    return int(fill_starts[lo : hi_col + 1].max()) <= start


@dataclass(frozen=True)
class DpSeed:
    """Stride-history state that makes a mid-sequence DP-cache replay
    exact.

    The adaptive anchor policy of :class:`SumMatrixCache` sizes each
    fresh build from the recently observed grid strides, so the served
    prefix anchors — and therefore the float rounding of every window
    sum — depend on scan *history*, not only on the queried region. A
    scan that starts mid-grid (a manifest shard) replays the unsharded
    run bit-for-bit only if it (a) starts at a region the full run
    rebuilt its anchor on, and (b) restores the stride window the full
    run had accumulated at that point. :func:`dp_replay_seed` computes
    both; :meth:`SumMatrixCache.seed` applies this state.
    """

    strides: tuple = ()
    last_start: Optional[int] = None


def simulate_dp_actions(
    regions, *, reuse: bool = True, growth_factor: Optional[float] = None
) -> list:
    """Per-region serve action (``"build"`` / ``"extend"`` / ``"view"``)
    that :class:`SumMatrixCache` would take for the given sequence of
    inclusive ``(start, stop)`` regions.

    Pure integer mirror of the cache's decision logic — no prefix
    arrays are materialized, so a whole-chromosome schedule simulates in
    microseconds. The capacity and serve predicates are shared with the
    cache itself (``tests/test_dp_reuse.py`` cross-checks the actions
    against a real cache's ``last_action`` trace).
    """
    return [action for action, _seed in _iter_dp_decisions(
        regions, reuse=reuse, growth_factor=growth_factor
    )]


def dp_replay_seed(
    regions,
    call_index: int,
    *,
    reuse: bool = True,
    growth_factor: Optional[float] = None,
):
    """Where a bitwise-exact mid-sequence replay must start.

    For a scan that wants to begin at ``regions[call_index]``, returns
    ``(start_call, seed)``: the index of the latest ``"build"`` action
    at or before ``call_index`` in the full decision sequence, and the
    :class:`DpSeed` to apply before replaying from there. A fresh cache
    seeded with ``seed`` and fed ``regions[start_call:]`` makes exactly
    the decisions — and therefore computes exactly the bits — that a
    cache fed all of ``regions`` makes from ``start_call`` onwards.
    """
    if call_index < 0:
        raise ScanConfigError(
            f"call_index must be >= 0, got {call_index}"
        )
    start_call, start_seed = 0, DpSeed()
    for k, (action, seed) in enumerate(
        _iter_dp_decisions(regions, reuse=reuse, growth_factor=growth_factor)
    ):
        if k > call_index:
            break
        if action == "build":
            start_call, start_seed = k, seed
    return start_call, start_seed


def _iter_dp_decisions(regions, *, reuse, growth_factor):
    """Yield ``(action, DpSeed-just-before-the-call)`` per region —
    the decision loop behind :func:`simulate_dp_actions` and
    :func:`dp_replay_seed`."""
    growth = growth_factor
    if growth is not None and growth < 1.0:
        raise ScanConfigError(f"growth_factor must be >= 1, got {growth}")
    growth_eff = (
        growth if growth is not None else SumMatrixCache.DEFAULT_GROWTH
    )
    strides: deque = deque(maxlen=SumMatrixCache.STRIDE_WINDOW)
    last_start: Optional[int] = None
    anchor: Optional[int] = None
    hi: Optional[int] = None
    capacity = 0
    fill_starts: Optional[np.ndarray] = None
    for start, stop in regions:
        if stop < start:
            raise ScanConfigError(f"bad region ({start}, {stop})")
        width = stop - start + 1
        seed = DpSeed(strides=tuple(strides), last_start=last_start)
        if last_start is not None and start > last_start:
            strides.append(start - last_start)
        last_start = start
        if not reuse or not _dp_can_serve(
            start,
            stop,
            anchor=anchor,
            hi=hi,
            capacity=capacity,
            growth_eff=growth_eff,
            fill_starts=fill_starts,
        ):
            capacity = _dp_choose_capacity(width, strides, growth)
            growth_eff = (
                growth
                if growth is not None
                else max(1.0, capacity / width)
            )
            anchor, hi = start, stop
            fill_starts = np.full(width, start, dtype=np.intp)
            yield "build", seed
        elif stop > hi:  # type: ignore[operator]
            fringe = stop - hi
            fill_starts = np.concatenate(
                [fill_starts, np.full(fringe, start, dtype=np.intp)]
            )
            hi = stop
            yield "extend", seed
        else:
            yield "view", seed


class SumMatrixCache:
    """Serve per-region :class:`~repro.core.dp.SumMatrix` structures,
    relocating the previous prefix-sum block across overlapping regions.

    The paper's Fig. 3 data-reuse optimization relocates matrix-M entries
    between grid positions; our production M is a 2-D prefix sum, so the
    cache keeps one prefix structure *anchored* at a past region start and
    grows it in place:

    * an overlapping request is served as an offset **view** into the
      anchored prefix — zero relocation cost, because every window-sum
      query (:meth:`SumMatrix.pair_sum` and friends) is a four-corner
      rectangle difference in which the anchor cancels;
    * SNPs entering on the right are **appended**: their prefix rows and
      columns are extended from the existing block in O(Wa · F) for F new
      SNPs, instead of the O(W²) rebuild-from-scratch of the seed scanner;
    * when the anchored block outgrows its planned span (or the request
      falls outside it), the cache **re-anchors** with one fresh build, so
      memory and float magnitudes stay bounded.

    The anchor span is chosen by one of two policies. With an explicit
    ``growth_factor`` g, capacity is always ``g · width`` (the fixed
    policy of earlier releases). With the default ``growth_factor=None``
    the policy is *adaptive to the observed grid stride*: appending a
    stride-s fringe onto an anchored block of width a costs O(a · s)
    while a re-anchor costs O(W²), so the cache plans
    ``n = min(⌊√2·W/s⌋, ⌊W(W−s)/s²⌋)`` appends per anchor (the first
    term balances total append work against the amortized rebuild, the
    second stops planning appends once a single append would cost more
    than a rebuild) and allocates ``W + n·s``. Small strides therefore
    get large anchors (many positions amortize one build); strides
    approaching the region width collapse to rebuild-per-position, which
    is genuinely cheaper there. Chosen spans are observable through
    ``ReuseStats.dp_anchor_allocs`` / ``dp_anchor_span_total``.

    Rows of appended columns that precede the current region start were
    never computed at the r² level (their SNP pairs span wider than any
    region the scan evaluated); they are stored as zeros. That is sound
    because a later query only touches SNP pairs inside its own region,
    and the cache re-anchors whenever a request reaches further back than
    the columns it has (``_fill_starts`` tracks the first truthfully
    filled row of every column).

    With ``reuse=False`` the cache degenerates to a fresh build per
    request — bit-identical arithmetic to ``SumMatrix(r2)`` — which is the
    rebuild-every-position baseline of ``bench_ablation_dp_reuse.py``;
    either way it keeps the ``dp_entries_*`` counters, so the ablation is
    measurable in exact entry counts as well as wall-clock time.
    """

    #: Span factor used by the adaptive policy before any stride has been
    #: observed (matches the old fixed default), and hard cap on how far
    #: beyond the region width an adaptive anchor may plan (bounds both
    #: memory and prefix-sum float magnitudes).
    DEFAULT_GROWTH = 2.0
    MAX_ADAPTIVE_GROWTH = 6.0
    #: How many recent strides inform the adaptive estimate.
    STRIDE_WINDOW = 8

    def __init__(
        self,
        *,
        reuse: bool = True,
        growth_factor: Optional[float] = None,
        stats: Optional[ReuseStats] = None,
    ):
        if growth_factor is not None and growth_factor < 1.0:
            raise ScanConfigError(
                f"growth_factor must be >= 1, got {growth_factor}"
            )
        self._reuse = reuse
        self._growth = growth_factor  # None => adaptive policy
        #: Span bound of the current anchor (capacity / anchored width);
        #: equals growth_factor under the fixed policy.
        self._growth_eff = (
            growth_factor if growth_factor is not None else self.DEFAULT_GROWTH
        )
        self._strides: deque = deque(maxlen=self.STRIDE_WINDOW)
        self._last_start: Optional[int] = None
        self.stats = stats if stats is not None else ReuseStats()
        #: What the most recent :meth:`region_sums` call did:
        #: ``"build"`` (fresh construction), ``"extend"`` (appended the
        #: fringe) or ``"view"`` (served entirely from the standing block).
        self.last_action: str = "build"
        self._anchor: Optional[int] = None
        self._hi: Optional[int] = None
        self._width = 0  # currently filled anchored width
        self._capacity = 0  # allocated width of the prefix array
        self._prefix: Optional[np.ndarray] = None
        self._fill_starts: Optional[np.ndarray] = None

    # ------------------------------------------------------------------ #

    def _choose_capacity(self, width: int) -> int:
        """Anchor capacity for a fresh build of ``width`` SNPs."""
        return _dp_choose_capacity(width, self._strides, self._growth)

    def _rebuild(self, start: int, stop: int, r2: np.ndarray) -> None:
        """Fresh anchored build — the exact arithmetic of
        ``SumMatrix(r2, assume_symmetric=True)``, placed into a capacity
        array with room to grow in place."""
        width = stop - start + 1
        self._capacity = self._choose_capacity(width)
        self._growth_eff = (
            self._growth
            if self._growth is not None
            else max(1.0, self._capacity / width)
        )
        self.stats.dp_anchor_allocs += 1
        self.stats.dp_anchor_span_total += self._capacity
        # Drop the old block first, so a caller that holds no view of it
        # never has two anchors resident at once.
        self._prefix = None
        prefix = np.zeros((self._capacity + 1, self._capacity + 1))
        # Accumulate in place in the prefix block: cumsum is a sequential
        # scan along each axis, so the values do not depend on the layout
        # and no W x W temporary is made.
        sym = prefix[1 : width + 1, 1 : width + 1]
        sym[...] = r2
        np.fill_diagonal(sym, 0.0)
        np.cumsum(sym, axis=0, out=sym)
        np.cumsum(sym, axis=1, out=sym)
        self._prefix = prefix
        self._anchor, self._hi = start, stop
        self._width = width
        self._fill_starts = np.full(width, start, dtype=np.intp)
        self.stats.dp_entries_computed += width * width
        self.stats.dp_builds += 1
        self.last_action = "build"

    def _extend(self, start: int, stop: int, r2: np.ndarray) -> None:
        """Append SNPs ``(_hi, stop]``: grow the anchored prefix by their
        rows and columns only (O(anchored width x fringe))."""
        assert self._prefix is not None and self._hi is not None
        assert self._anchor is not None and self._fill_starts is not None
        width = stop - start + 1
        delta = start - self._anchor
        old_w = self._width
        fringe = stop - self._hi
        new_w = old_w + fringe
        p = self._prefix

        # Symmetric values of the entering columns over every anchored
        # row: zeros before the current region (pairs never computed at
        # the r2 level; they cancel in all legal rectangle queries), the
        # region's r2 rows elsewhere, and a zeroed diagonal.
        cols = np.zeros((new_w, fringe))
        cols[delta:new_w, :] = r2[:, self._hi + 1 - start :]
        diag = np.arange(fringe)
        cols[self._hi + 1 - self._anchor + diag, diag] = 0.0

        # Prefix of the entering columns over the old rows ...
        col_prefix = np.cumsum(cols, axis=0)
        p[1 : old_w + 1, old_w + 1 : new_w + 1] = p[
            1 : old_w + 1, old_w : old_w + 1
        ] + np.cumsum(col_prefix[:old_w, :], axis=1)
        # ... then the entering rows over every column (symmetry).
        p[old_w + 1 : new_w + 1, 1 : new_w + 1] = p[
            old_w : old_w + 1, 1 : new_w + 1
        ] + np.cumsum(np.cumsum(cols.T, axis=0), axis=1)

        self._fill_starts = np.concatenate(
            [self._fill_starts, np.full(fringe, start, dtype=np.intp)]
        )
        self._width = new_w
        self._hi = stop
        overlap = width - fringe
        self.stats.dp_entries_computed += width * width - overlap * overlap
        self.stats.dp_entries_reused += overlap * overlap
        self.last_action = "extend"

    def _can_serve(self, start: int, stop: int) -> bool:
        """True when ``[start, stop]`` can be served from the standing
        anchored block (possibly after appending its right fringe)."""
        if self._prefix is None:
            return False
        return _dp_can_serve(
            start,
            stop,
            anchor=self._anchor,
            hi=self._hi,
            capacity=self._capacity,
            growth_eff=self._growth_eff,
            fill_starts=self._fill_starts,
        )

    # ------------------------------------------------------------------ #

    def region_sums(
        self, start: int, stop: int, r2: np.ndarray
    ) -> SumMatrix:
        """Window-sum structure for global sites ``[start .. stop]``
        (inclusive), given the region's r² matrix.

        Returns a :class:`SumMatrix` backed by the anchored prefix (an
        offset view when relocation applies). The view stays valid after
        later calls: appends only write cells outside every previously
        served view, and a re-anchor allocates a new block.
        """
        if stop < start:
            raise ScanConfigError(f"bad region ({start}, {stop})")
        width = stop - start + 1
        r2 = np.asarray(r2)
        if r2.shape != (width, width):
            raise ScanConfigError(
                f"r2 shape {r2.shape} does not match region width {width}"
            )
        if self._last_start is not None and start > self._last_start:
            # Forward grid stride — the signal the adaptive anchor policy
            # sizes capacities from (backward jumps rebuild regardless).
            self._strides.append(start - self._last_start)
        self._last_start = start
        if not self._reuse or not self._can_serve(start, stop):
            self._rebuild(start, stop, r2)
        elif stop > self._hi:  # type: ignore[operator]
            self._extend(start, stop, r2)
        else:
            self.stats.dp_entries_reused += width * width
            self.last_action = "view"
        assert self._prefix is not None and self._anchor is not None
        delta = start - self._anchor
        view = self._prefix[
            delta : delta + width + 1, delta : delta + width + 1
        ]
        return SumMatrix.from_prefix(view, width)

    def seed(self, seed: DpSeed) -> None:
        """Restore the stride history of a longer run (see
        :func:`dp_replay_seed`), so a scan starting mid-grid sizes its
        anchors — and rounds its window sums — exactly as the full run
        did. Must be applied before the first :meth:`region_sums` call."""
        if self._prefix is not None:
            raise ScanConfigError(
                "seed() must be applied before the first region_sums call"
            )
        self._strides.clear()
        self._strides.extend(seed.strides)
        self._last_start = seed.last_start

    def reset(self) -> None:
        """Drop the anchored block and stride history (e.g. when jumping
        to a new chromosome)."""
        self._anchor = self._hi = None
        self._prefix = None
        self._fill_starts = None
        self._width = self._capacity = 0
        self._strides.clear()
        self._last_start = None

"""Outside-in layer tracing: spans recorded around the program's public
calls, from the benchmark's own code.

:func:`install` replaces each timed callable with a wrapper under the
name the scanner looks it up by (module attribute for functions, class
attribute for methods), so the program's source is untouched. Spans stay
in memory as ``[name, start_ns, end_ns, parent, attrs]`` lists and are
summarised when the run ends; a layer's self time is its span's duration
minus the time its direct children cover.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict

NAME, START, END, PARENT, ATTRS = range(5)


class Recorder:
    """In-memory span stack for one thread of one process."""

    def __init__(self):
        self.spans: list = []
        self._stack: list = []
        #: Span lists shipped back from worker processes, one per block.
        self.worker_spans: list = []

    def begin(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter_ns(), 0, parent, {}])
        self._stack.append(idx)
        return idx

    def end(self, idx: int) -> None:
        self.spans[idx][END] = time.perf_counter_ns()
        self._stack.pop()

    def span(self, name: str):
        return _SpanContext(self, name)

    def detach(self):
        """Start an empty span list (worker side); returns the old state
        for :meth:`reattach`."""
        saved = (self.spans, self._stack)
        self.spans, self._stack = [], []
        return saved

    def reattach(self, saved) -> list:
        spans = self.spans
        self.spans, self._stack = saved
        return spans


class _SpanContext:
    def __init__(self, rec: Recorder, name: str):
        self._rec, self._name = rec, name

    def __enter__(self):
        self._idx = self._rec.begin(self._name)
        return self._rec.spans[self._idx]

    def __exit__(self, *exc):
        self._rec.end(self._idx)


class TracedIterator:
    """Times each ``next()`` of a wrapped iterator as one span, so a
    generator's lazy work (a streamed chunk read) lands where it is
    pulled rather than where the generator was created."""

    def __init__(self, rec: Recorder, name: str, it):
        self._rec, self._name, self._it = rec, name, iter(it)

    def __iter__(self):
        return self

    def __next__(self):
        idx = self._rec.begin(self._name)
        try:
            return next(self._it)
        finally:
            self._rec.end(idx)

    def close(self) -> None:
        close = getattr(self._it, "close", None)
        if close is not None:
            close()


def traced(rec: Recorder, name: str, fn, on_result=None):
    """``fn`` wrapped in a span; ``on_result(attrs, args, result)`` may
    record counts. ``functools.wraps`` keeps ``__module__`` and
    ``__qualname__``, so a wrapper installed under the original name
    pickles by reference like the original."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        idx = rec.begin(name)
        try:
            out = fn(*args, **kwargs)
        finally:
            rec.end(idx)
        if on_result is not None:
            on_result(rec.spans[idx][ATTRS], args, out)
        return out

    return wrapper


def self_times(spans) -> dict:
    """Per-name self seconds: duration minus direct children's durations."""
    child = [0] * len(spans)
    for s in spans:
        if s[PARENT] >= 0:
            child[s[PARENT]] += s[END] - s[START]
    out: dict = defaultdict(float)
    for i, s in enumerate(spans):
        out[s[NAME]] += (s[END] - s[START] - child[i]) / 1e9
    return dict(out)


def sum_attr(spans, name: str, key: str) -> float:
    return sum(s[ATTRS].get(key, 0) for s in spans if s[NAME] == name)


def count(spans, name: str) -> int:
    return sum(1 for s in spans if s[NAME] == name)


def durations(spans, name: str) -> float:
    return sum((s[END] - s[START]) / 1e9 for s in spans if s[NAME] == name)


# ---------------------------------------------------------------------- #
# installation


def _entries(attrs, _args, out):
    attrs["entries"] = int(out.size)


def _fill_attr(attrs, _args, out):
    attrs["entries"] = int(out.size)
    attrs["shape"] = out.shape


def _dp_action(attrs, args, _out):
    attrs["action"] = args[0].last_action


def _operand_bytes(attrs, args, _out):
    attrs["ops_id"] = id(args[0])
    attrs["bytes"] = args[0].nbytes()


def _eq2_evals(attrs, _args, out):
    attrs["evals"] = out.n_evaluations


def install(rec: Recorder):
    """Wrap every timed call; returns a function that undoes it."""
    # The repro.core package re-exports the scan() function under the
    # name of its own submodule, so attribute access on the package
    # would return the function; import the module by name instead.
    scan_mod = importlib.import_module("repro.core.scan")
    omega_mod = importlib.import_module("repro.core.omega")
    par_mod = importlib.import_module("repro.core.parallel")
    from repro.core.dp import SumMatrix
    from repro.core.reuse import R2RegionCache, SumMatrixCache
    from repro.core.tilestore import SharedR2TileStore
    from repro.datasets.streaming import StreamingAlignmentReader
    from repro.ld.operands import LDBackendFiller, LDOperands

    undo = []

    def patch(owner, attr, name, on_result=None):
        orig = getattr(owner, attr)
        setattr(owner, attr, traced(rec, name, orig, on_result))
        undo.append((owner, attr, orig))

    patch(scan_mod, "build_plans", "plan")
    patch(scan_mod, "build_plans_from_positions", "plan")
    patch(scan_mod, "omega_max_at_split", "eq2", _eq2_evals)
    patch(scan_mod, "omega_max_batch", "batch")
    patch(scan_mod, "merge_scan_results", "merge")
    patch(omega_mod, "omega_split_matrix", "eq2")
    for attr in ("gemm_plane", "packed", "derived_counts"):
        patch(LDOperands, attr, "operands", _operand_bytes)
    patch(LDBackendFiller, "__call__", "tile_fill", _fill_attr)
    patch(SharedR2TileStore, "block", "tile_store")
    patch(R2RegionCache, "region_matrix", "region", _entries)
    patch(SumMatrixCache, "region_sums", "dp", _dp_action)
    patch(SumMatrix, "cross_sums_grid", "gather", _entries)
    patch(StreamingAlignmentReader, "__init__", "ingest.index")

    orig_windows = StreamingAlignmentReader.windows

    def windows(self, ranges):
        return TracedIterator(rec, "ingest", orig_windows(self, ranges))

    StreamingAlignmentReader.windows = windows
    undo.append((StreamingAlignmentReader, "windows", orig_windows))

    # Parallel scans: the driver side times start and merge; each worker
    # block records its own spans and ships them back on the block's
    # result, which the merge wrapper collects before merging.
    patch(par_mod.ParallelScanSession, "start", "parallel.start")
    orig_merge = par_mod.merge_scan_results

    def merge(parts):
        for part in parts:
            spans = part.__dict__.pop("bench_spans", None)
            if spans is not None:
                rec.worker_spans.append(spans)
        return orig_merge(parts)

    par_mod.merge_scan_results = traced(rec, "merge", merge)
    undo.append((par_mod, "merge_scan_results", orig_merge))
    orig_block = par_mod._scan_block

    @functools.wraps(orig_block)
    def scan_block(task):
        saved = rec.detach()
        try:
            with rec.span("parallel.block"):
                idx, result = orig_block(task)
        finally:
            spans = rec.reattach(saved)
        result.bench_spans = spans
        return idx, result

    par_mod._scan_block = scan_block
    undo.append((par_mod, "_scan_block", orig_block))

    def restore():
        for owner, attr, orig in reversed(undo):
            setattr(owner, attr, orig)

    return restore


"""Per-layer metrics from the traced scans.

Times and counts are per scan (the median over the run's traced scans).
In the parallel workload the layer times are summed over worker
processes, so they are CPU seconds rather than wall seconds; compare them
with ``parallel.busy_s``. A layer the workload does not reach reports 0.
"""

from __future__ import annotations

from collections import Counter

from stats import median
from tracing import ATTRS, NAME, count, durations, self_times, sum_attr

#: (name, unit) of every per-layer metric, in report order.
PER_LAYER = (
    ("ingest.index_s", "s"),
    ("ingest.s", "s"),
    ("ingest.chunks", "count"),
    ("ingest.mb_per_s", "MB/s"),
    ("plan.s", "s"),
    ("operands.s", "s"),
    ("operands.calls", "count"),
    ("operands.bytes", "bytes"),
    ("tile_fill.s", "s"),
    ("tile_fill.calls", "count"),
    ("tile_fill.entries", "count"),
    ("tile_fill.gflops", "GFLOP/s"),
    ("tile_fill.frac_gemm_peak", "ratio"),
    ("region.s", "s"),
    ("region.gb_per_s", "GB/s"),
    ("region.frac_memcpy_peak", "ratio"),
    ("ld.reuse_fraction", "ratio"),
    ("dp.s", "s"),
    ("dp.builds", "count"),
    ("dp.extends", "count"),
    ("dp.views", "count"),
    ("dp.reuse_fraction", "ratio"),
    ("gather.s", "s"),
    ("gather.gb_per_s", "GB/s"),
    ("eq2.s", "s"),
    ("eq2.mscores_per_s", "Mscores/s"),
    ("eq2.us_per_position", "us"),
    ("batch.s", "s"),
    ("batch.share", "ratio"),
    ("parallel.start_s", "s"),
    ("parallel.busy_s", "s"),
    ("parallel.efficiency", "ratio"),
    ("tilestore.hit_ratio", "ratio"),
    ("merge.s", "s"),
    ("host.gemm_gflops", "GFLOP/s"),
    ("host.memcpy_gb_s", "GB/s"),
    ("trace.overhead", "ratio"),
    ("trace.coverage", "ratio"),
)

#: Bytes a region copy or a cross-sum gather writes per float64 entry.
ENTRY_BYTES = 8


def _ratio(num, den):
    return num / den if den else 0.0


def scan_raw(payload: dict, n_samples: int, parallel: bool) -> dict:
    """Raw per-scan quantities from one traced scan's spans and report."""
    spans = payload["spans"]
    work_lists = payload["worker_spans"] if parallel else [spans]
    every = [spans] + list(payload["worker_spans"])
    st: Counter = Counter()
    for lst in every:
        st.update(self_times(lst))

    def total(fn, *a):
        return sum(fn(lst, *a) for lst in every)

    root = "parallel.block" if parallel else "scan"
    root_time = sum(durations(lst, root) for lst in work_lists)
    root_self = sum(self_times(lst).get(root, 0.0) for lst in work_lists)
    ops_bytes = {}
    actions: Counter = Counter()
    shapes: Counter = Counter()
    for lst in every:
        for s in lst:
            attrs = s[ATTRS]
            if s[NAME] == "operands":
                ops_bytes[attrs["ops_id"]] = attrs["bytes"]
            elif s[NAME] == "dp":
                actions[attrs["action"]] += 1
            elif s[NAME] == "tile_fill":
                shapes[attrs["shape"]] += attrs["entries"]
    counters = payload["counters"]
    entries = total(sum_attr, "tile_fill", "entries")
    return {
        "ingest.index_s": st["ingest.index"],
        "ingest.s": st["ingest"],
        "ingest.chunks": count(spans, "ingest"),
        "plan.s": st["plan"],
        "operands.s": st["operands"],
        "operands.calls": total(count, "operands"),
        "operands.bytes": sum(ops_bytes.values()),
        "tile_fill.s": st["tile_fill"] + st["tile_store"],
        "tile_fill.calls": total(count, "tile_fill"),
        "tile_fill.entries": entries,
        "tile_fill.flops": 2.0 * n_samples * entries,
        "region.s": st["region"],
        "region.entries": total(sum_attr, "region", "entries"),
        "ld.reuse_fraction": payload["reuse_fraction"],
        "dp.s": st["dp"],
        "dp.builds": actions["build"],
        "dp.extends": actions["extend"],
        "dp.views": actions["view"],
        "dp.reuse_fraction": payload["dp_reuse_fraction"],
        "gather.s": st["gather"],
        "gather.entries": total(sum_attr, "gather", "entries"),
        "eq2.s": st["eq2"],
        "eq2.evals": total(sum_attr, "eq2", "evals"),
        "eq2.positions": sum(
            1 for lst in every for s in lst if "evals" in s[ATTRS]
        ),
        "batch.s": st["batch"],
        "batch.share": _ratio(
            counters.get("omega.batched_positions", 0),
            counters.get("omega.batched_positions", 0)
            + counters.get("omega.direct_positions", 0),
        ),
        "parallel.start_s": durations(spans, "parallel.start"),
        "parallel.busy_s": total(durations, "parallel.block"),
        "scan.wall_s": durations(spans, "scan"),
        "tilestore.hit_ratio": _ratio(
            counters.get("tilestore.hits", 0),
            counters.get("tilestore.hits", 0)
            + counters.get("tilestore.fills", 0),
        ),
        "merge.s": st["merge"],
        "root.s": root_time,
        "root.self_s": root_self,
        "fill_shapes": shapes,
    }


def _weighted_median(pairs):
    """Median of ``(value, weight)`` pairs, each value counted by weight."""
    pairs = sorted(pairs)
    half = sum(w for _v, w in pairs) / 2
    run = 0
    for value, weight in pairs:
        run += weight
        if run >= half:
            return value
    raise ValueError("weighted median of no values")


def typical_fill_shape(raws):
    """Entry-weighted median (rows, cols) of the traced tile fills, or
    None when no scan filled a tile."""
    shapes: Counter = Counter()
    for r in raws:
        shapes.update(r["fill_shapes"])
    if not shapes:
        return None
    return (
        _weighted_median([(s[0], n) for s, n in shapes.items()]),
        _weighted_median([(s[1], n) for s, n in shapes.items()]),
    )


def summarize(raws, *, untraced_scan_s, n_workers, input_bytes, ceilings):
    """Fold per-scan raw quantities into the :data:`PER_LAYER` values."""
    from repro.accel.roofline import KernelCharacter, roofline_rate

    m = {k: median([r[k] for r in raws]) for k in raws[0] if k != "fill_shapes"}
    gemm, bw = ceilings["gemm_gflops"], ceilings["memcpy_gb_s"]
    fill_rate = _ratio(m["tile_fill.entries"], m["tile_fill.s"])
    region_rate = _ratio(m["region.entries"], m["region.s"])
    fill_roof = roofline_rate(
        KernelCharacter("r2 tile fill", 2.0 * ceilings["n_samples"],
                        ENTRY_BYTES),
        compute_peak_flops=gemm * 1e9, mem_bandwidth=bw * 1e9,
    )
    copy_roof = roofline_rate(
        KernelCharacter("region copy", 1.0, ENTRY_BYTES),
        compute_peak_flops=gemm * 1e9, mem_bandwidth=bw * 1e9,
    )
    out = {k: m[k] for k, _unit in PER_LAYER if k in m}
    out.update({
        "ingest.mb_per_s": _ratio(
            m["ingest.chunks"] * input_bytes / 1e6, m["ingest.s"]
        ),
        "tile_fill.gflops": _ratio(m["tile_fill.flops"] / 1e9,
                                   m["tile_fill.s"]),
        "tile_fill.frac_gemm_peak": fill_rate / fill_roof,
        "region.gb_per_s": _ratio(
            m["region.entries"] * ENTRY_BYTES / 1e9, m["region.s"]
        ),
        "region.frac_memcpy_peak": region_rate / copy_roof,
        "gather.gb_per_s": _ratio(
            m["gather.entries"] * ENTRY_BYTES / 1e9, m["gather.s"]
        ),
        "eq2.mscores_per_s": _ratio(m["eq2.evals"] / 1e6, m["eq2.s"]),
        "eq2.us_per_position": _ratio(m["eq2.s"] * 1e6, m["eq2.positions"]),
        "parallel.efficiency": _ratio(
            m["parallel.busy_s"], m["scan.wall_s"] * n_workers
        ) if n_workers > 1 else 0.0,
        "host.gemm_gflops": gemm,
        "host.memcpy_gb_s": bw,
        "trace.overhead": m["scan.wall_s"] / untraced_scan_s - 1.0,
        "trace.coverage": 1.0 - _ratio(m["root.self_s"], m["root.s"]),
    })
    return {k: float(out[k]) for k, _unit in PER_LAYER}

"""One workload's driver process: set up, then scan in a closed loop.

Run by ``run.py`` from the root of a checkout, with BLAS pinned to one
thread. Every timed scan runs in a child forked from this process after
set-up, so each scan starts from the state a command-line user gets: a
fresh alignment (or session) that no earlier scan in the process has
seen, no operand planes memoised by earlier scans, and a process-wide
cost model no earlier scan has calibrated. The child ships its timing,
report and peak RSS back over a pipe and exits.

``--setup-probe`` only sets up, prints ``ready`` and exits; ``run.py``
times it from process start to that line.
"""

from __future__ import annotations

import argparse
import json
import os
import pickle
import resource
import select
import signal
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.getcwd(), "src"))

import numpy as np  # noqa: E402

import checks  # noqa: E402
import host  # noqa: E402
import layers  # noqa: E402
import stats  # noqa: E402
import tracing  # noqa: E402
from workloads import LENGTH_BP, WORK_DIR, WORKLOADS  # noqa: E402

#: A scan child that has not reported after this long is killed and
#: counted as failed.
SCAN_TIMEOUT_S = 120.0


class Setup:
    """Everything that is ready before the first scan: the program's
    modules, the config, and the input (arrays in memory, or an indexed
    streaming reader)."""

    def __init__(self, workload, path):
        from repro.core.grid import GridSpec
        from repro.core.scan import OmegaConfig

        self.w = workload
        self.path = path
        self.config = OmegaConfig(
            grid=GridSpec(
                n_positions=workload.n_positions,
                max_window=workload.max_window,
            )
        )
        if workload.mode == "stream":
            from repro.datasets.streaming import StreamingAlignmentReader

            self.reader = StreamingAlignmentReader(path, length=LENGTH_BP)
        else:
            with np.load(path) as data:
                self.matrix = data["matrix"]
                self.positions = data["positions"]

    def alignment(self):
        from repro.datasets.alignment import SNPAlignment

        return SNPAlignment(
            matrix=self.matrix, positions=self.positions, length=LENGTH_BP
        )

    def session(self):
        from repro.core.parallel import ParallelScanSession

        return ParallelScanSession(
            self.alignment(), self.config, n_workers=self.w.n_workers
        )


def _scan(setup: Setup, rec):
    """Run one scan; returns ``(seconds, result)``. ``rec`` (a tracing
    recorder or None) wraps the timed call in the root span."""
    from repro.core.scan import OmegaPlusScanner, scan_stream
    from repro.datasets.streaming import StreamingAlignmentReader

    w = setup.w
    session = None
    if w.mode == "memory":
        aln = setup.alignment()
        scanner = OmegaPlusScanner(setup.config)
        call = lambda: scanner.scan(aln)  # noqa: E731
    elif w.mode == "parallel":
        session = setup.session()
        session.start()
        call = session.scan
    else:
        reader = setup.reader
        if rec is not None:
            # Times the index pass (ingest.index) in the traced child; the
            # scan itself reuses the reader set up before the loop.
            StreamingAlignmentReader(setup.path, length=LENGTH_BP)
        call = lambda: scan_stream(  # noqa: E731
            reader, setup.config, snp_budget=w.snp_budget
        )
    try:
        t0 = time.perf_counter()
        if rec is None:
            result = call()
        else:
            with rec.span("scan"):
                result = call()
        seconds = time.perf_counter() - t0
    finally:
        if session is not None:
            session.close()
    return seconds, result


def _child(setup: Setup, traced: bool, want_report: bool) -> dict:
    rec = None
    if traced:
        rec = tracing.Recorder()
        tracing.install(rec)
    seconds, result = _scan(setup, rec)
    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    counters = (result.metrics or {}).get("counters", {})
    payload = {
        "scan_s": seconds,
        "digest": stats.digest(result),
        "evals": int(result.n_evaluations.sum()),
        "rss_mb": (self_kb + kids_kb) / 1024.0,
        "counters": counters,
        "reuse_fraction": result.reuse.reuse_fraction,
        "dp_reuse_fraction": result.reuse.dp_reuse_fraction,
    }
    if want_report:
        payload["report"] = result
    if rec is not None:
        payload["spans"] = rec.spans
        payload["worker_spans"] = rec.worker_spans
    return payload


def in_child(fn, *args) -> dict:
    """Run ``fn(*args)`` in a forked child; returns its dict, or
    ``{"error": text}`` when it raised, died, timed out or left a
    shared-memory segment behind."""
    rfd, wfd = os.pipe()
    pid = os.fork()
    if pid == 0:
        # Own process group, so a timeout also kills the child's workers.
        os.setpgid(0, 0)
        os.close(rfd)
        code = 0
        try:
            try:
                out = fn(*args)
            except BaseException:  # noqa: BLE001 - shipped to the parent
                out = {"error": traceback.format_exc()}
                code = 1
            data = pickle.dumps(out)
            with os.fdopen(wfd, "wb") as fh:
                fh.write(data)
        finally:
            os._exit(code)
    os.close(wfd)
    chunks = []
    deadline = time.monotonic() + SCAN_TIMEOUT_S
    timed_out = False
    with os.fdopen(rfd, "rb") as fh:
        while True:
            left = deadline - time.monotonic()
            ready, _, _ = select.select([fh], [], [], max(left, 0))
            if not ready:
                timed_out = True
                os.killpg(pid, signal.SIGKILL)
                break
            data = os.read(fh.fileno(), 1 << 20)
            if not data:
                break
            chunks.append(data)
    os.waitpid(pid, 0)
    if timed_out:
        out = {"error": f"timed out after {SCAN_TIMEOUT_S} s"}
    else:
        try:
            out = pickle.loads(b"".join(chunks))
        except (pickle.UnpicklingError, EOFError) as exc:
            out = {"error": f"child died without a result: {exc!r}"}
    leaked = checks.shm_left_by(pid)
    if leaked:
        out.setdefault("error", f"left shared memory behind: {leaked}")
    return out


def _reference(setup: Setup) -> dict:
    """Sequential in-memory scan of the same input.

    For the parallel workload it also scans each scheduling block of the
    grid on its own, in order: a worker scans exactly that, re-anchoring
    the window-sum DP at its block's first position, so the parallel
    report must equal this block-wise report bitwise.
    """
    import dataclasses

    from repro.core.grid import fixed_position_spec
    from repro.core.parallel import make_blocks
    from repro.core.results import merge_scan_results
    from repro.core.scan import OmegaPlusScanner

    cfg = setup.config
    if setup.w.mode == "stream":
        from repro.datasets.msformat import parse_ms

        aln = parse_ms(setup.path, length=LENGTH_BP)[0].alignment
    else:
        aln = setup.alignment()
    whole = OmegaPlusScanner(cfg).scan(aln)
    out = {"digest": stats.digest(whole), "report": whole}
    if setup.w.mode == "stream":
        out["matrix"] = aln.matrix
    if setup.w.mode == "parallel":
        grid = cfg.grid.positions(aln)
        parts = [
            OmegaPlusScanner(dataclasses.replace(
                cfg, grid=fixed_position_spec(cfg.grid, grid[lo:hi])
            )).scan(aln)
            for lo, hi in make_blocks(grid.size, setup.w.n_workers)
        ]
        out["digest"] = stats.digest(merge_scan_results(parts))
    return out


def verify(setup: Setup, first: dict, seed: int):
    """Check the first scan's report; returns ``(errors, notes)``.

    The streamed report must equal the sequential in-memory scan of the
    same input bitwise, and the parallel one the block-wise sequential
    scan (see :func:`_reference`). Every report is then oracle checked at
    sampled positions. Later scans are compared with the first by digest.
    """
    from repro.core.grid import build_plans_from_positions

    errors, notes = [], []
    report = first["report"]
    matrix = getattr(setup, "matrix", None)
    if setup.w.mode != "memory":
        ref = in_child(_reference, setup)
        if "error" in ref:
            return ["reference scan failed: " + ref["error"]], notes
        matrix = ref.get("matrix", matrix)
        if ref["digest"] != first["digest"]:
            errors.append(f"{setup.w.mode} report differs bitwise from the "
                          f"sequential in-memory scan")
        if setup.w.mode == "parallel":
            n_differ, worst = checks.omega_drift(report, ref["report"])
            notes.append(
                f"parallel ω differs from the whole-grid sequential scan "
                f"at {n_differ} of {len(report)} positions (largest "
                f"relative difference {worst:.3g})"
            )
    site_positions = (
        setup.reader.positions if setup.w.mode == "stream"
        else setup.positions
    )
    plans = build_plans_from_positions(site_positions, setup.config.grid)
    errors += checks.check_sampled(
        matrix, site_positions, plans, report, setup.config.eps,
        np.random.default_rng(seed),
    )
    return errors, notes


def run(setup: Setup, seconds: float, trace: bool, seed: int) -> dict:
    """Closed loop of scans for ``seconds``; with ``trace`` every other
    scan is traced, so traced and untraced scans share the run's
    conditions."""
    scans = []
    deadline = time.monotonic() + seconds
    while len(scans) < 1 + trace or time.monotonic() < deadline:
        traced = trace and len(scans) % 2 == 1
        out = in_child(_child, setup, traced, not scans)
        out["traced"] = traced
        scans.append(out)
    first = scans[0]
    if "error" in first:
        errors, notes = ["first scan failed: " + first["error"]], []
    else:
        errors, notes = verify(setup, first, seed)
    ref_digest = None if errors else first["digest"]
    ok = [
        "error" not in s and s["digest"] == ref_digest for s in scans
    ]
    errors += [s["error"] for s in scans if "error" in s][:3]
    good = [s for s, k in zip(scans, ok) if k]
    plain = [s for s in good if not s["traced"]]
    out = {
        "attempted": len(scans),
        "failed": ok.count(False),
        "correct": not errors and all(ok),
        "errors": errors,
        "notes": notes,
        "digest": ref_digest,
        "scan_s_samples": [s["scan_s"] for s in plain],
        "evals": first.get("evals", 0),
        "rss_mb_samples": [s["rss_mb"] for s in plain],
        "fingerprint": host.fingerprint(),
    }
    if setup.w.paper_row is not None:
        from repro.analysis.paper_values import TABLE3

        out["paper_cpu_omega"] = TABLE3[setup.w.paper_row]["cpu_omega"]
    traced_scans = [s for s in good if s["traced"]]
    if trace and traced_scans and plain:
        out["layers"] = trace_layers(setup, traced_scans, plain)
        out["spans_path"] = write_spans(setup.w.name, traced_scans)
    return out


def write_spans(name: str, traced_scans) -> str:
    """Write the traced scans' spans, one JSON object per scan, next to
    the inputs; returns the path."""
    path = os.path.join(WORK_DIR, f"{name}.spans.jsonl")
    with open(path, "w", encoding="utf-8") as fh:
        for k, scan in enumerate(traced_scans):
            fh.write(json.dumps({
                "scan": k,
                "fields": ["name", "start_ns", "end_ns", "parent", "attrs"],
                "spans": scan["spans"],
                "worker_spans": scan["worker_spans"],
            }) + "\n")
    return path


def trace_layers(setup: Setup, traced_scans, plain) -> dict:
    w = setup.w
    parallel = w.mode == "parallel"
    raws = [layers.scan_raw(s, w.n_samples, parallel) for s in traced_scans]
    shape = layers.typical_fill_shape(raws) or (64, 64)
    llc = host.llc_bytes()
    memcpy, copy_bytes = host.memcpy_gb_s(llc)
    ceilings = {
        "gemm_gflops": host.gemm_gflops(w.n_samples, *shape),
        "memcpy_gb_s": memcpy,
        "n_samples": w.n_samples,
    }
    values = layers.summarize(
        raws,
        untraced_scan_s=stats.median([s["scan_s"] for s in plain]),
        n_workers=w.n_workers,
        input_bytes=os.path.getsize(setup.path) if w.mode == "stream" else 0,
        ceilings=ceilings,
    )
    return {
        "values": values,
        "traced_scans": len(traced_scans),
        "gemm_shape": [w.n_samples, *shape],
        "llc_bytes": llc,
        "memcpy_array_bytes": copy_bytes,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--input", required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--setup-probe", action="store_true")
    args = ap.parse_args(argv)
    w = WORKLOADS[args.workload]
    setup = Setup(w, args.input)
    if args.setup_probe:
        if w.mode == "parallel":
            with setup.session():
                print("ready", flush=True)
        else:
            print("ready", flush=True)
        return 0
    out = run(setup, args.seconds, bool(args.trace), args.seed)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""The repository benchmark: one workload, one closed-loop client.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload balanced --seed 1 --seconds 16 --trace 0

Writes the seeded input under ``.bench_work/``, times the program's
set-up in several fresh processes, then starts one driver process that
scans the input in a closed loop for ``--seconds`` and checks every
report. Prints each metric by name with its unit; the last line is one
JSON object: the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``. See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from checks import shm_left_by  # noqa: E402
from layers import PER_LAYER  # noqa: E402
from stats import median, tail  # noqa: E402
from workloads import WORK_DIR, WORKLOADS, write_inputs  # noqa: E402

#: Fresh processes timed for ``setup_s``; the median is reported.
SETUP_PROBES = 9
#: The driver gets this long beyond ``--seconds`` for set-up, the last
#: scan and the correctness checks before it is killed.
DRIVER_SLACK_S = 100.0

END_TO_END = (
    ("scan_s", "s"),
    ("mscores_per_s", "Mscores/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(os.getcwd(), "src")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def probe_setup(name, path) -> float:
    """Seconds from starting a process until it reports ready to scan."""
    cmd = [sys.executable, os.path.join(HERE, "driver.py"),
           "--workload", name, "--input", path, "--setup-probe"]
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, env=child_env(),
                          text=True) as proc:
        line = proc.stdout.readline()
        ready = time.perf_counter() - t0
        proc.stdout.read()
        code = proc.wait(timeout=60)
    if line.strip() != "ready" or code != 0:
        raise RuntimeError(f"set-up probe failed (exit {code})")
    leaked = shm_left_by(proc.pid)
    if leaked:
        raise RuntimeError(f"set-up probe left shared memory: {leaked}")
    return ready


def run_driver(name, args, path) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "driver.py"),
           "--workload", name, "--input", path,
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--seed", str(args.seed)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, env=child_env(),
                          text=True, timeout=args.seconds + DRIVER_SLACK_S)
    if proc.returncode != 0:
        raise RuntimeError(f"driver exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(WORKLOADS) + ["all"],
                    help="one workload, or all of them in turn")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join("src", "repro", "__init__.py")):
        print("run.py: no src/repro here; run it from the root of a "
              "checkout of the repository", file=sys.stderr)
        return 2
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    return max(run_workload(WORKLOADS[name], args) for name in names)


def run_workload(w, args) -> int:
    """Measure one workload and print its metrics; returns the exit code."""
    path = write_inputs(w, args.seed, WORK_DIR)
    try:
        setups = [probe_setup(w.name, path) for _ in range(SETUP_PROBES)]
        out = run_driver(w.name, args, path)
    finally:
        os.remove(path)

    for err in out["errors"]:
        print(f"check failed: {err}")
    for note in out["notes"]:
        print(f"note: {note}")
    if not out["scan_s_samples"]:
        print("no scan passed its checks", file=sys.stderr)
        return 1
    scan = median(out["scan_s_samples"])
    n = len(out["scan_s_samples"])
    e2e = {
        "scan_s": scan,
        "mscores_per_s": out["evals"] / scan / 1e6,
        "setup_s": median(setups),
        "peak_rss_mb": median(out["rss_mb_samples"]),
    }
    fp = out["fingerprint"]
    print(f"workload {w.name}: {w.n_samples} samples x {w.n_sites} SNPs, "
          f"{w.snps_per_side} SNPs/side, {w.n_positions} positions, "
          f"mode {w.mode}, seed {args.seed}")
    print(f"host: {fp['cpu']}, nproc {fp['nproc']}, numpy {fp['numpy']}, "
          f"BLAS {fp['blas']} x {fp['blas_threads']} thread(s)")
    print(f"report sha256 {out['digest']}")
    for name, unit in END_TO_END:
        print(f"{name} {e2e[name]:.6g} {unit}")
    tl = tail(out["scan_s_samples"])
    tail_text = (f"p{tl[0]} {tl[1]:.6g} s" if tl
                 else "too few samples for a tail at or above the median")
    print(f"scan_s samples {n}, median {scan:.6g} s, {tail_text}")
    print(f"failed_fraction {out['failed'] / out['attempted']:.6g} ratio "
          f"({out['failed']} of {out['attempted']} scans)")
    if "paper_cpu_omega" in out:
        ref = out["paper_cpu_omega"]
        print(f"paper context: {e2e['mscores_per_s']:.4g} Mscores/s vs "
              f"Table III cpu_omega {ref} Mscores/s for {w.paper_row} "
              f"(ratio {e2e['mscores_per_s'] / ref:.3f}; not gated)")

    if args.trace:
        lay = out.get("layers")
        if lay is None:
            print("no traced scan completed")
            return 1
        print(f"spans written to {out['spans_path']}")
        print(f"traced scans {lay['traced_scans']}; GEMM ceiling at "
              f"{lay['gemm_shape']} (samples, rows, cols); memcpy ceiling "
              f"on 2 x {lay['memcpy_array_bytes'] >> 20} MiB arrays, "
              f"LLC {lay['llc_bytes'] >> 20} MiB")
        metrics = {name: {"value": lay["values"][name], "unit": unit}
                   for name, unit in PER_LAYER}
    else:
        metrics = {name: {"value": e2e[name], "unit": unit}
                   for name, unit in END_TO_END}
    for name, m in metrics.items():
        if args.trace:
            print(f"{name} {m['value']:.6g} {m['unit']}")
    print(json.dumps({
        "correct": bool(out["correct"]),
        "attempted": int(out["attempted"]),
        "failed": int(out["failed"]),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

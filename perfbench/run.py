#!/usr/bin/env python3
"""magnc benchmark: four workloads through the package's public API.

Run from the repository root:

    python3 perfbench/run.py --workload pairings --seed 1 --seconds 6 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 6

A run of one workload is one fresh process.  It times ``ceil(seconds /
nominal pass time)`` passes of identical work (at least one; a pass is never
cut short) and prints a detail line ``report: {...}`` followed, as the last
line, by ``{"correct", "attempted", "failed", "metrics"}``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.

``wall_s`` (and ``trace.wall_s``) is the median wall time of the passes
whose results were verified: a pass with an operation that was cut short or
that the gate rejects is left out (see ``bench_workloads``); with no such
pass the metric is absent and the run is not correct.
``--workload all`` runs every workload untraced and traced in fresh
processes and prints every metric with its unit and sample count, the
tracing overhead, and whether traced and untraced runs produced identical
check records.

The package is imported from ``src/`` next to this directory and nowhere
else; without it the benchmark exits with code 2.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKLOADS = ("pairings", "kernel-quadrature", "truncation-sweep", "verify-all")
SETUP_SAMPLES = 3

# End-to-end metrics gated by BENCHMARK.json, then the ones only reported.
GATED = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
REPORTED = {"op_p50_ms": "ms", "op_p90_ms": "ms", "fail_ratio": "ratio", "tol_use_max": "ratio"}


def blas_threads() -> int:
    """Cap BLAS/OpenMP threads at the CPUs this process may use; must run
    before numpy is imported."""
    nproc = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        cur = os.environ.get(var, "")
        if not cur.isdigit() or not 1 <= int(cur) <= nproc:
            os.environ[var] = str(nproc)
    return int(os.environ["OPENBLAS_NUM_THREADS"])


def git_sha() -> str:
    """HEAD of the checkout, looking for a repository no higher than it."""
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], env=env,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def provenance(threads: int, seed: int, params: dict) -> dict:
    import numpy as np
    import scipy

    def blas(mod):
        cfg = mod.show_config(mode="dicts")
        dep = cfg.get("Build Dependencies", {}).get("blas", {})
        return f"{dep.get('name', '?')} {dep.get('version', '?')}"

    return {"nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__,
            "blas_numpy": blas(np), "blas_scipy": blas(scipy),
            "blas_threads": threads, "blas_threads_source": "OPENBLAS_NUM_THREADS as set",
            "git_sha": git_sha(), "seed": seed, "params": params}


def percentile_ms(samples: list, q: int):
    """The q-th percentile in ms, or None unless >= 10 samples lie beyond it."""
    n = len(samples)
    if n * (100 - q) / 100 < 10:
        return None
    return 1e3 * statistics.quantiles(samples, n=100, method="inclusive")[q - 1]


def measure_setup(workload: str, seed: int) -> list[float]:
    """Wall time of fresh processes that import magnc, build the inputs and
    warm up, as a user pays them."""
    times = []
    for _ in range(SETUP_SAMPLES):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, str(Path(__file__).resolve()), "--setup-only",
                        "--workload", workload, "--seed", str(seed)],
                       check=True, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - t0)
    return times


def run_workload(name: str, seed: int, seconds: int, trace: bool, threads: int) -> dict:
    import bench_workloads

    setup_times = measure_setup(name, seed)
    wl = bench_workloads.workloads(OUT)[name]
    state = wl.setup(seed)
    tracer = None
    if trace:
        import bench_trace

        tracer = bench_trace.Tracer()
        tracer.install()
    passes = max(1, math.ceil(seconds / wl.nominal_pass_s))
    pass_times, verified, ops = [], [], []
    for p in range(passes):
        t0 = time.perf_counter()
        pass_ops = wl.run_pass(state, p)
        pass_times.append(time.perf_counter() - t0)
        if all(o.status in ("ok", "flagged") for o in pass_ops):
            verified.append(pass_times[-1])
        ops += pass_ops
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    wrong = [o for o in ops if o.status == "wrong"]
    failed = [o for o in ops if o.status != "ok"]
    latencies = [o.seconds for o in ops if o.seconds is not None and o.name in ("triple", "context")]
    tol_use = [u for o in ops if o.status == "ok" for u in o.tol_use]
    wall = statistics.median(verified) if verified else None
    e2e = {
        "wall_s": (wall, len(verified)),
        "setup_s": (statistics.median(setup_times), len(setup_times)),
        "peak_rss_mb": (rss_mb, 1),
        "op_p50_ms": (percentile_ms(latencies, 50), len(latencies)),
        "op_p90_ms": (percentile_ms(latencies, 90), len(latencies)),
        "fail_ratio": (len(failed) / len(ops), len(ops)),
        "tol_use_max": (max(tol_use) if tol_use else None, len(tol_use)),
    }
    units = {**GATED, **REPORTED}
    report = {
        "workload": name, "trace": int(trace), "passes": passes,
        "end_to_end": {k: {"value": v, "unit": units[k], "samples": n} for k, (v, n) in e2e.items()},
        "pass_s": pass_times, "setup_samples_s": setup_times,
        "checks_sha256": hashlib.sha256(json.dumps(
            [[o.name, o.status, o.record] for o in ops], sort_keys=True).encode()).hexdigest(),
        "failures": [{"op": o.name, "status": o.status, "note": o.note} for o in failed],
        "provenance": provenance(threads, seed, wl.params(seed)),
    }
    if tracer is not None:
        metrics = tracer.metrics(wall, passes)
        report["rebound"] = tracer.rebound
        spans = OUT / f"spans-{name}-seed{seed}.json"
        tracer.write(spans)
        report["spans_file"] = str(spans.relative_to(ROOT))
    else:
        metrics = {k: {"value": e2e[k][0], "unit": u} for k, u in GATED.items()
                   if e2e[k][0] is not None}
    print("report: " + json.dumps(report, sort_keys=True, default=str))
    return {"correct": not wrong and wall is not None, "attempted": len(ops),
            "failed": len(failed), "metrics": metrics}


def run_all(seed: int, seconds: int) -> dict:
    """Every workload untraced and traced, each in a fresh process."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        runs = {}
        for trace in (0, 1):
            proc = subprocess.run([sys.executable, str(Path(__file__).resolve()),
                                   "--workload", name, "--seed", str(seed),
                                   "--seconds", str(seconds), "--trace", str(trace)],
                                  check=True, capture_output=True, text=True)
            lines = proc.stdout.strip().splitlines()
            detail = next(json.loads(ln[8:]) for ln in lines if ln.startswith("report: "))
            runs[trace] = (detail, json.loads(lines[-1]))
        (plain, res), (traced, tres) = runs[0], runs[1]
        identical = plain["checks_sha256"] == traced["checks_sha256"]
        walls = (tres["metrics"]["trace.wall_s"]["value"], plain["end_to_end"]["wall_s"]["value"])
        overhead = None if None in walls else walls[0] - walls[1]
        print(f"== {name}  (seed {seed}, {plain['passes']} passes, "
              f"attempted {res['attempted']}, failed {res['failed']}, correct {res['correct']})")
        for metric, m in plain["end_to_end"].items():
            shown = "n/a" if m["value"] is None else f"{m['value']:.6g}"
            print(f"   {metric:<14} {shown:>24} {m['unit']:<6} n={m['samples']}")
        shown = "n/a (no verified pass)" if overhead is None else f"{overhead:+.4g} s per pass"
        print(f"   trace overhead  {shown} (traced minus untraced wall_s)")
        print(f"   traced and untraced check records identical: {identical}")
        for metric, m in tres["metrics"].items():
            if m["value"]:
                print(f"   {metric:<52} {m['value']:>14.6g} {m['unit']}")
        for f in plain["failures"]:
            print(f"   FAILED {f['op']}: {f['status']} ({f['note']})")
        total["correct"] &= res["correct"] and tres["correct"] and identical
        total["attempted"] += res["attempted"]
        total["failed"] += res["failed"]
        for metric, m in plain["end_to_end"].items():
            total["metrics"][f"{name}.{metric}"] = {"value": m["value"], "unit": m["unit"]}
        total["metrics"][f"{name}.trace_overhead_s"] = {"value": overhead, "unit": "s"}
    return total


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=6)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if not (SRC / "magnc" / "__init__.py").is_file():
        print(f"error: no magnc package under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    if args.seconds < 1:
        print("error: --seconds must be at least 1", file=sys.stderr)
        return 2
    threads = blas_threads()
    sys.path.insert(0, str(SRC))
    import magnc

    if Path(magnc.__file__).resolve().parent != SRC / "magnc":
        print(f"error: imported magnc from {magnc.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.setup_only:
        import bench_workloads

        bench_workloads.workloads(OUT)[args.workload].setup(args.seed)
        return 0
    OUT.mkdir(exist_ok=True)
    if args.workload == "all":
        result = run_all(args.seed, args.seconds)
    else:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), threads)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())

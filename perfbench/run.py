#!/usr/bin/env python3
"""Benchmark of the robustcbf safety filter.

Usage, from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: circle22, replay22-cold, union22-3x256 (see perfbench/README.md).
With --trace 0 the run measures the end-to-end metrics with tracing off;
with --trace 1 it wraps each layer boundary in spans and reports the
per-layer metrics instead.  The last line of standard output is one JSON
object {"correct", "attempted", "failed", "metrics"}; a fuller record,
with the behaviour digest and machine facts, goes to perfbench/out/results/.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

WORKLOADS = ("circle22", "replay22-cold", "union22-3x256")

END_TO_END_UNITS = {
    "setup_s": "s",
    "steps_per_s": "1/s",
    "filter_ms_p50": "ms",
    "filter_ms_p99": "ms",
    "ok_frac": "ratio",
    "peak_rss_mb": "MB",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


# -- machine facts ------------------------------------------------------------


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas_threads():
    """Thread count reported by the OpenBLAS library numpy loaded, if any."""
    try:
        maps = Path("/proc/self/maps").read_text().splitlines()
    except OSError:
        return None
    libraries = {line.split()[-1] for line in maps if "openblas" in line and ".so" in line}
    for path in sorted(libraries):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _git_commit() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10, env=env,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown (not a git checkout)"


def machine_facts() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version', '')}".strip()
    except (KeyError, TypeError, ValueError):
        blas_name = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_name,
        "blas_threads": _blas_threads(),
        "git_commit": _git_commit(),
    }


PER_LAYER_UNITS = {
    "sim.step_ms_p50": "ms",
    "sim.step_ms_p99": "ms",
    "sim.controller_ms": "ms",
    "sim.plant_disturbance_ms": "ms",
    "sim.self_ms": "ms",
    "dynamics.step_dynamics_ms": "ms",
    "dynamics.calls_per_step": "count",
    "safety_filter.filter_ms_p50": "ms",
    "safety_filter.filter_ms_p99": "ms",
    "safety_filter.self_ms": "ms",
    "safety_filter.fallbacks": "count",
    "barrier.assemble_ms": "ms",
    "barrier.self_ms": "ms",
    "barrier.rows": "count",
    "disturbance.margin_ms": "ms",
    "disturbance.margin_calls": "count",
    "disturbance.row_vertex_products": "count",
    "disturbance.margin_ns_per_product": "ns",
    "disturbance.plant_ms": "ms",
    "disturbance.probe_p64_ns_per_product": "ns",
    "disturbance.probe_p4096_ns_per_product": "ns",
    "qp.problem_ms": "ms",
    "qp.solve_ms_p50": "ms",
    "qp.solve_ms_p99": "ms",
    "qp.iterations_mean": "count",
    "qp.iterations_max": "count",
    "qp.active_rows_mean": "count",
    "qp.stacked_rows": "count",
    "qp.zero_iteration_ratio": "ratio",
    "cli.load_config_ms": "ms",
    "cli.export_ms": "ms",
    "cli.export_bytes": "bytes",
    "trace.untraced_steps_per_s": "1/s",
    "trace.traced_steps_per_s": "1/s",
    "trace.overhead_frac": "ratio",
}


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        import workloads
    except ImportError as exc:
        print(f"cannot import the program under test from src/: {exc}", file=sys.stderr)
        return 2
    if not workloads.SCENARIO.is_file():
        print(f"scenario file not found: {workloads.SCENARIO}", file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    tally = workloads.Tally()
    try:
        result = workloads.run(args.workload, args.seed, args.seconds, bool(args.trace),
                               work, tally)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    metrics = result["metrics"]
    tracer = result.pop("tracer", None)
    notes = list(tally.notes)
    if args.trace:
        units = PER_LAYER_UNITS
        notes += [f"not measured: {name}" for name in tracer.not_measured]
    else:
        metrics["setup_s"] = statistics.median(scaled for scaled, _ in result["setup_s"])
        metrics["ok_frac"] = 1.0 - tally.failed / tally.attempted if tally.attempted else 0.0
        metrics["peak_rss_mb"] = peak_rss_mb
        units = END_TO_END_UNITS
    out = {
        "correct": tally.failed == 0 and tally.attempted > 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    results_dir = OUT / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    record = dict(out, workload=args.workload, seed=args.seed, seconds=args.seconds,
                  digest=result.get("digest"), samples=result.get("samples"),
                  setup_samples_s=result.get("setup_s"), failures=tally.reasons,
                  notes=notes, machine=machine_facts(), finished=time.time())
    (results_dir / f"{tag}.json").write_text(json.dumps(record, indent=2) + "\n")
    if tracer is not None:
        tracer.dump(results_dir / f"{tag}-spans.csv.gz")

    for name, entry in out["metrics"].items():
        print(f"{name:40s} {entry['value']:.6g} {entry['unit']}")
    print(f"behaviour digest: {result.get('digest')}")
    for line in tally.reasons + notes:
        print(f"note: {line}")
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())

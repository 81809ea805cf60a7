"""Workload runners: the closed loops through robustcbf.cli.run_command and
the cold replay through robustcbf.filter_step, with their output checks, the
set-up probes, and the traced variants that produce the per-layer metrics.

Importing this module puts the repository's src/ first on sys.path, so the
robustcbf under test is the one next to the benchmark.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import yaml

import calibrate
import checks
import inputs
from spans import STEP_SPAN, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SCENARIO = ROOT / "scenarios" / "circle22.yaml"
sys.path.insert(0, str(SRC))

import robustcbf  # noqa: E402
from robustcbf import (  # noqa: E402
    DisturbanceHull,
    RobotState,
    WheelCommand,
    assemble_constraints,
    circle_init,
    ensemble_weight,
    support_min_rows,
)
from robustcbf.cli import load_config, run_command  # noqa: E402
from robustcbf.qp import QpProblem, kkt_check  # noqa: E402

SETUP_PROBES = 8
PROBE_TIMEOUT_S = 60
# Simulated seconds per run_command call: 1100 steps, so that eleven lie
# beyond the 99th percentile of the per-step filter times.  Each call of a
# closed-loop workload repeats the same deterministic run, so calls, and
# step k of every call, are comparable with each other.
CALL_SECONDS = {"circle22": 5.5, "union22-3x256": 5.5}
MIN_CALLS = 4
# Replay: distinct snapshots per seed, again eleven beyond the 99th
# percentile.  Every pass solves each snapshot once; the first pass is
# checked and untimed, and at least three timed passes follow, so that one
# disturbed pass cannot move a snapshot's median.
REPLAY_POOL = 1100
REPLAY_CHUNK = 50
MIN_PASSES = 4
# Hull sizes of the margin-pass scaling probe.
PROBE_SIZES = (64, 4096)


class Tally:
    """Attempted and failed steps or solves, with the reasons seen."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons: list = []
        self.notes: list = []

    def add(self, attempted: int, failed: int, reasons=()) -> None:
        self.attempted += int(attempted)
        self.failed += int(failed)
        for reason in reasons:
            if reason not in self.reasons and len(self.reasons) < 20:
                self.reasons.append(reason)


# -- inputs ---------------------------------------------------------------


def write_scenario(base: Path, dest: Path, duration: float, seed: int | None = None,
                   hulls=None) -> Path:
    """Copy a scenario with one iteration of `duration` simulated seconds,
    optionally replacing the disturbance by a hulls block with a
    uniform-convex plant."""
    raw = yaml.safe_load(Path(base).read_text())
    raw["sim"]["duration"] = float(duration)
    raw["sim"]["iterations"] = 1
    if hulls is not None:
        raw["disturbance"] = {"hulls": [{"vertices": h.tolist()} for h in hulls]}
        raw["sim"]["plant_disturbance"] = "uniform-convex"
        raw["sim"]["seed"] = int(seed)
    dest.write_text(yaml.safe_dump(raw, sort_keys=False))
    return dest


def replay_objects(seed: int, size: int = REPLAY_POOL) -> list:
    """(states, commands, stacked nominal) for the first `size` snapshots."""
    pool = []
    for k in range(size):
        poses, cmds = inputs.replay_snapshot(seed, k)
        pool.append(
            (
                [RobotState(*p) for p in poses],
                [WheelCommand(*c) for c in cmds],
                cmds.reshape(-1).copy(),
            )
        )
    return pool


# -- closed loops -----------------------------------------------------------


def _call(scenario: Path, out_dir: Path, host=None):
    """One run_command call, timed inside it; its console output is
    captured.  Returns (exit code, start, end, output)."""
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        with host or contextlib.nullcontext():
            start = time.perf_counter()
            code = run_command(scenario, out_dir, mode="robust", check=True)
            end = time.perf_counter()
    return code, start, end, sink.getvalue().strip()


def _status(args, kwargs, result):
    return result.solver.status, result.fallback_applied


def checked_run(scenario: Path, work: Path, steps: int, dt: float, tally: Tally):
    """Untimed reference run: records each step's QP status and fallback,
    then checks the export.  Returns the metrics CSV records, or None."""
    recorder = Tracer()
    recorder.patch("robustcbf.sim", "filter_step", STEP_SPAN, observe=_status)
    out = work / "checked"
    try:
        code, _, _, text = _call(scenario, out)
    finally:
        recorder.restore()
    records, bad, reasons = checks.closed_loop_failures(out, code, steps, dt, None)
    if text and code != 0:
        reasons.append(text.splitlines()[-1])
    observed = recorder.observed[STEP_SPAN]
    if recorder.not_measured:
        tally.notes.append("step status and fallback not measured: "
                           + ", ".join(recorder.not_measured))
    elif len(observed) != steps:
        bad[:] = True
        reasons.append(f"{len(observed)} filter steps recorded for {steps} steps")
    else:
        status_bad, status_reasons = checks.step_failures(observed)
        bad |= status_bad
        reasons += status_reasons
    tally.add(steps, bad.sum(), reasons)
    shutil.rmtree(out, ignore_errors=True)
    return records if records is not None and records.shape[0] == steps else None


def step_midpoints(seconds: float, wct: np.ndarray) -> np.ndarray:
    """Program time of the middle of each step of a call that took
    `seconds`, given each step's filter time and taking the rest of the
    call to be spread evenly over the steps."""
    other = max(seconds - float(wct.sum()), 0.0) / wct.size
    return np.cumsum(other + wct) - 0.5 * (other + wct)


def timed_calls(scenario: Path, work: Path, seconds: float, steps: int, dt: float,
                reference, tally: Tally, hosts=None) -> dict:
    """Repeat run_command for `seconds` (at least MIN_CALLS times).

    Every call is checked against the reference run.  Returns, per checked
    call, its steps per second and the wct_s column of its export, both at
    the reference speed (each step scaled by the host speed around it), and
    its host speed; each call's calibrate.HostSpeed is appended to `hosts`
    when given.
    """
    calls = {"rate": [], "wct": [], "speed": []}
    begin = time.perf_counter()
    k = 0
    while k < MIN_CALLS or time.perf_counter() - begin < seconds:
        out = work / f"call{k}"
        host = calibrate.HostSpeed()
        code, start, end, text = _call(scenario, out, host)
        if hosts is not None:
            hosts.append(host)
        records, bad, reasons = checks.closed_loop_failures(out, code, steps, dt, reference)
        if text and code != 0:
            reasons.append(text.splitlines()[-1])
        tally.add(steps, bad.sum(), reasons)
        if records is not None and records.shape[0] == steps:
            wct = records[:, 2]
            program_s = float(host.program_time(start, end))
            calls["rate"].append(steps / (program_s * host.speed()))
            calls["wct"].append(wct * host.speed_at(start, step_midpoints(program_s, wct)))
            calls["speed"].append(host.speed())
        shutil.rmtree(out, ignore_errors=True)
        k += 1
    return calls


def closed_loop_figures(calls: dict):
    """Steps per second and each step's filter seconds: the median over the
    calls of each call's rate, and for each step the median over the calls
    of its wct_s (a step that a host-speed sample interrupted in one call
    does not move the median)."""
    if not calls["rate"]:
        return 0.0, np.zeros(0)
    return float(np.median(calls["rate"])), np.median(np.asarray(calls["wct"]), axis=0)


def replay_figures(times: np.ndarray) -> np.ndarray:
    """Each snapshot's latency: the median over the timed passes (all but
    the first, checked pass) of its time at the reference speed."""
    return np.median(times[1:], axis=0)


# -- replay -----------------------------------------------------------------


def timed_solve(step_fn, states, commands, fcfg):
    """Time one cold filter_step from outside.

    Returns ((start, end), result or None, failure reason or None); an
    exception from the program is a failed solve, not a crash of the
    benchmark.
    """
    start = time.perf_counter()
    try:
        result = step_fn(states, commands, fcfg)
    except Exception as exc:  # noqa: BLE001 - any program error is a failed solve
        return (start, time.perf_counter()), None, f"{type(exc).__name__}: {exc}"
    return (start, time.perf_counter()), result, None


def solve_checked(step_fn, states, commands, nominal, fcfg, weight):
    """timed_solve plus the output checks: ((start, end), result, reasons)."""
    span, result, error = timed_solve(step_fn, states, commands, fcfg)
    if result is None:
        return span, None, [error]
    reasons = checks.solve_failures(result, QpProblem, kkt_check, weight, nominal, fcfg.u_max)
    return span, result, reasons


def replay_passes(pool: list, fcfg, seconds: float, tally: Tally, step_fn=None,
                  min_passes: int = MIN_PASSES, hosts=None):
    """Solve every pool snapshot once per pass, for `seconds` and at least
    `min_passes` passes.

    The first pass runs the output checks on every result; later passes
    must reproduce the first pass's command bit for bit, and a snapshot
    that failed the first pass fails every pass.  Each chunk of
    REPLAY_CHUNK solves runs in one calibrate.HostSpeed block, whose samples
    are taken out of the solves they interrupt and whose speed scales them;
    each chunk's calibrate.HostSpeed is appended to `hosts` when given.  Returns
    the latencies in seconds at the reference speed, of shape (passes,
    snapshots), the host speed of each chunk, of shape (passes, chunks),
    and the first pass's (min_h, max_alter) per snapshot.
    """
    step_fn = step_fn or robustcbf.filter_step
    weight = ensemble_weight(len(pool[0][0]), fcfg.geometry)
    first: list = []
    series = np.full((len(pool), 2), np.nan)
    passes, speeds = [], []
    begin = time.perf_counter()
    while len(passes) < min_passes or time.perf_counter() - begin < seconds:
        times = np.empty(len(pool))
        speed = []
        for lo in range(0, len(pool), REPLAY_CHUNK):
            chunk = pool[lo:lo + REPLAY_CHUNK]
            starts, ends = np.empty(len(chunk)), np.empty(len(chunk))
            with calibrate.HostSpeed() as host:
                for k, (states, commands, nominal) in enumerate(chunk, start=lo):
                    if not passes:
                        span, result, reasons = solve_checked(
                            step_fn, states, commands, nominal, fcfg, weight)
                        first.append(None if reasons else result.solver.u_star)
                        if result is not None:
                            series[k] = (result.min_h, float(result.altered.max()))
                    else:
                        span, result, error = timed_solve(step_fn, states, commands, fcfg)
                        if error is not None:
                            reasons = [error]
                        elif first[k] is None:
                            reasons = ["failed the checked first pass"]
                        elif not np.array_equal(result.solver.u_star, first[k]):
                            reasons = ["solution differs from the checked first pass"]
                        else:
                            reasons = []
                    starts[k - lo], ends[k - lo] = span
                    tally.add(1, 1 if reasons else 0, reasons)
            times[lo:lo + len(chunk)] = host.scaled(starts, ends)
            speed.append(host.speed())
            if hosts is not None:
                hosts.append(host)
        passes.append(times)
        speeds.append(speed)
    return np.array(passes), np.array(speeds), series


# -- tracing ----------------------------------------------------------------


def _filter_obs(args, kwargs, result):
    warm = kwargs.get("warm_start", args[3] if len(args) > 3 else None)
    return (result.solver.status, result.fallback_applied, result.constraints.rows,
            warm is not None)


def _solve_obs(args, kwargs, result):
    problem = args[0]
    warm = kwargs.get("warm_start", args[2] if len(args) > 2 else None)
    return (result.iterations, len(result.active_set),
            problem.rows + 2 * problem.variables, warm is not None)


def _margin_obs(args, kwargs, result):
    return len(result) * args[1].vertices.shape[0]


def _export_obs(args, kwargs, result):
    created = args[3] if len(args) > 3 else kwargs.get("created", ())
    return sum(Path(p).stat().st_size for p in created if Path(p).is_file())


def install_hooks(tracer: Tracer) -> None:
    """Wrap the names through which each layer calls the next."""
    tracer.patch("robustcbf.cli", "load_config", "cli.load_config")
    tracer.patch("robustcbf.cli", "_write_outputs", "cli.export", observe=_export_obs)
    tracer.patch("robustcbf.cli", "repeat_experiment", "sim.run")
    tracer.patch("robustcbf.sim", "nominal_controller", "sim.controller")
    tracer.patch("robustcbf.sim", "filter_step", STEP_SPAN, observe=_filter_obs)
    tracer.patch("robustcbf.sim", "_realize_disturbances", "sim.plant_disturbance")
    tracer.patch("robustcbf.sim", "step_dynamics", "dynamics.step_dynamics")
    for attr in ("sample_hull", "support_min", "support_argmin", "pooled_vertices"):
        tracer.patch("robustcbf.sim", attr, "disturbance.plant")
    tracer.patch("robustcbf.safety_filter", "assemble_constraints", "barrier.assemble")
    tracer.patch("robustcbf.qp", "QpProblem", "qp.problem")
    tracer.patch("robustcbf.qp", "solve", "qp.solve", observe=_solve_obs)
    tracer.patch("robustcbf.barrier", "support_min_rows", "disturbance.margin",
                 observe=_margin_obs)


def traced_filter_step(tracer: Tracer):
    """filter_step wrapped in the step span, for callers outside sim."""
    return tracer.wrap(STEP_SPAN, robustcbf.filter_step, _filter_obs)


def _pct(values, q) -> float:
    values = np.asarray(values, dtype=float)
    return float(np.percentile(values, q)) if values.size else 0.0


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer figures from the spans of a traced run.

    Per-step figures divide by the number of filter_step calls (closed-loop
    control steps, or replay solves); a layer that did no work reports 0.
    """
    steps = tracer.durations(STEP_SPAN).size

    def per_step(total):
        return float(total) / steps if steps else 0.0

    def ms(name):
        return per_step(1e3 * tracer.durations(name).sum())

    def self_ms(name):
        return per_step(1e3 * tracer.self_times(name).sum())

    def mean_ms(name):
        durations = tracer.durations(name)
        return float(1e3 * durations.mean()) if durations.size else 0.0

    filt = tracer.observed[STEP_SPAN]
    solves = tracer.observed["qp.solve"]
    products = float(sum(tracer.observed["disturbance.margin"]))
    margin_s = float(tracer.durations("disturbance.margin").sum())
    warm = [s for s in solves if s[3]]
    exports = tracer.observed["cli.export"]
    return {
        "sim.step_ms_p50": _pct(1e3 * tracer.step_gaps(), 50),
        "sim.step_ms_p99": _pct(1e3 * tracer.step_gaps(), 99),
        "sim.controller_ms": ms("sim.controller"),
        "sim.plant_disturbance_ms": ms("sim.plant_disturbance"),
        "sim.self_ms": self_ms("sim.run"),
        "dynamics.step_dynamics_ms": ms("dynamics.step_dynamics"),
        "dynamics.calls_per_step": per_step(tracer.durations("dynamics.step_dynamics").size),
        "safety_filter.filter_ms_p50": _pct(1e3 * tracer.durations(STEP_SPAN), 50),
        "safety_filter.filter_ms_p99": _pct(1e3 * tracer.durations(STEP_SPAN), 99),
        "safety_filter.self_ms": self_ms(STEP_SPAN),
        "safety_filter.fallbacks": sum(1 for f in filt if f[1] is not None),
        "barrier.assemble_ms": ms("barrier.assemble"),
        "barrier.self_ms": self_ms("barrier.assemble"),
        "barrier.rows": float(np.mean([f[2] for f in filt])) if filt else 0.0,
        "disturbance.margin_ms": ms("disturbance.margin"),
        "disturbance.margin_calls": per_step(tracer.durations("disturbance.margin").size),
        "disturbance.row_vertex_products": per_step(products),
        "disturbance.margin_ns_per_product": 1e9 * margin_s / products if products else 0.0,
        "disturbance.plant_ms": ms("disturbance.plant"),
        "qp.problem_ms": ms("qp.problem"),
        "qp.solve_ms_p50": _pct(1e3 * tracer.durations("qp.solve"), 50),
        "qp.solve_ms_p99": _pct(1e3 * tracer.durations("qp.solve"), 99),
        "qp.iterations_mean": float(np.mean([s[0] for s in solves])) if solves else 0.0,
        "qp.iterations_max": max((s[0] for s in solves), default=0),
        "qp.active_rows_mean": float(np.mean([s[1] for s in solves])) if solves else 0.0,
        "qp.stacked_rows": float(np.mean([s[2] for s in solves])) if solves else 0.0,
        "qp.zero_iteration_ratio": (
            sum(1 for s in warm if s[0] == 0) / len(warm) if warm else 0.0
        ),
        "cli.load_config_ms": mean_ms("cli.load_config"),
        "cli.export_ms": mean_ms("cli.export"),
        "cli.export_bytes": float(np.mean(exports)) if exports else 0.0,
    }


def circle22_directions(scenario: Path) -> np.ndarray:
    """Margin directions z_i + z_j of the 231 pair rows at the circle22 start."""
    cfg = load_config(scenario)
    states = circle_init(cfg.robot_count, cfg.circle_radius, cfg.geometry, cfg.barrier)
    stack = assemble_constraints(
        states, cfg.geometry, cfg.barrier, cfg.disturbance, cfg.u_max
    )
    directions = np.empty((stack.rows, 2))
    for row, (i, j) in enumerate(stack.pairs):
        directions[row] = stack.A[row, 2 * i:2 * i + 2] + stack.A[row, 2 * j:2 * j + 2]
    return directions


def margin_probe(directions: np.ndarray, seed: int) -> dict:
    """support_min_rows cost per row-vertex product at each probe size p,
    at the reference host speed."""
    rng = np.random.default_rng([seed, 0x50524F42])
    out = {}
    for p in PROBE_SIZES:
        hull = DisturbanceHull(rng.normal(size=(p, 2)))
        reps = max(4, 4096 // p)
        samples = []
        for _ in range(9):
            with calibrate.HostSpeed() as host:
                start = time.perf_counter()
                for _ in range(reps):
                    support_min_rows(directions, hull)
                end = time.perf_counter()
            samples.append(float(host.scaled(start, end)) / reps)
        out[f"disturbance.probe_p{p}_ns_per_product"] = (
            1e9 * statistics.median(samples) / (directions.shape[0] * p)
        )
    return out


# -- set-up probes and workload runners ---------------------------------------


def setup_times(spec: dict, work: Path, count: int, tally: Tally) -> list:
    """Run `count` fresh processes of setup_probe.py; each reports its
    set-up time, and its first step counts as one attempted step.  Returns
    (seconds at the reference speed, raw seconds) per probe."""
    spec_path = work / "probe.json"
    spec_path.write_text(json.dumps(spec))
    times = []
    for _ in range(count):
        done = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), str(spec_path)],
            capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, cwd=str(ROOT),
        )
        if done.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {done.stderr.strip()[-2000:]}")
        report = json.loads(done.stdout.strip().splitlines()[-1])
        times.append((float(report["setup_s"]), float(report["raw_s"])))
        failed = report["status"] != "optimal" or report["fallback"] is not None
        tally.add(1, int(failed),
                  [f"first step {report['status']}, fallback {report['fallback']}"]
                  if failed else [])
    return times


def _trace_metrics(tracer: Tracer, untraced: float, traced: float, seed: int) -> dict:
    metrics = layer_metrics(tracer)
    metrics.update(margin_probe(circle22_directions(SCENARIO), seed))
    metrics["trace.untraced_steps_per_s"] = untraced
    metrics["trace.traced_steps_per_s"] = traced
    metrics["trace.overhead_frac"] = 1.0 - traced / untraced if untraced else 0.0
    return metrics


def _latency_metrics(rate: float, filter_s: np.ndarray) -> dict:
    return {
        "steps_per_s": rate,
        "filter_ms_p50": _pct(1e3 * filter_s, 50),
        "filter_ms_p99": _pct(1e3 * filter_s, 99),
    }


def run_closed_loop(name: str, seed: int, seconds: float, trace: bool, work: Path,
                    tally: Tally) -> dict:
    duration = CALL_SECONDS[name]
    if name == "circle22":
        scenario = write_scenario(SCENARIO, work / "circle22.yaml", duration)
    else:
        scenario = write_scenario(SCENARIO, work / "union22.yaml", duration, seed=seed,
                                  hulls=inputs.union_hulls(seed))
    dt = float(yaml.safe_load(scenario.read_text())["sim"]["dt"])
    steps = int(duration / dt + 1e-9)
    result = {}
    reference = checked_run(scenario, work, steps, dt, tally)
    if reference is not None:
        result["digest"] = checks.digest(reference[:, 1], reference[:, 3])

    if not trace:
        probe = {"src": str(SRC), "scenario": str(scenario)}
        setup = setup_times(probe, work, SETUP_PROBES // 2, tally)
        calls = timed_calls(scenario, work, seconds, steps, dt, reference, tally)
        setup += setup_times(probe, work, SETUP_PROBES - len(setup), tally)
        result["setup_s"] = setup
        result["metrics"] = _latency_metrics(*closed_loop_figures(calls))
        result["samples"] = {"steps_per_call": steps, "call_steps_per_s": calls["rate"],
                             "call_speed": calls["speed"]}
        return result

    plain = timed_calls(scenario, work, seconds / 2.0, steps, dt, reference, tally)
    tracer = Tracer()
    install_hooks(tracer)
    try:
        traced = timed_calls(scenario, work, seconds / 2.0, steps, dt, reference, tally,
                             hosts=tracer.hosts)
    finally:
        tracer.restore()
    result["tracer"] = tracer
    result["metrics"] = _trace_metrics(tracer, closed_loop_figures(plain)[0],
                                       closed_loop_figures(traced)[0], seed)
    return result


def run_replay(seed: int, seconds: float, trace: bool, work: Path, tally: Tally) -> dict:
    fcfg = load_config(SCENARIO).filter_config()
    pool = replay_objects(seed)
    for _ in range(3):  # fill the module caches before timing
        robustcbf.filter_step(pool[0][0], pool[0][1], fcfg)
    result = {}

    if not trace:
        poses, cmds = inputs.replay_snapshot(seed, 0)
        probe = {"src": str(SRC), "scenario": str(SCENARIO), "poses": poses.tolist(),
                 "commands": cmds.tolist()}
        setup = setup_times(probe, work, SETUP_PROBES // 2, tally)
        times, speeds, series = replay_passes(pool, fcfg, seconds, tally)
        setup += setup_times(probe, work, SETUP_PROBES - len(setup), tally)
        result["digest"] = checks.digest(series[:, 0], series[:, 1])
        latency = replay_figures(times)
        result["setup_s"] = setup
        result["metrics"] = _latency_metrics(latency.size / float(latency.sum()), latency)
        result["samples"] = {"snapshots": len(pool), "timed_passes": int(times.shape[0] - 1),
                             "pass_ms": (1e3 * times.sum(axis=1)).tolist(),
                             "chunk_speed": speeds.tolist()}
        return result

    times, _, series = replay_passes(pool, fcfg, seconds / 2.0, tally)
    result["digest"] = checks.digest(series[:, 0], series[:, 1])
    tracer = Tracer()
    install_hooks(tracer)
    try:
        traced, _, _ = replay_passes(pool, fcfg, seconds / 2.0, tally,
                                                 step_fn=traced_filter_step(tracer),
                                                 hosts=tracer.hosts)
    finally:
        tracer.restore()
    result["tracer"] = tracer
    result["metrics"] = _trace_metrics(
        tracer,
        len(pool) / float(replay_figures(times).sum()),
        len(pool) / float(replay_figures(traced).sum()),
        seed,
    )
    return result


def run(name: str, seed: int, seconds: float, trace: bool, work: Path, tally: Tally) -> dict:
    """Run one workload.  Returns "metrics" (end-to-end without "setup_s",
    "ok_frac" and "peak_rss_mb", or per-layer when traced), "digest",
    "setup_s" samples, "samples" and, when traced, "tracer"."""
    if name == "replay22-cold":
        return run_replay(seed, seconds, trace, work, tally)
    return run_closed_loop(name, seed, seconds, trace, work, tally)

"""Command-line front end: scenario files in, CSV/JSON metrics out."""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import yaml

from .barrier import BarrierParams
from .disturbance import DisturbanceHull, HullUnion, symmetric_box, zero_union
from .dynamics import RobotGeometry
from .sim import (
    DEFAULT_PSI,
    PLANT_MODES,
    RunMetrics,
    ScenarioConfig,
    aggregate_metrics,
    repeat_experiment,
    run_scenario,
)

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_RUNTIME = 2
EXIT_CHECK = 3

CSV_HEADER = "t,min_h,wct_s,max_alter"
TRACE_HEADER = "t,min_h"

# Threshold for the robust-invariance check: covers the discretization gap
# of the continuous-time certificate at dt <= 0.005.
MIN_H_TOLERANCE = -1e-3


class ConfigError(ValueError):
    """Scenario file cannot be parsed or violates an invariant."""


_SECTIONS = {
    "robots": {"count", "wheel_radius", "base_length", "look_ahead"},
    "barrier": {"delta", "gamma"},
    "disturbance": {"psi", "hulls"},
    "sim": {
        "dt",
        "duration",
        "radius",
        "seed",
        "iterations",
        "plant_disturbance",
        "plant_vertex",
        "gain",
        "goal_tolerance",
        "integrator",
        "debug_checks",
    },
    "filter": {"u_max", "fallback", "slack_weight"},
}


def _as_number(section: str, key: str, value, kind=float):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{section}.{key}: expected a number, got {value!r}")
    return kind(value)


def _parse_disturbance(block: dict) -> HullUnion:
    if "psi" in block and "hulls" in block:
        raise ConfigError("disturbance: give either psi or hulls, not both")
    if "hulls" in block:
        hulls = block["hulls"]
        if not isinstance(hulls, list) or not hulls:
            raise ConfigError("disturbance.hulls: expected a non-empty list")
        parsed = []
        for k, entry in enumerate(hulls):
            if not isinstance(entry, dict) or set(entry) != {"vertices"}:
                raise ConfigError(
                    f"disturbance.hulls[{k}]: expected a mapping with a 'vertices' key"
                )
            try:
                parsed.append(DisturbanceHull(np.asarray(entry["vertices"], dtype=float)))
            except (ValueError, TypeError) as exc:
                raise ConfigError(f"disturbance.hulls[{k}].vertices: {exc}") from exc
        return HullUnion(tuple(parsed))
    psi = _as_number("disturbance", "psi", block.get("psi", DEFAULT_PSI))
    try:
        return HullUnion((symmetric_box(psi),))
    except ValueError as exc:
        raise ConfigError(f"disturbance.psi: {exc}") from exc


def load_config(path) -> ScenarioConfig:
    """Parse and validate a scenario file.

    The format is YAML with the sections robots / barrier / disturbance /
    sim / filter; unknown sections or keys are errors, omitted keys take the
    testbed defaults.
    """
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"scenario file not found: {path}")
    try:
        raw = yaml.safe_load(path.read_text())
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        where = f" at line {mark.line + 1}, column {mark.column + 1}" if mark else ""
        raise ConfigError(f"parse error{where}: {exc}") from exc
    if raw is None:
        raw = {}
    if not isinstance(raw, dict):
        raise ConfigError("scenario file must be a mapping of sections")

    for section, body in raw.items():
        if section not in _SECTIONS:
            raise ConfigError(f"unknown section {section!r}")
        if body is None:
            continue
        if not isinstance(body, dict):
            raise ConfigError(f"section {section!r} must be a mapping")
        unknown = set(body) - _SECTIONS[section]
        if unknown:
            raise ConfigError(f"unknown key {section}.{sorted(unknown)[0]}")

    robots = raw.get("robots") or {}
    barrier = raw.get("barrier") or {}
    disturbance = raw.get("disturbance") or {}
    sim = raw.get("sim") or {}
    filt = raw.get("filter") or {}

    if "count" not in robots:
        raise ConfigError("robots.count is required")
    if "duration" not in sim:
        raise ConfigError("sim.duration is required")

    try:
        geometry = RobotGeometry(
            wheel_radius=_as_number("robots", "wheel_radius", robots.get("wheel_radius", 0.016)),
            base_length=_as_number("robots", "base_length", robots.get("base_length", 0.105)),
            look_ahead=_as_number("robots", "look_ahead", robots.get("look_ahead", 0.03)),
        )
        params = BarrierParams(
            delta=_as_number("barrier", "delta", barrier.get("delta", 0.12)),
            gamma=_as_number("barrier", "gamma", barrier.get("gamma", 150.0)),
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

    hulls = _parse_disturbance(disturbance)

    plant_mode = sim.get("plant_disturbance", "off")
    if plant_mode is False:
        plant_mode = "off"  # YAML 1.1 reads a bare `off` as a boolean
    if plant_mode not in PLANT_MODES:
        raise ConfigError(
            f"sim.plant_disturbance: expected one of {PLANT_MODES}, got {plant_mode!r}"
        )
    try:
        cfg = ScenarioConfig(
            robot_count=int(_as_number("robots", "count", robots["count"], int)),
            sim_duration=_as_number("sim", "duration", sim["duration"]),
            geometry=geometry,
            barrier=params,
            disturbance=hulls,
            u_max=_as_number("filter", "u_max", filt.get("u_max", 25.0)),
            fallback=str(filt.get("fallback", "slack")),
            slack_weight=_as_number("filter", "slack_weight", filt.get("slack_weight", 1e6)),
            circle_radius=_as_number("sim", "radius", sim.get("radius", 0.6)),
            dt=_as_number("sim", "dt", sim.get("dt", 0.005)),
            plant_disturbance=str(plant_mode),
            plant_vertex=int(_as_number("sim", "plant_vertex", sim.get("plant_vertex", 0), int)),
            controller_gain=_as_number("sim", "gain", sim.get("gain", 1.0)),
            goal_tolerance=_as_number("sim", "goal_tolerance", sim.get("goal_tolerance", 0.05)),
            rng_seed=int(_as_number("sim", "seed", sim.get("seed", 0), int)),
            iterations=int(_as_number("sim", "iterations", sim.get("iterations", 1), int)),
            integrator=str(sim.get("integrator", "euler")),
            debug_checks=bool(sim.get("debug_checks", False)),
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return cfg


def _format(value: float) -> str:
    return format(value, ".17g")


def write_metrics_csv(path: Path, metrics: RunMetrics) -> None:
    lines = [CSV_HEADER]
    for k in range(metrics.times.size):
        lines.append(
            ",".join(
                (
                    _format(metrics.times[k]),
                    _format(metrics.min_h[k]),
                    _format(metrics.wall_clock[k]),
                    _format(metrics.max_alter[k]),
                )
            )
        )
    path.write_text("\n".join(lines) + "\n")


def _write_outputs(out_dir: Path, runs, dt: float, created: list) -> dict:
    # dt is unused; the four-argument call shape stays because
    # perfbench/workloads.py reads `created` as the fourth positional argument.
    out_dir.mkdir(parents=True, exist_ok=True)
    if len(runs) == 1:
        targets = [out_dir / "metrics.csv"]
    else:
        targets = [out_dir / f"metrics_{k:02d}.csv" for k in range(len(runs))]
    for target, run in zip(targets, runs):
        write_metrics_csv(target, run)
        created.append(target)
    summary = aggregate_metrics(runs)
    summary_path = out_dir / "summary.json"
    summary_path.write_text(json.dumps(summary, indent=2) + "\n")
    created.append(summary_path)
    return summary


def _cleanup(created) -> None:
    for path in reversed(created):
        try:
            path.unlink()
        except OSError:
            pass


def _check_breach(mode: str, summary: dict, runs) -> bool:
    recorded = [float(r.min_h.min()) for r in runs if r.min_h.size]
    if mode == "robust":
        return bool(recorded) and min(recorded) < MIN_H_TOLERANCE
    return summary["violation_time_s"] <= 0.0


def _format_ms(value) -> str:
    return f"{value:.3f} ms" if value is not None else "n/a"


def run_command(
    config_path,
    out_dir,
    mode: str = "robust",
    seed: int | None = None,
    jobs: int = 1,
    check: bool = False,
) -> int:
    """Run a scenario in robust, non-robust, or both modes and export metrics.

    Non-robust zeroes the filter's modeled disturbance while the plant
    disturbance stays as declared.  Exit codes: 0 ok, 1 config error,
    2 runtime failure, 3 check-threshold breach.
    """
    try:
        cfg = load_config(config_path)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    if seed is not None:
        cfg = replace(cfg, rng_seed=seed)
    if mode not in ("robust", "non-robust", "both"):
        print(f"unknown mode {mode!r}", file=sys.stderr)
        return EXIT_CONFIG

    out_dir = Path(out_dir)
    if out_dir.exists() and not out_dir.is_dir():
        print(f"output path {out_dir} is not a directory", file=sys.stderr)
        return EXIT_RUNTIME

    wanted = ("robust", "non-robust") if mode == "both" else (mode,)
    created: list = []
    summaries = {}
    breach = False
    try:
        for one in wanted:
            run_cfg = cfg
            if one == "non-robust":
                run_cfg = replace(cfg, filter_disturbance=zero_union())
            runs = repeat_experiment(run_cfg, jobs=jobs)
            target = out_dir if mode != "both" else out_dir / one.replace("-", "_")
            summary = _write_outputs(target, runs, run_cfg.dt, created)
            summaries[one] = summary
            if check and _check_breach(one, summary, runs):
                breach = True
            print(
                f"{one}: violation_time={summary['violation_time_s']:.3f} s, "
                f"avg_wct={_format_ms(summary['avg_wct_ms'])}, "
                f"goal_completion={summary['goal_completion']:.3f}"
            )
        if mode == "both":
            wct_r = summaries["robust"]["avg_wct_ms"]
            wct_n = summaries["non-robust"]["avg_wct_ms"]
            compare = {
                "robust": summaries["robust"],
                "non_robust": summaries["non-robust"],
                "delta": {
                    "violation_time_s": summaries["non-robust"]["violation_time_s"]
                    - summaries["robust"]["violation_time_s"],
                    "avg_wct_ms": (
                        wct_r - wct_n if wct_r is not None and wct_n is not None else None
                    ),
                },
            }
            compare_path = out_dir / "compare.json"
            compare_path.write_text(json.dumps(compare, indent=2) + "\n")
            created.append(compare_path)
    except Exception as exc:  # noqa: BLE001 - surfaced as exit status
        _cleanup(created)
        print(f"run failed: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    if breach:
        print("check failed: acceptance threshold breached", file=sys.stderr)
        return EXIT_CHECK
    return EXIT_OK


def trace_command(config_path, out_path, seed: int | None = None) -> int:
    """Write the (t, min_h) series of a single run as a two-column CSV."""
    try:
        cfg = load_config(config_path)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    if seed is not None:
        cfg = replace(cfg, rng_seed=seed)
    out_path = Path(out_path)
    try:
        metrics = run_scenario(cfg)
        out_path.parent.mkdir(parents=True, exist_ok=True)
        lines = [TRACE_HEADER]
        for k in range(metrics.times.size):
            lines.append(f"{_format(metrics.times[k])},{_format(metrics.min_h[k])}")
        out_path.write_text("\n".join(lines) + "\n")
    except Exception as exc:  # noqa: BLE001 - surfaced as exit status
        if out_path.exists():
            try:
                out_path.unlink()
            except OSError:
                pass
        print(f"trace failed: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="robustcbf",
        description="Robust collision-avoidance filter and swarm simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a scenario and export metrics")
    run.add_argument("config", help="scenario file (YAML)")
    run.add_argument("--out", required=True, help="output directory")
    run.add_argument(
        "--mode",
        choices=["robust", "non-robust", "both"],
        default="robust",
        help="filter mode; 'both' also writes a comparison report",
    )
    run.add_argument("--seed", type=int, default=None, help="override the scenario seed")
    run.add_argument("--jobs", type=int, default=1, help="parallel iterations")
    run.add_argument(
        "--check",
        action="store_true",
        help="exit 3 if the mode's acceptance threshold is breached",
    )

    trace = sub.add_parser("trace", help="write the (t, min_h) series of one run")
    trace.add_argument("config", help="scenario file (YAML)")
    trace.add_argument("--out", required=True, help="output CSV path")
    trace.add_argument("--seed", type=int, default=None, help="override the scenario seed")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "run":
        return run_command(
            args.config,
            args.out,
            mode=args.mode,
            seed=args.seed,
            jobs=args.jobs,
            check=args.check,
        )
    return trace_command(args.config, args.out, seed=args.seed)

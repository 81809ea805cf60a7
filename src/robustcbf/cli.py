"""Command-line front end: scenario files in, CSV/JSON metrics out."""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import yaml

from .disturbance import DisturbanceHull, HullUnion, symmetric_box, zero_union
from .sim import (
    DEFAULT_BARRIER,
    DEFAULT_GEOMETRY,
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

# libyaml's parser with PyYAML's safe constructors and resolvers: the same
# objects as SafeLoader, several times faster on long vertex lists.
_YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)


class ConfigError(ValueError):
    """Scenario file cannot be parsed or violates an invariant."""


# The scenario schema: section -> key -> (ScenarioConfig field, type).  The
# geometry and barrier keys fill the RobotGeometry and BarrierParams fields
# of the same name, and the disturbance keys build the hull union.  Every
# default lives in sim.py.
_SCHEMA = {
    "robots": {
        "count": ("robot_count", int),
        "wheel_radius": ("geometry", float),
        "base_length": ("geometry", float),
        "look_ahead": ("geometry", float),
    },
    "barrier": {"delta": ("barrier", float), "gamma": ("barrier", float)},
    "disturbance": {"psi": ("disturbance", float), "hulls": ("disturbance", list)},
    "sim": {
        "dt": ("dt", float),
        "duration": ("sim_duration", float),
        "radius": ("circle_radius", float),
        "seed": ("rng_seed", int),
        "iterations": ("iterations", int),
        "plant_disturbance": ("plant_disturbance", str),
        "plant_vertex": ("plant_vertex", int),
        "gain": ("controller_gain", float),
        "goal_tolerance": ("goal_tolerance", float),
        "integrator": ("integrator", str),
        "debug_checks": ("debug_checks", bool),
    },
    "filter": {
        "u_max": ("u_max", float),
        "fallback": ("fallback", str),
        "slack_weight": ("slack_weight", float),
    },
}
_REQUIRED = {"robot_count": "robots.count", "sim_duration": "sim.duration"}


def _typed(name: str, value, kind):
    """value as kind: an integral number for an int, any number in the float
    range for a float, and exactly that YAML type otherwise."""
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    if kind is int:
        if number and (isinstance(value, int) or value.is_integer()):
            return int(value)
    elif kind is float:
        if number:
            try:
                return float(value)
            except OverflowError:  # an integer beyond the float range
                pass
    elif isinstance(value, kind):
        return value
    raise ConfigError(f"{name}: expected {kind.__name__}, got {value!r}")


def _parse_disturbance(block: dict) -> HullUnion:
    if len(block) > 1:
        raise ConfigError("disturbance: give either psi or hulls, not both")
    if "psi" in block:
        try:
            return HullUnion((symmetric_box(block["psi"]),))
        except ValueError as exc:
            raise ConfigError(f"disturbance.psi: {exc}") from exc
    if not block["hulls"]:
        raise ConfigError("disturbance.hulls: expected a non-empty list")
    parsed = []
    for k, entry in enumerate(block["hulls"]):
        if not isinstance(entry, dict) or set(entry) != {"vertices"}:
            raise ConfigError(
                f"disturbance.hulls[{k}]: expected a mapping with a 'vertices' key"
            )
        try:
            parsed.append(DisturbanceHull(np.asarray(entry["vertices"], dtype=float)))
        except (ValueError, TypeError) as exc:
            raise ConfigError(f"disturbance.hulls[{k}].vertices: {exc}") from exc
    return HullUnion(tuple(parsed))


def load_config(path) -> ScenarioConfig:
    """Parse and validate a scenario file.

    The format is YAML with the sections and keys of _SCHEMA.  Unknown
    sections or keys, values of the wrong type and values that
    ScenarioConfig rejects are all ConfigErrors; omitted keys take the
    defaults of sim.py.
    """
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"scenario file not found: {path}")
    try:
        raw = yaml.load(path.read_text(), Loader=_YAML_LOADER)
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        where = f" at line {mark.line + 1}, column {mark.column + 1}" if mark else ""
        raise ConfigError(f"parse error{where}: {exc}") from exc
    if raw is None:
        raw = {}
    if not isinstance(raw, dict):
        raise ConfigError("scenario file must be a mapping of sections")

    fields: dict = {}
    parts: dict = {"geometry": {}, "barrier": {}, "disturbance": {}}
    for section, body in raw.items():
        if section not in _SCHEMA:
            raise ConfigError(f"unknown section {section!r}")
        if body is None:
            continue
        if not isinstance(body, dict):
            raise ConfigError(f"section {section!r} must be a mapping")
        for key, value in body.items():
            if key not in _SCHEMA[section]:
                raise ConfigError(f"unknown key {section}.{key}")
            field, kind = _SCHEMA[section][key]
            if key == "plant_disturbance" and value is False:
                value = "off"  # YAML 1.1 reads a bare `off` as a boolean
            value = _typed(f"{section}.{key}", value, kind)
            if field in parts:
                parts[field][key] = value
            else:
                fields[field] = value
    for field, name in _REQUIRED.items():
        if field not in fields:
            raise ConfigError(f"{name} is required")
    if parts["disturbance"]:
        fields["disturbance"] = _parse_disturbance(parts["disturbance"])
    try:
        return ScenarioConfig(
            geometry=replace(DEFAULT_GEOMETRY, **parts["geometry"]),
            barrier=replace(DEFAULT_BARRIER, **parts["barrier"]),
            **fields,
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _load(config_path, seed: int | None):
    """load_config with the seed override applied; None, after reporting
    the error, when the scenario is invalid."""
    try:
        cfg = load_config(config_path)
        return cfg if seed is None else replace(cfg, rng_seed=seed)
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return None


def _format(value: float) -> str:
    return format(value, ".17g")


def write_csv(path: Path, header: str, columns) -> None:
    """One line per index of the equal-length columns, each value written
    with 17 significant digits, under the header line."""
    lines = [header] + [",".join(map(_format, row)) for row in zip(*columns)]
    path.write_text("\n".join(lines) + "\n")


def _write_outputs(out_dir: Path, runs, created: list) -> dict:
    """Write each run's metrics CSV and summary.json to out_dir, appending
    every path to created; returns the summary."""
    out_dir.mkdir(parents=True, exist_ok=True)
    if len(runs) == 1:
        targets = [out_dir / "metrics.csv"]
    else:
        targets = [out_dir / f"metrics_{k:02d}.csv" for k in range(len(runs))]
    for target, run in zip(targets, runs):
        write_csv(target, CSV_HEADER, (run.times, run.min_h, run.wall_clock, run.max_alter))
        created.append(target)
    summary = aggregate_metrics(runs)
    summary_path = out_dir / "summary.json"
    summary_path.write_text(json.dumps(summary, indent=2) + "\n")
    created.append(summary_path)
    return summary


def _missing(paths) -> list:
    """The directories among paths and their ancestors that do not exist
    yet, each after its parent."""
    return sorted({p for path in paths for p in (path, *path.parents) if not p.exists()})


def _cleanup(created) -> None:
    """Remove what a failed run made, newest first: each file, and each
    directory once it is empty."""
    for path in reversed(created):
        try:
            path.rmdir() if path.is_dir() else path.unlink()
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
    if jobs < 1:
        print(f"--jobs must be >= 1, got {jobs}", file=sys.stderr)
        return EXIT_CONFIG
    cfg = _load(config_path, seed)
    if cfg is None:
        return EXIT_CONFIG
    if mode not in ("robust", "non-robust", "both"):
        print(f"unknown mode {mode!r}", file=sys.stderr)
        return EXIT_CONFIG

    out_dir = Path(out_dir)
    if out_dir.exists() and not out_dir.is_dir():
        print(f"output path {out_dir} is not a directory", file=sys.stderr)
        return EXIT_RUNTIME

    wanted = ("robust", "non-robust") if mode == "both" else (mode,)
    targets = [out_dir / one.replace("-", "_") for one in wanted] if mode == "both" else [out_dir]
    fresh = _missing(targets)
    created: list = []
    summaries = {}
    breach = False
    try:
        for one, target in zip(wanted, targets):
            run_cfg = replace(cfg, filter_disturbance=zero_union()) if one == "non-robust" else cfg
            runs = repeat_experiment(run_cfg, jobs=jobs)
            summary = _write_outputs(target, runs, created=created)
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
        _cleanup(fresh + created)
        print(f"run failed: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    if breach:
        print("check failed: acceptance threshold breached", file=sys.stderr)
        return EXIT_CHECK
    return EXIT_OK


def trace_command(config_path, out_path, seed: int | None = None) -> int:
    """Write the (t, min_h) series of a single run as a two-column CSV.  A
    directory out_path is refused (exit 2); a failed run removes only the
    paths it created."""
    cfg = _load(config_path, seed)
    if cfg is None:
        return EXIT_CONFIG
    out_path = Path(out_path)
    if out_path.is_dir():
        print(f"output path {out_path} is a directory", file=sys.stderr)
        return EXIT_RUNTIME
    created = _missing([out_path])
    try:
        metrics = run_scenario(cfg)
        out_path.parent.mkdir(parents=True, exist_ok=True)
        write_csv(out_path, TRACE_HEADER, (metrics.times, metrics.min_h))
    except Exception as exc:  # noqa: BLE001 - surfaced as exit status
        _cleanup(created)
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

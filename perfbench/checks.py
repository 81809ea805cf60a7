"""Output checks that decide which steps and solves count as failed.

Every check here runs outside the timed regions.  A step or solve fails
when its QP status is not optimal, a fallback fired, its min_h is below
MIN_H_TOL (robust mode), or it fails the output checks below.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np

MIN_H_TOL = -1e-3
# Same KKT bound as the acceptance gate's QP-oracle criterion.
KKT_TOL = 1e-5
SUMMARY_RTOL = 1e-9
CSV_HEADER = "t,min_h,wct_s,max_alter"


def read_metrics_csv(path: Path) -> np.ndarray:
    """(steps, 4) array of t, min_h, wct_s, max_alter from a metrics CSV."""
    lines = Path(path).read_text().splitlines()
    if not lines or lines[0] != CSV_HEADER:
        raise ValueError(f"{path}: unexpected header {lines[:1]!r}")
    rows = [[float(v) for v in line.split(",")] for line in lines[1:] if line]
    return np.array(rows, dtype=float).reshape(-1, 4)


def summary_mismatches(summary: dict, records: np.ndarray, dt: float) -> list:
    """Summary fields that cannot be recomputed from the metrics CSV."""
    wct = records[:, 2]
    expected = {"violation_time_s": dt * int((records[:, 1] < 0.0).sum())}
    if wct.size:
        expected["avg_wct_ms"] = float(wct.mean() * 1e3)
        expected["var_wct_ms2"] = float(wct.var() * 1e6)
        expected["avg_freq_hz"] = float(1.0 / wct.mean())
    bad = []
    for key, value in expected.items():
        got = summary.get(key)
        if not isinstance(got, (int, float)) or not math.isclose(
            got, value, rel_tol=SUMMARY_RTOL, abs_tol=1e-12
        ):
            bad.append(key)
    return bad


def closed_loop_failures(out_dir: Path, exit_code: int, steps: int, dt: float,
                         reference: np.ndarray | None):
    """Check one run_command output directory.

    Returns (records or None, boolean mask of failed steps, reasons).  A
    non-zero exit or an unreadable or inconsistent export fails every step;
    otherwise a step fails when its min_h is below MIN_H_TOL or, given a
    reference run of the same deterministic scenario, its min_h or
    max_alter differs from the reference.
    """
    every = np.ones(steps, dtype=bool)
    if exit_code != 0:
        return None, every, [f"exit code {exit_code}"]
    try:
        records = read_metrics_csv(out_dir / "metrics.csv")
        summary = json.loads((out_dir / "summary.json").read_text())
    except (OSError, ValueError) as exc:
        return None, every, [f"unreadable export: {exc}"]
    if records.shape[0] != steps:
        return records, every, [f"{records.shape[0]} rows for {steps} steps"]
    mismatched = summary_mismatches(summary, records, dt)
    if mismatched:
        return records, every, [f"summary.json disagrees with metrics.csv on {mismatched}"]
    bad = records[:, 1] < MIN_H_TOL
    reasons = []
    if bad.any():
        reasons.append(f"min_h below {MIN_H_TOL} on {int(bad.sum())} steps")
    if reference is not None:
        differs = (records[:, 1] != reference[:, 1]) | (records[:, 3] != reference[:, 3])
        if differs.any():
            reasons.append(f"{int(differs.sum())} steps differ from the checked run")
        bad |= differs
    return records, bad, reasons


def step_failures(observed: list):
    """Mask of steps whose recorded (status, fallback) shows a failure."""
    bad = np.array([status != "optimal" or fallback is not None
                    for status, fallback in observed], dtype=bool)
    reasons = [f"{int(bad.sum())} steps not optimal or with a fallback"] if bad.any() else []
    return bad, reasons


def solve_failures(result, problem_cls, kkt_check, weight, nominal, u_max) -> list:
    """Reasons one replay FilterResult fails; empty when it passes."""
    reasons = []
    if result.solver.status != "optimal":
        reasons.append(f"status {result.solver.status}")
    if result.fallback_applied is not None:
        reasons.append(f"fallback {result.fallback_applied}")
    if not result.min_h >= MIN_H_TOL:
        reasons.append(f"min_h {result.min_h:.3g}")
    u = np.asarray(result.solver.u_star, dtype=float)
    if not np.all(np.abs(u) <= u_max * (1.0 + 1e-12)):
        reasons.append("command outside the box bound")
    problem = problem_cls(weight, nominal, result.constraints.A, result.constraints.b, u_max)
    residual = max(kkt_check(problem, u))
    if not residual <= KKT_TOL:
        reasons.append(f"KKT residual {residual:.3g}")
    return reasons


def digest(*series) -> str:
    """SHA-256 of float64 series, hashed in the order given."""
    sha = hashlib.sha256()
    for values in series:
        sha.update(np.ascontiguousarray(values, dtype="<f8").tobytes())
    return sha.hexdigest()

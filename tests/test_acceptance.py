"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

The circle-swap criteria run the 30 s x 20 iteration experiment.  Its
worst-case plant draws no random numbers, so repeat_experiment runs it once
for all 20 iterations; criterion 1 adds 4 seeded iterations of the
uniform-convex plant.  These runs dominate the runtime (about a minute on a
2-vCPU host) and carry the `slow` marker, so `pytest -m "not slow"` leaves
them out.  Run with `pytest -s tests/test_acceptance.py` to watch the lines
appear.
"""

import math
import time
from dataclasses import replace

import numpy as np
import pytest

from robustcbf import (
    DisturbanceHull,
    FilterConfig,
    HullUnion,
    RobotState,
    WheelCommand,
    circle_init,
    filter_step,
    kkt_check,
    nominal_controller,
    output_point,
    pooled_vertices,
    repeat_experiment,
    step_dynamics,
    support_min,
    support_min_rows,
    symmetric_box,
    zero_union,
)
from robustcbf.barrier import assemble_constraints, pair_h_values
from robustcbf.dynamics import as_commands, as_poses, pose_frame
from robustcbf.cli import load_config
from robustcbf.qp import OPTIMAL

from .conftest import SCENARIO_DIR, U_MAX
from .oracles import (
    audit_margin,
    convex_combination,
    fd_jacobian,
    pair_h_gradient,
    projected_gradient_qp,
    qp_objective,
    shared_offsets,
)
from .test_qp import random_problem


def report(criterion: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {criterion}: {detail}")
    assert ok, f"{criterion}: {detail}"


@pytest.fixture(scope="module")
def circle22_cfg():
    return load_config(SCENARIO_DIR / "circle22.yaml")


@pytest.fixture(scope="module")
def robust_runs(circle22_cfg):
    return repeat_experiment(circle22_cfg)


@pytest.mark.slow
def test_criterion_1_robust_invariance(circle22_cfg, robust_runs):
    start = time.perf_counter()
    worst = min(float(run.min_h.min()) for run in robust_runs)
    violations = sum(int((run.min_h < -1e-3).sum()) for run in robust_runs)
    elapsed = time.perf_counter() - start
    report(
        "criterion 1 (robust invariance)",
        violations == 0 and worst >= -1e-3,
        f"worst min h = {worst:.6g} over {len(robust_runs)} iterations "
        f"(threshold -1e-3); check took {elapsed:.1f} s on top of the shared runs",
    )
    # The worst-case plant's iterations are one trajectory; these differ.
    seeded = replace(circle22_cfg, plant_disturbance="uniform-convex", iterations=4)
    start = time.perf_counter()
    runs = repeat_experiment(seeded)
    elapsed = time.perf_counter() - start
    worst = min(float(run.min_h.min()) for run in runs)
    violations = sum(int((run.min_h < -1e-3).sum()) for run in runs)
    report(
        "criterion 1 (robust invariance, seeded plant)",
        violations == 0 and worst >= -1e-3,
        f"worst min h = {worst:.6g} over {len(runs)} uniform-convex iterations at "
        f"seed {seeded.rng_seed} and its derived seeds (threshold -1e-3); {elapsed:.1f} s",
    )


@pytest.mark.slow
def test_criterion_2_non_robust_failure(circle22_cfg):
    cfg = replace(circle22_cfg, filter_disturbance=zero_union())
    runs = repeat_experiment(cfg)
    total_violation = sum(run.violation_time for run in runs)
    worst = min(float(run.min_h.min()) for run in runs)
    report(
        "criterion 2 (non-robust failure)",
        total_violation > 0.0,
        f"total violation time = {total_violation:.2f} s, worst min h = {worst:.4g}",
    )


def test_criterion_3_qp_oracle_equivalence():
    rng = np.random.default_rng(31337)
    worst_obj = 0.0
    worst_kkt = 0.0
    for _ in range(200):
        problem = random_problem(
            rng, m=int(rng.integers(1, 7)), rows=int(rng.integers(0, 11))
        )
        from robustcbf import solve

        sol = solve(problem)
        assert sol.status == OPTIMAL
        _, oracle_obj = projected_gradient_qp(
            problem.weight, problem.u_nom, problem.A, problem.b, problem.u_max
        )
        worst_obj = max(worst_obj, abs(qp_objective(problem, sol.u_star) - oracle_obj))
        worst_kkt = max(worst_kkt, max(kkt_check(problem, sol.u_star)))
    report(
        "criterion 3 (QP oracle equivalence)",
        worst_obj <= 1e-6 and worst_kkt <= 1e-5,
        f"200 problems, worst objective gap = {worst_obj:.2e}, worst KKT residual = {worst_kkt:.2e}",
    )


def test_criterion_4_hull_support_dominance():
    rng = np.random.default_rng(404)
    shapes = {
        "symmetric box": symmetric_box(5.0),
        "random cloud": DisturbanceHull(rng.normal(scale=4.0, size=(9, 2))),
        "single vertex": DisturbanceHull(np.array([[1.5, -2.0]])),
        "collinear segment": DisturbanceHull(np.array([[-3.0, 1.0], [3.0, -1.0], [0.0, 0.0]])),
    }
    failures = 0
    for hull in shapes.values():
        for _ in range(1000):
            z = rng.normal(size=2)
            d = convex_combination(hull.vertices, rng)
            if float(z @ d) < support_min(z, hull) - 1e-12:
                failures += 1
    report(
        "criterion 4 (hull support dominance)",
        failures == 0,
        f"{len(shapes)} hull shapes x 1000 (direction, point) pairs, {failures} failures",
    )


def test_criterion_5_union_convexification_equivalence():
    rng = np.random.default_rng(505)
    mismatches = 0
    for _ in range(100):
        q = int(rng.integers(1, 5))
        union = HullUnion(
            tuple(
                DisturbanceHull(rng.normal(scale=3.0, size=(int(rng.integers(1, 7)), 2)))
                for _ in range(q)
            )
        )
        z = rng.normal(size=2)
        pooled = DisturbanceHull(pooled_vertices(union))
        per_hull = [support_min_rows(z[None], hull)[0] for hull in union.hulls]
        if min(per_hull) != support_min(z, pooled):
            mismatches += 1
    report(
        "criterion 5 (union/convexification equivalence)",
        mismatches == 0,
        f"100 random unions, {mismatches} exact-equality mismatches",
    )


def test_criterion_6_gradient_correctness(geom, params):
    rng = np.random.default_rng(606)
    worst = 0.0
    for _ in range(100):
        p_i = rng.uniform(-2.0, 2.0, size=2)
        p_j = rng.uniform(-2.0, 2.0, size=2)
        grad_i, _ = pair_h_gradient(p_i, p_j)
        fd = fd_jacobian(lambda p: pair_h_values(p[None], p_j[None], params), p_i, 1e-5)[0]
        scale = max(float(np.abs(grad_i).max()), 1e-9)
        worst = max(worst, float(np.abs(fd - grad_i).max()) / scale)
    dt = 1e-3
    for _ in range(100):
        state = RobotState(*rng.normal(size=2), rng.uniform(-math.pi, math.pi))

        def through_step(u):
            nxt = step_dynamics(state, WheelCommand(u[0], u[1]), np.zeros(2), dt, geom)
            return output_point(nxt, geom)

        fd = fd_jacobian(through_step, np.zeros(2), eps=1.0) / dt
        (jac,) = pose_frame(as_poses([state]), geom).jacobians
        worst = max(worst, float(np.abs(fd - jac).max() / np.abs(jac).max()))
    report(
        "criterion 6 (gradient correctness)",
        worst < 1e-5,
        f"worst relative finite-difference error = {worst:.2e} over 100 + 100 inputs",
    )


def test_criterion_7_minimal_invasiveness(geom, params):
    rng = np.random.default_rng(707)
    cfg = FilterConfig(
        geometry=geom,
        barrier=params,
        disturbance=HullUnion((symmetric_box(5.0),)),
        u_max=U_MAX,
        fallback="error",
    )
    offsets = shared_offsets(cfg.disturbance)
    worst = 0.0
    checked = 0
    while checked < 100:
        n = int(rng.integers(2, 6))
        states = [
            RobotState(2.0 * k, float(rng.normal(scale=0.2)), rng.uniform(-math.pi, math.pi))
            for k in range(n)
        ]
        nominal = [WheelCommand(*rng.uniform(-U_MAX, U_MAX, size=2)) for _ in range(n)]
        if audit_margin(states, nominal, geom, params, offsets) < -1e-9:
            continue
        checked += 1
        result = filter_step(states, nominal, cfg)
        stacked = as_commands(nominal).reshape(-1)
        worst = max(worst, float(np.abs(result.solver.u_star - stacked).max()))
    report(
        "criterion 7 (minimal invasiveness)",
        worst <= 1e-6,
        f"100 safe configurations, worst command change = {worst:.2e}",
    )


def test_criterion_8_linear_disturbance_cost(geom, params):
    rng = np.random.default_rng(808)
    states = circle_init(22, 0.6, geom, params)
    stack = assemble_constraints(
        states, geom, params, HullUnion((symmetric_box(5.0),)), U_MAX
    )
    directions = np.empty((stack.rows, 2))
    for row in range(stack.rows):
        i, j = stack.pairs[row]
        directions[row] = (
            stack.A[row, 2 * i : 2 * i + 2] + stack.A[row, 2 * j : 2 * j + 2]
        )

    sizes = np.array([4, 64, 1024])
    medians = []
    for p in sizes:
        hull = DisturbanceHull(rng.normal(scale=5.0, size=(int(p), 2)))
        reps = max(4, int(4096 // p))
        samples = []
        for _ in range(11):
            t0 = time.perf_counter()
            for _ in range(reps):
                support_min_rows(directions, hull)
            samples.append((time.perf_counter() - t0) / reps)
        medians.append(float(np.median(samples)))
    medians = np.array(medians)
    slope, intercept = np.polyfit(sizes, medians, 1)
    fitted = slope * sizes + intercept
    ss_res = float(((medians - fitted) ** 2).sum())
    ss_tot = float(((medians - medians.mean()) ** 2).sum())
    r_squared = 1.0 - ss_res / ss_tot
    report(
        "criterion 8 (linear disturbance cost)",
        r_squared >= 0.95 and slope > 0.0,
        f"median margin-pass times {[f'{t*1e6:.1f}us' for t in medians]} at p={sizes.tolist()}, "
        f"linear fit R^2 = {r_squared:.4f}",
    )


def test_criterion_9_throughput_sanity(geom, params, circle22_cfg):
    states = circle_init(22, 0.6, geom, params)
    goals = [-output_point(s, geom) for s in states]
    nominal = [nominal_controller(s, g, 1.0, geom, U_MAX) for s, g in zip(states, goals)]
    cfg = circle22_cfg.filter_config()
    times = []
    for _ in range(15):
        result = filter_step(states, nominal, cfg)
        times.append(result.wall_clock)
        assert result.solver.status == OPTIMAL
        assert result.constraints.rows == 231
    median_ms = float(np.median(times)) * 1e3
    report(
        "criterion 9 (throughput sanity)",
        median_ms <= 50.0,
        f"median cold filter step = {median_ms:.2f} ms "
        f"(44 variables, 231 barrier rows + box; bound 50 ms)",
    )


@pytest.mark.slow
def test_cli_comparison_mirrors_the_two_columns(tmp_path):
    # Supporting check for criteria 1-2 at the CLI surface: a shortened
    # circle-swap in both modes reproduces the zero-vs-positive violation
    # pattern in compare.json.
    import json

    from robustcbf.cli import EXIT_OK, run_command

    short = (SCENARIO_DIR / "circle22.yaml").read_text()
    short = short.replace("duration: 30.0", "duration: 10.0")
    short = short.replace("iterations: 20", "iterations: 1")
    scenario = tmp_path / "circle22_short.yaml"
    scenario.write_text(short)
    out = tmp_path / "out"
    assert run_command(scenario, out, mode="both", check=True) == EXIT_OK
    compare = json.loads((out / "compare.json").read_text())
    assert compare["robust"]["violation_time_s"] == 0.0
    assert compare["non_robust"]["violation_time_s"] > 0.0
    assert compare["delta"]["violation_time_s"] > 0.0


def test_cli_benign_pair_completes_goals(tmp_path):
    import json

    from robustcbf.cli import EXIT_OK, run_command

    out = tmp_path / "pair"
    assert run_command(SCENARIO_DIR / "pair_benign.yaml", out, mode="robust") == EXIT_OK
    summary = json.loads((out / "summary.json").read_text())
    assert summary["goal_completion"] == 1.0
    assert summary["violation_time_s"] == 0.0


@pytest.mark.slow
def test_criterion_10_discretization_consistency(circle22_cfg, robust_runs):
    worst_base = min(float(run.min_h.min()) for run in robust_runs)
    half_cfg = replace(circle22_cfg, dt=0.0025)
    half_runs = repeat_experiment(half_cfg)
    worst_half = min(float(run.min_h.min()) for run in half_runs)
    violation_base = max(0.0, -worst_base)
    violation_half = max(0.0, -worst_half)
    report(
        "criterion 10 (discretization consistency)",
        violation_half <= violation_base,
        f"worst min h: {worst_base:.6g} at dt=0.005 vs {worst_half:.6g} at dt=0.0025 "
        f"(violations {violation_base:.2e} -> {violation_half:.2e})",
    )

"""Closed-loop simulation of the circle-swap experiment: nominal controller,
safety filter, disturbance realization, and metric recording."""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from .barrier import BarrierParams, pairwise_h
from .disturbance import (
    HullUnion,
    pooled_vertices,
    sample_hull,
    support_argmin,
    support_min,
    symmetric_box,
)
from .dynamics import (
    RobotGeometry,
    RobotState,
    WheelCommand,
    body_output_matrix,
    output_point,
    step_dynamics,
)
from .safety_filter import FilterConfig, FilterResult, filter_step

PLANT_MODES = ("off", "uniform-convex", "worst-case", "vertex")

DEFAULT_GEOMETRY = RobotGeometry(wheel_radius=0.016, base_length=0.105, look_ahead=0.03)
DEFAULT_BARRIER = BarrierParams(delta=0.12, gamma=150.0)
DEFAULT_U_MAX = 25.0
DEFAULT_PSI = 5.0


@dataclass(frozen=True, eq=False)
class ScenarioConfig:
    """Full description of one experiment.

    disturbance is the declared (true) hull union the plant draws from;
    filter_disturbance overrides what the filter protects against (None means
    the declared union; the CLI's non-robust mode passes the zero hull).
    """

    robot_count: int
    sim_duration: float
    geometry: RobotGeometry = DEFAULT_GEOMETRY
    barrier: BarrierParams = DEFAULT_BARRIER
    disturbance: HullUnion = field(
        default_factory=lambda: HullUnion((symmetric_box(DEFAULT_PSI),))
    )
    filter_disturbance: HullUnion | None = None
    u_max: float = DEFAULT_U_MAX
    fallback: str = "slack"
    slack_weight: float = 1e6
    circle_radius: float = 0.6
    dt: float = 0.005
    plant_disturbance: str = "off"
    plant_vertex: int = 0
    controller_gain: float = 1.0
    goal_tolerance: float = 0.05
    rng_seed: int = 0
    iterations: int = 1
    integrator: str = "euler"
    record_states: bool = False
    debug_checks: bool = False

    def __post_init__(self) -> None:
        if self.robot_count < 1:
            raise ValueError("robot_count must be >= 1")
        if not (math.isfinite(self.dt) and self.dt > 0.0):
            raise ValueError("dt must be > 0")
        if not (math.isfinite(self.sim_duration) and self.sim_duration > 0.0):
            raise ValueError("sim_duration must be > 0")
        min_radius = self.robot_count * self.barrier.delta / (2.0 * math.pi)
        if not self.circle_radius > min_radius:
            raise ValueError(
                f"circle_radius must exceed {min_radius:.4f} m for "
                f"{self.robot_count} robots of diameter {self.barrier.delta}"
            )
        if self.plant_disturbance not in PLANT_MODES:
            raise ValueError(
                f"plant_disturbance must be one of {PLANT_MODES}, "
                f"got {self.plant_disturbance!r}"
            )
        if not (math.isfinite(self.controller_gain) and self.controller_gain > 0.0):
            raise ValueError("controller_gain must be > 0")
        if not (math.isfinite(self.goal_tolerance) and self.goal_tolerance > 0.0):
            raise ValueError("goal_tolerance must be > 0")
        if self.iterations < 1:
            raise ValueError("iterations must be >= 1")
        if self.integrator not in ("euler", "rk4"):
            raise ValueError(f"unknown integrator {self.integrator!r}")

    def filter_config(self) -> FilterConfig:
        hulls = self.filter_disturbance or self.disturbance
        return FilterConfig(
            geometry=self.geometry,
            barrier=self.barrier,
            disturbance=hulls,
            u_max=self.u_max,
            fallback=self.fallback,
            slack_weight=self.slack_weight,
        )

    def steps(self) -> int:
        return int(math.floor(self.sim_duration / self.dt + 1e-9))


@dataclass(frozen=True, eq=False)
class RunMetrics:
    """Per-step series and summary figures of one run."""

    times: np.ndarray
    min_h: np.ndarray
    wall_clock: np.ndarray
    max_alter: np.ndarray
    violation_time: float
    goal_completion: float
    states: np.ndarray | None = None


def circle_init(
    n: int, radius: float, geom: RobotGeometry, params: BarrierParams
) -> list:
    """Place n robots evenly on a circle, headings toward the center.

    Raises if any pair starts in contact (output points closer than the
    safety diameter).
    """
    if n < 1:
        raise ValueError("need at least one robot")
    states = []
    for k in range(n):
        angle = 2.0 * math.pi * k / n
        states.append(
            RobotState(
                radius * math.cos(angle),
                radius * math.sin(angle),
                angle + math.pi,
            )
        )
    outputs = [output_point(s, geom) for s in states]
    for i in range(n - 1):
        for j in range(i + 1, n):
            if pairwise_h(outputs[i], outputs[j], params) <= 0.0:
                raise ValueError(
                    f"robots {i} and {j} overlap at radius {radius}; "
                    "increase the circle radius"
                )
    return states


def nominal_controller(
    state: RobotState,
    goal,
    gain: float,
    geom: RobotGeometry,
    u_max: float,
) -> WheelCommand:
    """Proportional drive of the output point toward a goal.

    Maps the desired output velocity through the inverse output Jacobian and
    saturates the wheel speeds uniformly, preserving direction.
    """
    lp = geom.look_ahead
    cos_t = math.cos(state.theta)
    sin_t = math.sin(state.theta)
    desired_x = gain * (float(goal[0]) - (state.x1 + lp * cos_t))
    desired_y = gain * (float(goal[1]) - (state.x2 + lp * sin_t))
    block = body_output_matrix(geom)
    g00 = cos_t * block[0, 0] - sin_t * block[1, 0]
    g01 = cos_t * block[0, 1] - sin_t * block[1, 1]
    g10 = sin_t * block[0, 0] + cos_t * block[1, 0]
    g11 = sin_t * block[0, 1] + cos_t * block[1, 1]
    det = g00 * g11 - g01 * g10
    wheel_r = (g11 * desired_x - g01 * desired_y) / det
    wheel_l = (-g10 * desired_x + g00 * desired_y) / det
    peak = max(abs(wheel_r), abs(wheel_l))
    if peak > u_max:
        scale = u_max / peak
        wheel_r *= scale
        wheel_l *= scale
    return WheelCommand(wheel_r, wheel_l)


def _worst_case_disturbance(
    result: FilterResult, union: HullUnion
) -> np.ndarray:
    """Adversarial vertex against the tightest constraint's direction.

    Picks the pair row with the least slack at the filtered command,
    recovers its margin direction z (the sum of the two robots' blocks), and
    returns the pooled-union vertex minimizing z . v.  Every robot receives
    this vertex, which is exactly the worst disturbance the certificate
    models.
    """
    constraints = result.constraints
    if constraints.rows == 0:
        return union.hulls[0].vertices[0].copy()
    slack = constraints.A @ result.solver.u_star - constraints.b
    row = int(np.argmin(slack))
    i, j = constraints.pairs[row]
    direction = (
        constraints.A[row, 2 * i : 2 * i + 2] + constraints.A[row, 2 * j : 2 * j + 2]
    )
    best_hull = min(union.hulls, key=lambda hull: support_min(direction, hull))
    return best_hull.vertices[support_argmin(direction, best_hull)].copy()


def _realize_disturbances(
    cfg: ScenarioConfig, result: FilterResult, rng: np.random.Generator
) -> np.ndarray:
    n = cfg.robot_count
    mode = cfg.plant_disturbance
    if mode == "off":
        return np.zeros((n, 2))
    union = cfg.disturbance
    if mode == "worst-case":
        vertex = _worst_case_disturbance(result, union)
        return np.tile(vertex, (n, 1))
    if mode == "vertex":
        pool = pooled_vertices(union)
        if not 0 <= cfg.plant_vertex < pool.shape[0]:
            raise IndexError(
                f"plant_vertex {cfg.plant_vertex} out of range for "
                f"{pool.shape[0]} pooled vertices"
            )
        return np.tile(pool[cfg.plant_vertex], (n, 1))
    draws = np.empty((n, 2))
    for k in range(n):
        hull = union.hulls[int(rng.integers(union.size))] if union.size > 1 else union.hulls[0]
        draws[k] = sample_hull(hull, "uniform-convex", rng=rng)
    return draws


_DEBUG_DIRECTIONS = np.array(
    [[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0], [1.0, 1.0], [1.0, -1.0], [-1.0, 1.0], [-1.0, -1.0]]
)


def _assert_contained(d: np.ndarray, union: HullUnion) -> None:
    for z in _DEBUG_DIRECTIONS:
        bound = min(support_min(z, hull) for hull in union.hulls)
        if float(z @ d) < bound - 1e-12:
            raise AssertionError(
                f"realized disturbance {d} escapes the declared hull along {z}"
            )


def run_scenario(cfg: ScenarioConfig) -> RunMetrics:
    """Run one closed-loop experiment and record its metrics.

    Goals are the antipodal circle points of the initial formation.  The
    loop per step: nominal controller, safety filter, plant disturbance,
    integration.  Fully deterministic for a fixed config and seed.
    """
    states = circle_init(cfg.robot_count, cfg.circle_radius, cfg.geometry, cfg.barrier)
    goals = [-output_point(s, cfg.geometry) for s in states]
    # Antipodal targets: mirror the initial output points through the center.
    fcfg = cfg.filter_config()
    rng = np.random.default_rng(cfg.rng_seed)
    steps = cfg.steps()

    times = np.arange(steps) * cfg.dt
    min_h = np.empty(steps)
    wall_clock = np.empty(steps)
    max_alter = np.empty(steps)
    trace = np.empty((steps, cfg.robot_count, 3)) if cfg.record_states else None

    warm = None
    for k in range(steps):
        commands = [
            nominal_controller(s, g, cfg.controller_gain, cfg.geometry, cfg.u_max)
            for s, g in zip(states, goals)
        ]
        result = filter_step(states, commands, fcfg, warm_start=warm)
        warm = None if result.fallback_applied else result.solver

        min_h[k] = result.min_h
        wall_clock[k] = result.wall_clock
        max_alter[k] = float(result.altered.max())
        if trace is not None:
            for r, s in enumerate(states):
                trace[k, r] = (s.x1, s.x2, s.theta)

        draws = _realize_disturbances(cfg, result, rng)
        if cfg.debug_checks:
            for row in draws:
                _assert_contained(row, cfg.disturbance)
        states = [
            step_dynamics(s, c, draws[r], cfg.dt, cfg.geometry, cfg.integrator)
            for r, (s, c) in enumerate(zip(states, result.commands))
        ]

    reached = sum(
        1
        for s, g in zip(states, goals)
        if float(np.linalg.norm(output_point(s, cfg.geometry) - g)) <= cfg.goal_tolerance
    )
    return RunMetrics(
        times=times,
        min_h=min_h,
        wall_clock=wall_clock,
        max_alter=max_alter,
        violation_time=float(cfg.dt * int((min_h < 0.0).sum())),
        goal_completion=reached / cfg.robot_count,
        states=trace,
    )


def _run_with_seed(args) -> RunMetrics:
    cfg, seed = args
    return run_scenario(replace(cfg, rng_seed=seed))


def derived_seeds(base_seed: int, count: int) -> list:
    """Deterministic per-iteration seeds; iteration 0 keeps the base seed so
    a single-iteration experiment equals a plain run."""
    if count == 1:
        return [int(base_seed)]
    tail = np.random.SeedSequence(base_seed).generate_state(count - 1, dtype=np.uint64)
    return [int(base_seed)] + [int(s) for s in tail]


def repeat_experiment(cfg: ScenarioConfig, jobs: int = 1) -> list:
    """Run the scenario cfg.iterations times with derived seeds.

    Results come back ordered by iteration index regardless of jobs; feed
    them to aggregate_metrics for the wall-clock and violation summary.
    """
    seeds = derived_seeds(cfg.rng_seed, cfg.iterations)
    work = [(cfg, seed) for seed in seeds]
    if jobs <= 1 or cfg.iterations == 1:
        return [_run_with_seed(item) for item in work]
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(_run_with_seed, work))


def aggregate_metrics(runs) -> dict:
    """Mean/variance of the solver wall clock, total violation time, and the
    mean goal completion over a list of runs.  Wall-clock statistics are None
    when no steps were recorded."""
    runs = list(runs)
    wct = (
        np.concatenate([run.wall_clock for run in runs]) if runs else np.zeros(0)
    )
    violation = float(sum(run.violation_time for run in runs))
    completion = float(np.mean([run.goal_completion for run in runs])) if runs else 0.0
    if wct.size:
        avg_wct_ms = float(wct.mean() * 1e3)
        var_wct_ms2 = float(wct.var() * 1e6)
        avg_freq_hz = float(1.0 / wct.mean())
    else:
        avg_wct_ms = None
        var_wct_ms2 = None
        avg_freq_hz = None
    return {
        "avg_wct_ms": avg_wct_ms,
        "var_wct_ms2": var_wct_ms2,
        "avg_freq_hz": avg_freq_hz,
        "violation_time_s": violation,
        "goal_completion": completion,
    }

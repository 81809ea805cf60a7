"""Closed-loop simulation of the circle-swap experiment: nominal controller,
safety filter, disturbance realization, and metric recording."""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .barrier import BarrierParams, pair_h_values
from .disturbance import (
    DisturbanceHull,
    HullUnion,
    flat_dirichlet_points,
    pooled_vertices,
    sample_hull,  # noqa: F401 - perfbench hooks sim.sample_hull by name
    support_argmin,
    support_min,  # noqa: F401 - perfbench hooks sim.support_min by name
    support_min_rows,
    symmetric_box,
)
from .dynamics import (
    PoseFrame,
    RobotGeometry,
    RobotState,
    WheelCommand,
    as_poses,
    pose_frame,
    step_dynamics,  # noqa: F401 - perfbench hooks sim.step_dynamics by name
    step_ensemble,
)
from .safety_filter import FilterConfig, FilterResult, filter_step

PLANT_MODES = ("off", "uniform-convex", "worst-case", "vertex")

DEFAULT_GEOMETRY = RobotGeometry(wheel_radius=0.016, base_length=0.105, look_ahead=0.03)
DEFAULT_BARRIER = BarrierParams(delta=0.12, gamma=150.0)


@dataclass(frozen=True, eq=False)
class ScenarioConfig:
    """Full description of one experiment.

    disturbance is the declared (true) hull union the plant draws from;
    filter_disturbance overrides what the filter protects against (None means
    the declared union; the CLI's non-robust mode passes the zero hull).
    Construction checks every field, the start circle through circle_init
    and the filter's through FilterConfig, and keeps for every run what the
    checks build: start_poses (n, 3), the declared union pooled in one hull,
    and filter_cfg.  dataclasses.replace rebuilds them all.
    """

    robot_count: int
    sim_duration: float
    geometry: RobotGeometry = DEFAULT_GEOMETRY
    barrier: BarrierParams = DEFAULT_BARRIER
    disturbance: HullUnion = field(
        default_factory=lambda: HullUnion((symmetric_box(5.0),))
    )
    filter_disturbance: HullUnion | None = None
    u_max: float = 25.0
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
    start_poses: np.ndarray = field(init=False, repr=False)
    pooled: DisturbanceHull = field(init=False, repr=False)
    filter_cfg: FilterConfig = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.robot_count < 1:
            raise ValueError("robot_count must be >= 1")
        if not (math.isfinite(self.dt) and self.dt > 0.0):
            raise ValueError("dt must be > 0")
        if not (math.isfinite(self.sim_duration) and self.sim_duration > 0.0):
            raise ValueError("sim_duration must be > 0")
        start = circle_init(self.robot_count, self.circle_radius, self.geometry, self.barrier)
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
        if self.rng_seed < 0:
            raise ValueError("rng_seed must be >= 0")
        pooled = DisturbanceHull(pooled_vertices(self.disturbance))
        if not 0 <= self.plant_vertex < pooled.size:
            raise ValueError(
                f"plant_vertex {self.plant_vertex} out of range for "
                f"{pooled.size} pooled vertices"
            )
        fcfg = FilterConfig(  # u_max, fallback and slack_weight checks
            geometry=self.geometry,
            barrier=self.barrier,
            disturbance=self.filter_disturbance or self.disturbance,
            u_max=self.u_max,
            fallback=self.fallback,
            slack_weight=self.slack_weight,
        )
        poses = as_poses(start)
        poses.setflags(write=False)
        for name, value in (("start_poses", poses), ("pooled", pooled), ("filter_cfg", fcfg)):
            object.__setattr__(self, name, value)

    def filter_config(self) -> FilterConfig:
        """The FilterConfig built at construction: every run shares its plans."""
        return self.filter_cfg

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

    Raises on a radius that is not finite and positive, and if any pair
    starts in contact (output points closer than the safety diameter),
    naming the first such pair.  ScenarioConfig runs this check too.
    """
    if n < 1:
        raise ValueError("need at least one robot")
    if not (math.isfinite(radius) and radius > 0.0):
        raise ValueError(f"circle_radius must be finite and > 0, got {radius!r}")
    states = [
        RobotState(radius * math.cos(angle), radius * math.sin(angle), angle + math.pi)
        for angle in (2.0 * math.pi * k / n for k in range(n))
    ]
    iu, ju = np.triu_indices(n, k=1)
    outputs = pose_frame(states, geom).outputs
    h = pair_h_values(outputs[iu], outputs[ju], params)
    contact = np.flatnonzero(h <= 0.0)
    if contact.size:
        raise ValueError(
            f"robots {iu[contact[0]]} and {ju[contact[0]]} overlap at circle_radius "
            f"{radius}; increase the radius"
        )
    return states


def nominal_commands(
    poses: np.ndarray | PoseFrame, goals: np.ndarray, gain: float, geom: RobotGeometry, u_max: float
) -> np.ndarray:
    """Proportional drive of each output point toward its goal.

    poses are n poses as pose_frame takes them, goals (n, 2); returns (n, 2)
    wheel commands.  Maps the desired output velocity through the inverse
    output Jacobian and saturates each robot's wheel speeds uniformly,
    preserving direction.
    """
    frame = pose_frame(poses, geom)
    cos_t, sin_t = frame.cos, frame.sin
    desired = gain * (goals - frame.outputs)
    block = geom.body_output_matrix
    g00 = cos_t * block[0, 0] - sin_t * block[1, 0]
    g01 = cos_t * block[0, 1] - sin_t * block[1, 1]
    g10 = sin_t * block[0, 0] + cos_t * block[1, 0]
    g11 = sin_t * block[0, 1] + cos_t * block[1, 1]
    det = g00 * g11 - g01 * g10
    dx, dy = desired[:, 0], desired[:, 1]
    wheels = np.column_stack([g11 * dx - g01 * dy, -g10 * dx + g00 * dy]) / det[:, None]
    peak = np.abs(wheels).max(axis=1)
    over = peak > u_max
    if over.any():
        wheels[over] *= (u_max / peak[over])[:, None]
    return wheels


def nominal_controller(
    state: RobotState, goal, gain: float, geom: RobotGeometry, u_max: float
) -> WheelCommand:
    """nominal_commands for one robot and its 2-vector goal."""
    goals = np.asarray(goal, dtype=float).reshape(1, 2)
    return WheelCommand(*nominal_commands([state], goals, gain, geom, u_max)[0])


def _worst_case_disturbance(result: FilterResult, pooled: DisturbanceHull) -> np.ndarray:
    """Adversarial vertex against the tightest constraint's direction.

    Picks the pair row with the least slack at the filtered command, reads
    its margin direction z from the constraint set's z_rows (the sum of the
    two robots' blocks that assembly formed), and returns the vertex of the
    pooled union minimizing z . v, the first of equal ones: the vertex a
    search hull by hull finds too.  Every robot receives this vertex, which
    is exactly the worst disturbance the certificate models.
    """
    constraints = result.constraints
    if constraints.rows == 0:
        return pooled.vertices[0].copy()
    slack = constraints.A @ result.solver.u_star - constraints.b
    row = int(np.argmin(slack))
    return pooled.vertices[support_argmin(constraints.z_rows[row], pooled)].copy()


def _realize_disturbances(
    cfg: ScenarioConfig, result: FilterResult, rng: np.random.Generator
) -> np.ndarray:
    """Per-robot plant disturbances of one step."""
    n = cfg.robot_count
    mode = cfg.plant_disturbance
    if mode == "off":
        return np.zeros((n, 2))
    if mode == "worst-case":
        return np.full((n, 2), _worst_case_disturbance(result, cfg.pooled))
    if mode == "vertex":
        return np.full((n, 2), cfg.pooled.vertices[cfg.plant_vertex])
    return flat_dirichlet_points(cfg.disturbance, n, rng)


_DEBUG_DIRECTIONS = np.array(
    [[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0], [1.0, 1.0], [1.0, -1.0], [-1.0, 1.0], [-1.0, -1.0]]
)


def run_scenario(cfg: ScenarioConfig) -> RunMetrics:
    """Run one closed-loop experiment and record its metrics.

    Goals are the antipodal circle points of the initial formation.  The
    loop per step, on one PoseFrame and (n, 2) commands: nominal controller,
    safety filter, plant disturbance, integration.  It starts from
    cfg.start_poses and filters with cfg.filter_cfg; the vertex and
    worst-case plants and the debug_checks bounds read cfg.pooled.  Fully
    deterministic for a fixed config and seed.
    """
    n = cfg.robot_count
    geom = cfg.geometry
    frame = pose_frame(cfg.start_poses, geom)
    # Antipodal targets: mirror the initial output points through the center.
    goals = -frame.outputs
    bounds = support_min_rows(_DEBUG_DIRECTIONS, cfg.pooled) - 1e-12 if cfg.debug_checks else None
    rng = np.random.default_rng(cfg.rng_seed)
    steps = cfg.steps()

    times = np.arange(steps) * cfg.dt
    min_h = np.empty(steps)
    wall_clock = np.empty(steps)
    max_alter = np.empty(steps)
    trace = np.empty((steps, n, 3)) if cfg.record_states else None

    warm = None
    for k in range(steps):
        commands = nominal_commands(frame, goals, cfg.controller_gain, geom, cfg.u_max)
        result = filter_step(frame, commands, cfg.filter_cfg, warm_start=warm)
        warm = result.solver

        min_h[k] = result.min_h
        wall_clock[k] = result.wall_clock
        max_alter[k] = float(result.altered.max())
        if trace is not None:
            trace[k] = frame.poses

        draws = _realize_disturbances(cfg, result, rng)
        if cfg.debug_checks:
            robot, side = np.nonzero(draws @ _DEBUG_DIRECTIONS.T < bounds)
            if robot.size:
                raise AssertionError(
                    f"realized disturbance {draws[robot[0]]} of robot {robot[0]} "
                    f"escapes the declared hull along {_DEBUG_DIRECTIONS[side[0]]}"
                )
        poses = step_ensemble(
            frame, result.solver.u_star.reshape(n, 2), draws, cfg.dt, geom, cfg.integrator
        )
        frame = pose_frame(poses, geom)

    distance = np.linalg.norm(frame.outputs - goals, axis=1)
    return RunMetrics(
        times=times,
        min_h=min_h,
        wall_clock=wall_clock,
        max_alter=max_alter,
        violation_time=float(cfg.dt * int((min_h < 0.0).sum())),
        goal_completion=int((distance <= cfg.goal_tolerance).sum()) / n,
        states=trace,
    )


def derived_seeds(base_seed: int, count: int) -> list:
    """Deterministic per-iteration seeds; iteration 0 keeps the base seed so
    a single-iteration experiment equals a plain run."""
    tail = np.random.SeedSequence(base_seed).generate_state(count - 1, dtype=np.uint64)
    return [int(base_seed)] + [int(s) for s in tail]


def repeat_experiment(cfg: ScenarioConfig, jobs: int = 1) -> list:
    """Run the scenario cfg.iterations times with derived seeds.

    Only the uniform-convex plant reads the seed; any other runs once and
    fills every slot with that run.  Up to min(jobs, iterations) worker
    processes run the seeded ones, in iteration order; feed the list to
    aggregate_metrics for the wall-clock and violation summary.
    """
    if cfg.plant_disturbance != "uniform-convex":
        return [run_scenario(cfg)] * cfg.iterations
    seeds = derived_seeds(cfg.rng_seed, cfg.iterations)
    configs = [cfg] + [replace(cfg, rng_seed=seed) for seed in seeds[1:]]
    if jobs <= 1 or cfg.iterations == 1:
        return [run_scenario(one) for one in configs]
    # Imported here: the pool's modules cost every other caller start-up time.
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=min(jobs, cfg.iterations)) as pool:
        return list(pool.map(run_scenario, configs))


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

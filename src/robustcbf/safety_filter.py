"""Per-step safety filter: minimally alters nominal wheel commands so the
stacked collision constraints hold under the modeled disturbance."""

from __future__ import annotations

import logging
import math
import time
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from . import qp
from .barrier import BarrierParams, ConstraintSet, assemble_constraints, pair_slots
from .disturbance import DisturbanceHull, HullUnion, boundary_hull, pooled_vertices
from .dynamics import PoseFrame, RobotGeometry, RobotState, WheelCommand, as_commands, pose_frame

_FALLBACKS = ("error", "zero-input", "slack")
_LOG = logging.getLogger("robustcbf")
CERTIFICATE_TOL = 1e-9


class FilterInfeasibleError(RuntimeError):
    """Raised when the QP has no feasible point and the fallback is 'error'."""


@dataclass(frozen=True, eq=False)
class FilterPlan:
    """What the filter reuses at every step for one robot count: the
    read-only (pairs, 2) array of np.triu_indices(n, 1) and its pair_slots,
    the prepared QP weight, and margin_union, one hull of the boundary_hull
    points of the pooled disturbance vertices, which the margin pass reads
    in one call in place of the declared hulls for the same bits."""

    pairs: np.ndarray
    slots: np.ndarray
    weight: qp.PreparedWeight
    margin_union: HullUnion


@dataclass(frozen=True)
class FilterConfig:
    """Everything the filter needs per scenario.

    fallback governs behavior on an infeasible QP: surface the failure,
    command zero wheels, or re-solve with a heavily penalized slack on the
    barrier rows (box bounds stay hard).  Each instance builds its
    FilterPlan for a robot count on first use and keeps it.
    """

    geometry: RobotGeometry
    barrier: BarrierParams
    disturbance: HullUnion
    u_max: float
    fallback: str = "slack"
    slack_weight: float = 1e6

    def __post_init__(self) -> None:
        if not (math.isfinite(self.u_max) and self.u_max > 0.0):
            raise ValueError(f"u_max must be finite and > 0, got {self.u_max!r}")
        if self.fallback not in _FALLBACKS:
            raise ValueError(f"fallback must be one of {_FALLBACKS}, got {self.fallback!r}")
        if self.fallback == "slack" and not (
            math.isfinite(self.slack_weight) and self.slack_weight > 0.0
        ):
            raise ValueError("slack fallback needs a positive slack_weight")
        object.__setattr__(self, "_plans", {})

    def plan(self, n: int) -> FilterPlan:
        """The FilterPlan for n robots, built on the first call for n."""
        plan = self._plans.get(n)
        if plan is None:
            pairs = np.stack(np.triu_indices(n, k=1), axis=1)
            pairs.setflags(write=False)
            plan = FilterPlan(
                pairs=pairs,
                slots=pair_slots(pairs, n),
                weight=qp.prepare_weight(ensemble_weight(n, self.geometry)),
                margin_union=HullUnion(
                    (boundary_hull(DisturbanceHull(pooled_vertices(self.disturbance))),)
                ),
            )
            self._plans[n] = plan
        return plan


@dataclass(frozen=True, eq=False)
class FilterResult:
    """Filtered commands plus diagnostics for one control step.

    solver.u_star holds the filtered commands as (omega_r, omega_l) per
    robot.  wall_clock covers constraint assembly and the QP solve only,
    plus the pose frame when filter_step builds it; min_h is the smallest
    pairwise barrier value at the input state (inf for a single robot).
    """

    altered: np.ndarray
    min_h: float
    solver: qp.QpSolution
    constraints: ConstraintSet
    wall_clock: float
    fallback_applied: str | None = None


def ensemble_weight(n: int, geom: RobotGeometry) -> np.ndarray:
    """Block-diagonal QP weight: n copies of the look-ahead output matrix.

    Weighting by this matrix penalizes changes to the output-point velocity,
    which favors altering angular over linear motion.
    """
    if n < 1:
        raise ValueError("need at least one robot")
    return np.kron(np.eye(n), geom.body_output_matrix)


def filter_step(
    states: Sequence[RobotState] | np.ndarray | PoseFrame,
    u_nom: Sequence[WheelCommand] | np.ndarray,
    cfg: FilterConfig,
    warm_start=None,
) -> FilterResult:
    """Render one step's nominal commands safe.

    states is a sequence of RobotState, an (n, 3) pose array or a PoseFrame,
    u_nom a sequence of WheelCommand or an (n, 2) command array.  Solves
    min ||W (u_nom - u)||^2 over the stacked barrier rows and the box bound;
    when the commands are already safe the answer is u_nom itself.
    warm_start is None or a previous step's QpSolution, which seeds the active set.
    """
    nominal = as_commands(u_nom).reshape(-1)
    start = time.perf_counter()
    frame = pose_frame(states, cfg.geometry)
    n = frame.poses.shape[0]
    if n < 1 or nominal.size != 2 * n:
        raise ValueError("states and u_nom must have equal length >= 1")

    plan = cfg.plan(n)
    constraints = assemble_constraints(
        frame,
        cfg.geometry,
        cfg.barrier,
        plan.margin_union,
        cfg.u_max,
        plan.pairs,
        plan.slots,
    )
    problem = qp.QpProblem(
        plan.weight, nominal, constraints.C, constraints.d, cfg.u_max, stacked=True
    )
    solution = qp.solve(problem, warm_start=warm_start)

    fallback_applied = None
    if solution.status != qp.OPTIMAL:
        if cfg.fallback == "error":
            raise FilterInfeasibleError(f"safety QP ended with status {solution.status!r}")
        if cfg.fallback == "zero-input":
            solution = replace(solution, u_star=np.zeros(2 * n), active_set=())
            fallback_applied = "zero-input"
        else:
            solution = qp.solve_with_slack(problem, cfg.slack_weight)
            fallback_applied = "slack"
            if solution.status != qp.OPTIMAL:
                _LOG.warning("slack re-solve ended %s after %d iterations, kkt_residual %.3e",
                             solution.status, solution.iterations, solution.kkt_residual)
    wall_clock = time.perf_counter() - start

    u_star = solution.u_star
    altered = np.abs(u_star - nominal).reshape(n, 2).max(axis=1)
    min_h = float(constraints.h_pairs.min()) if constraints.h_pairs.size else math.inf
    return FilterResult(
        altered=altered,
        min_h=min_h,
        solver=solution,
        constraints=constraints,
        wall_clock=wall_clock,
        fallback_applied=fallback_applied,
    )


def certificate_holds(
    states: Sequence[RobotState] | np.ndarray | PoseFrame,
    u: Sequence[WheelCommand] | np.ndarray,
    cfg: FilterConfig,
):
    """Directly evaluate the robust certificate for every pair.

    states and u take the same forms as in filter_step.  Returns (holds,
    worst_margin): the minimum slack of A u - b and whether it clears
    -CERTIFICATE_TOL.  A single robot trivially holds with infinite margin.
    """
    constraints = assemble_constraints(
        states, cfg.geometry, cfg.barrier, cfg.disturbance, cfg.u_max
    )
    if constraints.rows == 0:
        return True, math.inf
    slack = constraints.A @ as_commands(u).reshape(-1) - constraints.b
    worst = float(slack.min())
    return worst >= -CERTIFICATE_TOL, worst

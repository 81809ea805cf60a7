"""Robust collision-avoidance for disturbed differential-drive swarms.

The package renders arbitrary nominal wheel commands safe by solving a
minimally invasive quadratic program per control step, with the disturbance
modeled as the convex hull of finitely many wheel-speed offsets.
"""

from .barrier import BarrierParams, ConstraintSet, assemble_constraints, class_k_cubic
from .disturbance import (
    DisturbanceHull,
    HullUnion,
    pooled_vertices,
    sample_hull,
    support_min,
    support_min_rows,
    symmetric_box,
    zero_union,
)
from .dynamics import (
    RobotGeometry,
    RobotState,
    WheelCommand,
    output_point,
    step_dynamics,
)
from .qp import QpProblem, QpSolution, kkt_check, solve
from .safety_filter import (
    FilterConfig,
    FilterInfeasibleError,
    FilterResult,
    ensemble_weight,
    filter_step,
)
from .sim import (
    RunMetrics,
    ScenarioConfig,
    aggregate_metrics,
    circle_init,
    nominal_controller,
    repeat_experiment,
    run_scenario,
)

__all__ = [
    "BarrierParams",
    "ConstraintSet",
    "DisturbanceHull",
    "FilterConfig",
    "FilterInfeasibleError",
    "FilterResult",
    "HullUnion",
    "QpProblem",
    "QpSolution",
    "RobotGeometry",
    "RobotState",
    "RunMetrics",
    "ScenarioConfig",
    "WheelCommand",
    "aggregate_metrics",
    "assemble_constraints",
    "circle_init",
    "class_k_cubic",
    "ensemble_weight",
    "filter_step",
    "kkt_check",
    "nominal_controller",
    "output_point",
    "pooled_vertices",
    "repeat_experiment",
    "run_scenario",
    "sample_hull",
    "solve",
    "step_dynamics",
    "support_min",
    "support_min_rows",
    "symmetric_box",
    "zero_union",
]

__version__ = "0.1.0"

"""Robust collision-avoidance for disturbed differential-drive swarms.

The package renders arbitrary nominal wheel commands safe by solving a
minimally invasive quadratic program per control step, with the disturbance
modeled as the convex hull of finitely many wheel-speed offsets.
"""

from .barrier import (
    BarrierParams,
    ConstraintSet,
    assemble_constraints,
    class_k_cubic,
    min_pairwise_h,
    pairwise_h_grad,
)
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
    body_output_matrix,
    output_point,
    step_dynamics,
    wheel_matrix,
)
from .qp import QpProblem, QpSolution, kkt_check, objective_value, solve
from .safety_filter import (
    FilterConfig,
    FilterInfeasibleError,
    FilterResult,
    certificate_holds,
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
    "body_output_matrix",
    "certificate_holds",
    "circle_init",
    "class_k_cubic",
    "ensemble_weight",
    "filter_step",
    "kkt_check",
    "min_pairwise_h",
    "nominal_controller",
    "objective_value",
    "output_point",
    "pairwise_h_grad",
    "pooled_vertices",
    "repeat_experiment",
    "run_scenario",
    "sample_hull",
    "solve",
    "step_dynamics",
    "support_min",
    "support_min_rows",
    "symmetric_box",
    "wheel_matrix",
    "zero_union",
]

__version__ = "0.1.0"

"""Pairwise collision-avoidance barriers and their stacked ensemble constraints."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .disturbance import HullUnion, support_min_rows
from .dynamics import RobotGeometry, RobotState, as_poses, output_jacobians, output_points


@dataclass(frozen=True)
class BarrierParams:
    """Safety diameter (m) and class-K gain of the cubic certificate term."""

    delta: float
    gamma: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.delta) and self.delta > 0.0):
            raise ValueError(f"delta must be finite and > 0, got {self.delta!r}")
        if not (math.isfinite(self.gamma) and self.gamma > 0.0):
            raise ValueError(f"gamma must be finite and > 0, got {self.gamma!r}")
        object.__setattr__(self, "delta", float(self.delta))
        object.__setattr__(self, "gamma", float(self.gamma))


@dataclass(frozen=True, eq=False)
class ConstraintSet:
    """Stacked inequality A u >= b, one row per robot pair, plus box bound.

    Pairs enumerate (i, j) with i < j, i ascending then j ascending.  A hull
    union still yields one row per pair: its margin is the least over all
    hulls.  The pairs / h_pairs arrays carry per-row bookkeeping used by the
    simulator and by diagnostics.
    """

    A: np.ndarray
    b: np.ndarray
    u_max: float
    pairs: np.ndarray
    h_pairs: np.ndarray

    @property
    def rows(self) -> int:
        return self.A.shape[0]


def pair_h_values(p_i: np.ndarray, p_j: np.ndarray, params: BarrierParams) -> np.ndarray:
    """Barrier values h of the pairs of output points stacked as (m, 2) rows."""
    diffs = p_i - p_j
    return diffs[:, 0] * diffs[:, 0] + diffs[:, 1] * diffs[:, 1] - params.delta**2


def min_pairwise_h(
    states: Sequence[RobotState] | np.ndarray, geom: RobotGeometry, params: BarrierParams
) -> float:
    """Smallest barrier value over all robot pairs of a RobotState sequence or
    an (n, 3) pose array; inf for a single robot."""
    poses = as_poses(states)
    n = poses.shape[0]
    if n < 2:
        return math.inf
    iu, ju = np.triu_indices(n, k=1)
    outputs = output_points(poses, geom)
    return float(pair_h_values(outputs[iu], outputs[ju], params).min())


def pairwise_h_grad(p_i, p_j):
    """Exact gradients of h = |p_i - p_j|^2 - delta^2 in each output point.

    Carries the factor 2 of the derivative of the squared norm; the
    finite-difference tests pin this.
    """
    diff = np.asarray(p_i, dtype=float) - np.asarray(p_j, dtype=float)
    grad_i = 2.0 * diff
    return grad_i, -grad_i


def class_k_cubic(h, gamma: float):
    """Odd, strictly increasing certificate relaxation gamma * h^3."""
    return gamma * h**3


def assemble_constraints(
    states: Sequence[RobotState] | np.ndarray,
    geom: RobotGeometry,
    params: BarrierParams,
    hulls: HullUnion,
    u_max: float,
    pairs=None,
) -> ConstraintSet:
    """Build the ensemble constraint A u >= b for all pairs.

    states is a sequence of RobotState or an (n, 3) pose array.  One row per
    ordered pair (i, j), i < j, whatever the number of hulls; each row
    touches only the 2-column blocks of robots i and j.
    b = -gamma h^3 - robust margin, where the margin of a hull union is the
    elementwise least of the per-hull support minima.  That equals the
    support minimum over the pooled vertices bit for bit, so the row is the
    tightest of the per-hull rows.  pairs takes the (pairs, 2) array of all
    (i, j) in that order when the caller already holds it; the returned set
    shares it.
    """
    poses = as_poses(states)
    n = poses.shape[0]
    if n < 1:
        raise ValueError("need at least one robot")

    if pairs is None:
        pairs = np.stack(np.triu_indices(n, k=1), axis=1)
    iu, ju = pairs.T
    n_pairs = iu.size
    if n_pairs == 0:
        return ConstraintSet(
            A=np.zeros((0, 2 * n)),
            b=np.zeros(0),
            u_max=float(u_max),
            pairs=pairs,
            h_pairs=np.zeros(0),
        )

    outputs = output_points(poses, geom)
    jacobians = output_jacobians(poses, geom)
    p_i, p_j = outputs[iu], outputs[ju]
    grads_i, grads_j = pairwise_h_grad(p_i, p_j)
    h_vals = pair_h_values(p_i, p_j, params)
    jac_i = jacobians[iu]
    jac_j = jacobians[ju]
    z_i = grads_i[:, 0:1] * jac_i[:, 0, :] + grads_i[:, 1:2] * jac_i[:, 1, :]
    z_j = grads_j[:, 0:1] * jac_j[:, 0, :] + grads_j[:, 1:2] * jac_j[:, 1, :]
    z_rows = z_i + z_j

    # Robot r's two columns are entry r of a (pairs, n, 2) view of the rows.
    block = np.zeros((n_pairs, n, 2))
    rows = np.arange(n_pairs)
    block[rows, iu] = z_i
    block[rows, ju] = z_j

    margin = support_min_rows(z_rows, hulls.hulls[0])
    for hull in hulls.hulls[1:]:
        margin = np.minimum(margin, support_min_rows(z_rows, hull))

    return ConstraintSet(
        A=block.reshape(n_pairs, 2 * n),
        b=-class_k_cubic(h_vals, params.gamma) - margin,
        u_max=float(u_max),
        pairs=pairs,
        h_pairs=h_vals,
    )

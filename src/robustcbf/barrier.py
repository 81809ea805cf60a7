"""Pairwise collision-avoidance barriers and their stacked ensemble constraints."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .disturbance import DisturbanceHull, HullUnion, support_min, support_min_rows
from .dynamics import RobotGeometry, RobotState, body_output_matrix


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


def pairwise_h(p_i, p_j, params: BarrierParams) -> float:
    """Collision barrier: squared output distance minus squared diameter."""
    diff = np.asarray(p_i, dtype=float) - np.asarray(p_j, dtype=float)
    return float(diff @ diff - params.delta**2)


def min_pairwise_h(
    states: Sequence[RobotState], geom: RobotGeometry, params: BarrierParams
) -> float:
    """Smallest barrier value over all robot pairs; inf for a single robot."""
    n = len(states)
    if n < 2:
        return math.inf
    outputs = np.empty((n, 2))
    for k, state in enumerate(states):
        cos_t = math.cos(state.theta)
        sin_t = math.sin(state.theta)
        outputs[k, 0] = state.x1 + geom.look_ahead * cos_t
        outputs[k, 1] = state.x2 + geom.look_ahead * sin_t
    iu, ju = np.triu_indices(n, k=1)
    diffs = outputs[iu] - outputs[ju]
    return float(
        (diffs[:, 0] * diffs[:, 0] + diffs[:, 1] * diffs[:, 1]).min() - params.delta**2
    )


def pairwise_h_grad(p_i, p_j):
    """Exact gradients of pairwise_h with respect to each output point.

    Carries the factor 2 of the derivative of the squared norm; the
    finite-difference tests pin this.
    """
    diff = np.asarray(p_i, dtype=float) - np.asarray(p_j, dtype=float)
    grad_i = 2.0 * diff
    return grad_i, -grad_i


def class_k_cubic(h, gamma: float):
    """Odd, strictly increasing certificate relaxation gamma * h^3."""
    return gamma * h**3


def robust_margin(grad_i, grad_j, g_i, g_j, hull: DisturbanceHull) -> float:
    """Worst-case certificate decrease over the hull for one robot pair.

    Combines both robots' input directions into z = grad_i @ g_i +
    grad_j @ g_j and returns the support minimum of z over the hull.
    """
    z = np.asarray(grad_i, dtype=float) @ np.asarray(g_i, dtype=float) + np.asarray(
        grad_j, dtype=float
    ) @ np.asarray(g_j, dtype=float)
    return support_min(z, hull)


def assemble_constraints(
    states: Sequence[RobotState],
    geom: RobotGeometry,
    params: BarrierParams,
    hulls: HullUnion,
    u_max: float,
    class_k: Callable | None = None,
    prune_distance: float | None = None,
    pair_index=None,
) -> ConstraintSet:
    """Build the ensemble constraint A u >= b for all pairs.

    One row per ordered pair (i, j), i < j, whatever the number of hulls;
    each row touches only the 2-column blocks of robots i and j.
    b = -class_k(h) - robust margin, where the margin of a hull union is the
    elementwise least of the per-hull support minima.  That equals the
    support minimum over the pooled vertices bit for bit, so the row is the
    tightest of the per-hull rows.  A custom class_k must broadcast over
    numpy arrays; the default is the cubic with params.gamma.
    prune_distance optionally drops pairs whose output points are farther
    apart than the cutoff; every pair is kept by default, matching the
    deployed configuration.  pair_index takes the (i, j) index arrays of all
    pairs, np.triu_indices(n, 1), when the caller already holds them.
    """
    n = len(states)
    if n < 1:
        raise ValueError("need at least one robot")
    positions = np.empty((n, 3))
    for k, state in enumerate(states):
        positions[k, 0] = state.x1
        positions[k, 1] = state.x2
        positions[k, 2] = state.theta
    if not np.all(np.isfinite(positions)):
        raise ValueError("robot states must be finite")

    iu, ju = np.triu_indices(n, k=1) if pair_index is None else pair_index

    cos_t = np.cos(positions[:, 2])
    sin_t = np.sin(positions[:, 2])
    outputs = positions[:, :2] + geom.look_ahead * np.stack([cos_t, sin_t], axis=1)

    if prune_distance is not None and iu.size:
        gaps = outputs[iu] - outputs[ju]
        keep = gaps[:, 0] ** 2 + gaps[:, 1] ** 2 <= prune_distance**2
        iu = iu[keep]
        ju = ju[keep]

    n_pairs = iu.size
    if n_pairs == 0:
        empty = np.zeros((0, 2 * n))
        return ConstraintSet(
            A=empty,
            b=np.zeros(0),
            u_max=float(u_max),
            pairs=np.zeros((0, 2), dtype=int),
            h_pairs=np.zeros(0),
        )

    # Per-robot output Jacobians R(theta) @ body_output_matrix, stacked (n, 2, 2).
    rot = np.empty((n, 2, 2))
    rot[:, 0, 0] = cos_t
    rot[:, 0, 1] = -sin_t
    rot[:, 1, 0] = sin_t
    rot[:, 1, 1] = cos_t
    jacobians = rot @ body_output_matrix(geom)

    diffs = outputs[iu] - outputs[ju]
    h_vals = diffs[:, 0] * diffs[:, 0] + diffs[:, 1] * diffs[:, 1] - params.delta**2
    grads_i = 2.0 * diffs
    jac_i = jacobians[iu]
    jac_j = jacobians[ju]
    z_i = grads_i[:, 0:1] * jac_i[:, 0, :] + grads_i[:, 1:2] * jac_i[:, 1, :]
    z_j = -grads_i[:, 0:1] * jac_j[:, 0, :] - grads_i[:, 1:2] * jac_j[:, 1, :]
    z_rows = z_i + z_j

    block = np.zeros((n_pairs, 2 * n))
    rows = np.arange(n_pairs)
    block[rows, 2 * iu] = z_i[:, 0]
    block[rows, 2 * iu + 1] = z_i[:, 1]
    block[rows, 2 * ju] = z_j[:, 0]
    block[rows, 2 * ju + 1] = z_j[:, 1]

    if class_k is None:
        relaxation = class_k_cubic(h_vals, params.gamma)
    else:
        relaxation = np.asarray(class_k(h_vals), dtype=float)

    margin = support_min_rows(z_rows, hulls.hulls[0])
    for hull in hulls.hulls[1:]:
        margin = np.minimum(margin, support_min_rows(z_rows, hull))

    return ConstraintSet(
        A=block,
        b=-relaxation - margin,
        u_max=float(u_max),
        pairs=np.stack([iu, ju], axis=1),
        h_pairs=h_vals,
    )

"""Pairwise collision-avoidance barriers and their stacked ensemble constraints."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .disturbance import HullUnion, support_min_rows
from .dynamics import PoseFrame, RobotGeometry, RobotState, pose_frame
from .qp import stacked_rows


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
    """Stacked inequality A u >= b, one row per robot pair, and the box rows.

    Pairs enumerate (i, j) with i < j, i ascending then j ascending.  A hull
    union still yields one row per pair: its margin is the least over all
    hulls.  C u >= d are the QP's stacked rows, A u >= b above the box rows
    of qp.stacked_rows; A and b are views of them, all four read-only.  The
    pairs / h_pairs arrays carry per-row bookkeeping used by the simulator
    and by diagnostics; z_rows (pairs, 2) holds each row's margin direction,
    the same sum as A[r, 2i:2i+2] + A[r, 2j:2j+2].
    """

    A: np.ndarray
    b: np.ndarray
    pairs: np.ndarray
    h_pairs: np.ndarray
    z_rows: np.ndarray
    C: np.ndarray
    d: np.ndarray

    @property
    def rows(self) -> int:
        return self.A.shape[0]


def pair_h_values(p_i: np.ndarray, p_j: np.ndarray, params: BarrierParams) -> np.ndarray:
    """Barrier values h of the pairs of output points stacked as (m, 2) rows."""
    diffs = p_i - p_j
    return diffs[:, 0] * diffs[:, 0] + diffs[:, 1] * diffs[:, 1] - params.delta**2


def class_k_cubic(h, gamma: float):
    """Odd, strictly increasing certificate relaxation gamma * h^3."""
    return gamma * h**3


def pair_slots(pairs: np.ndarray, n: int) -> np.ndarray:
    """Read-only flat indices of robot i's then robot j's (x, y) block of
    each row (i, j) of `pairs`, for n robots: row 0 into the (2, n, n)
    blocks of assemble_constraints, row 1 into the flat (pairs, 2n) rows."""
    iu, ju = pairs.T
    rows = 2 * n * np.arange(iu.size)
    take = np.concatenate([iu * n + ju, ju * n + iu])[:, None] + [0, n * n]
    put = np.concatenate([rows + 2 * iu, rows + 2 * ju])[:, None] + [0, 1]
    slots = np.stack([take.ravel(), put.ravel()])
    slots.setflags(write=False)
    return slots


def assemble_constraints(
    states: Sequence[RobotState] | np.ndarray | PoseFrame,
    geom: RobotGeometry,
    params: BarrierParams,
    hulls: HullUnion,
    u_max: float,
    pairs=None,
    slots=None,
) -> ConstraintSet:
    """Build the ensemble constraint A u >= b for all pairs.

    states is a sequence of RobotState, an (n, 3) pose array or a PoseFrame.
    One row per pair (i, j), i < j, whatever the number of hulls; each row
    touches only the 2-column blocks of robots i and j.
    b = -gamma h^3 - robust margin, where the margin of a hull union is the
    elementwise least of the per-hull support minima.  That equals the
    support minimum over the pooled vertices bit for bit, so the row is the
    tightest of the per-hull rows.  Each call fills a fresh qp.stacked_rows
    pair C, d, which the filter's QpProblem adopts.  pairs takes the
    (pairs, 2) array of all (i, j) in that order when the caller already
    holds it, and slots its pair_slots; the returned set shares pairs.
    """
    frame = pose_frame(states, geom)
    n = frame.poses.shape[0]
    if n < 1:
        raise ValueError("need at least one robot")

    if pairs is None:
        pairs = np.stack(np.triu_indices(n, k=1), axis=1)
    n_pairs, m = pairs.shape[0], 2 * n
    take, put = pair_slots(pairs, n) if slots is None else slots

    # One pass over every ordered pair: entry (c, i, j) is robot i's block
    # 2 (p_i - p_j) @ J_i of row (i, j).  For i > j it is robot i's block of
    # row (j, i) as well, since 2 (p_i - p_j) = -2 (p_j - p_i) exactly.
    x, y = frame.outputs.T
    dx, dy = x[:, None] - x, y[:, None] - y
    jac = frame.jacobians.transpose(1, 2, 0)[..., None]
    blocks = (2.0 * dx * jac[0] + 2.0 * dy * jac[1]).reshape(-1)[take]
    h_vals = (dx * dx + dy * dy - params.delta**2).reshape(-1)[take[: 2 * n_pairs : 2]]
    z_rows = (blocks[: 2 * n_pairs] + blocks[2 * n_pairs :]).reshape(n_pairs, 2)

    margin = support_min_rows(z_rows, hulls.hulls[0])
    for hull in hulls.hulls[1:]:
        margin = np.minimum(margin, support_min_rows(z_rows, hull))

    # C is allocated after the margin pass has freed its temporaries, so it
    # reuses their memory.
    C, d = stacked_rows(n_pairs, m, u_max)
    C.reshape(-1)[put] = blocks
    np.subtract(-class_k_cubic(h_vals, params.gamma), margin, out=d[:n_pairs])

    for arr in (C, d):
        arr.setflags(write=False)
    return ConstraintSet(
        A=C[:n_pairs],
        b=d[:n_pairs],
        pairs=pairs,
        h_pairs=h_vals,
        z_rows=z_rows,
        C=C,
        d=d,
    )

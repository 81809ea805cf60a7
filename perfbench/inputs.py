"""Seeded input generators for the benchmark workloads.

Nothing here imports robustcbf: the inputs of a given seed must stay the
same whatever the program under test does, so the geometry below is copied
from scenarios/circle22.yaml rather than read through the program.
"""

from __future__ import annotations

import math

import numpy as np

ROBOTS = 22
WHEEL_RADIUS = 0.016
BASE_LENGTH = 0.105
LOOK_AHEAD = 0.03
DELTA = 0.12
CIRCLE_RADIUS = 0.6
U_MAX = 25.0
GAIN = 1.0
PSI = 5.0

# Congested crossing phase: robots have left the start circle and crowd a
# ring around the centre, still heading roughly toward their antipodal goal.
RING_INNER = 0.24
RING_OUTER = 0.58
ANGLE_JITTER = 0.3
HEADING_JITTER = 0.6
# Output points are kept at least this factor of the safety diameter apart,
# so every pair starts strictly inside the safe set (h > 0).
SPACING = 1.03
CANDIDATES = 64

HULLS = 3
HULL_VERTICES = 256
HULL_OFFSET = 1.0
HULL_RADIUS = 3.0


def _output_points(poses: np.ndarray) -> np.ndarray:
    theta = poses[:, 2]
    return poses[:, :2] + LOOK_AHEAD * np.stack([np.cos(theta), np.sin(theta)], axis=1)


def pair_h(poses: np.ndarray) -> np.ndarray:
    """Barrier value |p_i - p_j|^2 - delta^2 of every pair i < j."""
    out = _output_points(poses)
    iu, ju = np.triu_indices(poses.shape[0], k=1)
    diff = out[iu] - out[ju]
    return (diff * diff).sum(axis=1) - DELTA**2


def circle_goals(n: int = ROBOTS) -> np.ndarray:
    """Antipodes of the output points of robots on the start circle facing
    its centre (the circle-swap goals)."""
    angles = 2.0 * math.pi * np.arange(n) / n
    reach = CIRCLE_RADIUS - LOOK_AHEAD
    return -reach * np.stack([np.cos(angles), np.sin(angles)], axis=1)


def nominal_commands(poses: np.ndarray, goals: np.ndarray) -> np.ndarray:
    """Proportional drive of each output point toward its goal, mapped to
    wheel speeds and saturated uniformly at U_MAX."""
    theta = poses[:, 2]
    cos_t, sin_t = np.cos(theta), np.sin(theta)
    desired = GAIN * (goals - _output_points(poses))
    # Output velocity = R(theta) @ [[r/2, r/2], [-l r/L, l r/L]] @ (w_r, w_l).
    a = WHEEL_RADIUS / 2.0
    c = LOOK_AHEAD * WHEEL_RADIUS / BASE_LENGTH
    g00 = cos_t * a + sin_t * c
    g01 = cos_t * a - sin_t * c
    g10 = sin_t * a - cos_t * c
    g11 = sin_t * a + cos_t * c
    det = g00 * g11 - g01 * g10
    wheels = np.stack(
        [
            (g11 * desired[:, 0] - g01 * desired[:, 1]) / det,
            (-g10 * desired[:, 0] + g00 * desired[:, 1]) / det,
        ],
        axis=1,
    )
    peak = np.abs(wheels).max(axis=1, keepdims=True)
    return np.where(peak > U_MAX, wheels * (U_MAX / np.maximum(peak, 1e-300)), wheels)


def _place(rng: np.random.Generator, goals: np.ndarray):
    """Random sequential placement in the ring; None when a robot finds no
    free spot, so the caller starts the snapshot over."""
    n = goals.shape[0]
    slots = 2.0 * math.pi * np.arange(n) / n
    poses = np.empty((n, 3))
    placed = np.empty((0, 2))
    min_gap = (SPACING * DELTA) ** 2
    for robot in rng.permutation(n):
        # One batch of candidate poses per robot; the first free one is kept.
        radius = rng.uniform(RING_INNER, RING_OUTER, size=CANDIDATES)
        angle = slots[robot] + rng.normal(0.0, ANGLE_JITTER, size=CANDIDATES)
        x, y = radius * np.cos(angle), radius * np.sin(angle)
        heading = np.arctan2(goals[robot, 1] - y, goals[robot, 0] - x)
        heading = heading + rng.normal(0.0, HEADING_JITTER, size=CANDIDATES)
        heading = np.arctan2(np.sin(heading), np.cos(heading))
        out = np.stack([x + LOOK_AHEAD * np.cos(heading), y + LOOK_AHEAD * np.sin(heading)], axis=1)
        gaps = ((out[:, None, :] - placed[None, :, :]) ** 2).sum(axis=2)
        free = np.flatnonzero(np.all(gaps > min_gap, axis=1))
        if free.size == 0:
            return None
        k = free[0]
        poses[robot] = (x[k], y[k], heading[k])
        placed = np.vstack([placed, out[k]])
    return poses


def replay_snapshot(seed: int, index: int):
    """Snapshot `index` of the replay22-cold stream for `seed`.

    Returns (poses (22, 3), commands (22, 2)); the same (seed, index) always
    gives the same arrays.  Raises if a pair does not have h > 0.
    """
    rng = np.random.default_rng([seed, index])
    goals = circle_goals()
    while True:
        poses = _place(rng, goals)
        if poses is not None:
            break
    h = pair_h(poses)
    if not h.min() > 0.0:
        raise AssertionError(f"snapshot {index} of seed {seed} has a pair with h <= 0")
    return poses, nominal_commands(poses, goals)


def union_hulls(seed: int):
    """Three seeded hulls of 256 wheel-offset vertices each, inside +-PSI.

    The hulls are rings around three fixed centres 120 degrees apart; the
    seed only jitters each vertex's angle and radius, so every seed gives
    hulls of about the same shape and the same filter workload.
    """
    rng = np.random.default_rng([seed, 0x48554C4C])
    hulls = []
    for k in range(HULLS):
        angle = 2.0 * math.pi * k / HULLS
        centre = HULL_OFFSET * np.array([math.cos(angle), math.sin(angle)])
        phase = np.sort(rng.uniform(0.0, 2.0 * math.pi, size=HULL_VERTICES))
        scale = HULL_RADIUS * rng.uniform(0.9, 1.0, size=HULL_VERTICES)
        verts = centre + scale[:, None] * np.stack([np.cos(phase), np.sin(phase)], axis=1)
        if not np.all(np.abs(verts) <= PSI):
            raise AssertionError(f"hull vertex of seed {seed} leaves the +-{PSI} rad/s box")
        hulls.append(verts)
    return hulls

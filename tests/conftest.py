import math
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from robustcbf import (  # noqa: E402
    BarrierParams, DisturbanceHull, RobotGeometry, symmetric_box
)
from robustcbf.dynamics import pose_frame  # noqa: E402

# GRITSbot-class testbed constants used across the suite.
WHEEL_RADIUS = 0.016
BASE_LENGTH = 0.105
LOOK_AHEAD = 0.03
DIAMETER = 0.12
GAMMA = 150.0
U_MAX = 25.0
PSI = 5.0


def ring_hulls(seed: int, count: int = 3, vertices: int = 256) -> tuple:
    """Seeded rings of wheel-offset points, radius 3 jittered down by up to
    10 %, around centres 1 rad/s from the origin and evenly spaced in angle:
    only a few dozen points of each ring lie on its convex hull's boundary."""
    rng = np.random.default_rng(seed)
    hulls = []
    for k in range(count):
        angle = 2.0 * math.pi * k / count
        centre = np.array([math.cos(angle), math.sin(angle)])
        phase = rng.uniform(0.0, 2.0 * math.pi, size=vertices)
        radius = 3.0 * rng.uniform(0.9, 1.0, size=vertices)
        ring = centre + radius[:, None] * np.stack([np.cos(phase), np.sin(phase)], axis=1)
        hulls.append(DisturbanceHull(ring))
    return tuple(hulls)


def congested_poses(rng, geom, n=22, radius=0.6, spacing=1.03 * DIAMETER):
    """n robots placed one by one in a disc, with output points at least
    spacing apart, so every pair starts just inside the safe set."""
    poses = np.empty((0, 3))
    while poses.shape[0] < n:
        r, phi = radius * math.sqrt(rng.uniform()), rng.uniform(-math.pi, math.pi)
        pose = np.array([[r * math.cos(phi), r * math.sin(phi), rng.uniform(-math.pi, math.pi)]])
        gaps = pose_frame(poses, geom).outputs - pose_frame(pose, geom).outputs
        if np.all(np.hypot(gaps[:, 0], gaps[:, 1]) >= spacing):
            poses = np.vstack([poses, pose])
    return poses


REPO_ROOT = Path(__file__).resolve().parent.parent
SCENARIO_DIR = REPO_ROOT / "scenarios"


@pytest.fixture
def geom() -> RobotGeometry:
    return RobotGeometry(
        wheel_radius=WHEEL_RADIUS,
        base_length=BASE_LENGTH,
        look_ahead=LOOK_AHEAD,
    )


@pytest.fixture
def params() -> BarrierParams:
    return BarrierParams(delta=DIAMETER, gamma=GAMMA)


@pytest.fixture
def box5():
    return symmetric_box(PSI)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20240817)

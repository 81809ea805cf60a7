import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from robustcbf import BarrierParams, RobotGeometry, symmetric_box  # noqa: E402

# GRITSbot-class testbed constants used across the suite.
WHEEL_RADIUS = 0.016
BASE_LENGTH = 0.105
LOOK_AHEAD = 0.03
DIAMETER = 0.12
GAMMA = 150.0
U_MAX = 25.0
PSI = 5.0

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

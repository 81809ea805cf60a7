"""Closed-loop trajectories pinned bit for bit.

Two short circle swaps are hashed: circle22 against its worst-case plant,
and 22 robots under a seeded 3-ring hull union with a uniform-convex plant.
A change that moves any bit of the poses, min_h or max_alter series fails
here.  A change that moves them on purpose updates the digests and records
the old and new values in CHANGES.md.
"""

import hashlib
from dataclasses import replace

import numpy as np
import pytest

from robustcbf import HullUnion, ScenarioConfig, run_scenario
from robustcbf.cli import load_config

from .conftest import SCENARIO_DIR, ring_hulls

STEPS = 200


def sha256(values: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(values, dtype="<f8").tobytes()).hexdigest()


def circle22_worst_case() -> ScenarioConfig:
    cfg = load_config(SCENARIO_DIR / "circle22.yaml")
    assert cfg.plant_disturbance == "worst-case"
    return replace(cfg, sim_duration=STEPS * cfg.dt, iterations=1, record_states=True)


def union22_uniform() -> ScenarioConfig:
    return ScenarioConfig(
        robot_count=22,
        sim_duration=STEPS * 0.005,
        disturbance=HullUnion(ring_hulls(11)),
        plant_disturbance="uniform-convex",
        rng_seed=3,
        record_states=True,
    )


PINNED = {
    "circle22-worst-case": (
        circle22_worst_case,
        {
            "states": "d7a3e8d957f5d1572e84ded0adce2abe1a74cdd815ad3028639ae4cb9aca7120",
            "min_h": "0161a0cca5110d535a282ba1fcb0ef638456f2f91c189ecfb2e2051c54b40405",
            "max_alter": "5942b2139bc1ef6c034c36f3e147f3f2276d04750265b59b004c2904b7cf0039",
        },
    ),
    "union22-3-rings": (
        union22_uniform,
        {
            "states": "04f220beb0c27698506e7b58bd64074e2bd9c11b82e4a7ffa1a644403fcd81e6",
            "min_h": "c7fe7dff65e49552e6d64b4630d147f442d9204b39668002bf76c4971adf2cf6",
            "max_alter": "7e86e2f85c4c032e79d41b6128b19cf18b7cd8f427bce5556cfdac507676c50a",
        },
    ),
}


@pytest.mark.parametrize("name", sorted(PINNED))
def test_trajectory_bits_are_pinned(name):
    build, expected = PINNED[name]
    run = run_scenario(build())
    assert run.states.shape == (STEPS, 22, 3)
    assert (run.max_alter > 0.0).all()  # the filter alters every step
    got = {"states": sha256(run.states), "min_h": sha256(run.min_h),
           "max_alter": sha256(run.max_alter)}
    assert got == expected

"""Closed-loop trajectories and cold filter solves pinned bit for bit.

Three short circle swaps are hashed: circle22 against its worst-case
plant, the same under a psi = 14 box, and 22 robots under a seeded 3-ring
hull union with a uniform-convex plant.  A change that moves any bit of the
poses, min_h or max_alter series fails here.  The psi = 14 run takes the
slack fallback at 15 of its 400 steps (259-270, 272, 274 and 282), and each
next step is warm-started from the fallback's answer.  Seeded congested
snapshots are filtered cold, one at a time: under a psi = 5 box every QP is
feasible, under a psi = 10 box every one takes the slack fallback.  Their u_star,
multipliers and active sets are hashed, and every u_star is checked
against the box.  A change that moves any of these bits on purpose
updates the digests and records the old and new values in CHANGES.md.
"""

import hashlib
from dataclasses import replace

import numpy as np
import pytest

from robustcbf import (
    BarrierParams, FilterConfig, HullUnion, RobotGeometry, ScenarioConfig, filter_step,
    run_scenario, safety_filter, sim, symmetric_box
)
from robustcbf.cli import load_config
from robustcbf.qp import FEASIBILITY_TOL

from .conftest import (
    BASE_LENGTH, DIAMETER, GAMMA, LOOK_AHEAD, SCENARIO_DIR, U_MAX, WHEEL_RADIUS,
    congested_poses, ring_hulls
)

STEPS = 200


def sha256(values: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(values, dtype="<f8").tobytes()).hexdigest()


def circle22_worst_case(steps=STEPS) -> ScenarioConfig:
    cfg = load_config(SCENARIO_DIR / "circle22.yaml")
    assert cfg.plant_disturbance == "worst-case"
    return replace(cfg, sim_duration=steps * cfg.dt, iterations=1, record_states=True)


def circle22_psi14() -> ScenarioConfig:
    return replace(circle22_worst_case(400), disturbance=HullUnion((symmetric_box(14.0),)))


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
            "states": "1da83739c471224785ce6028c14a948ca3ba7897e7d66f17dff77174792ca1a4",
            "min_h": "c1a6e8c4d80bb9178e6db8cd3a077c4a80b0d0215274cc1d4b94ddfe9b95f61b",
            "max_alter": "44f7696bcb070533a5db0ecfd5ed138e579d233913b99e1c9d1a77661f322239",
        },
    ),
    "circle22-psi14-fallbacks": (
        circle22_psi14,
        {
            "states": "1f2f89818366a2eb42cbeeff057bb395bd032d2b4e66d87c15c4e3af6bef6ef3",
            "min_h": "4bae5d166a9d30a59fcef8e5bf84f1567a8eeeed454d58b789fe8bb99da8b3b0",
            "max_alter": "687c5ebb1c565c191f94435acac41178931029c9e67e2cc3208b03c7c0787784",
        },
    ),
    "union22-3-rings": (
        union22_uniform,
        {
            "states": "29a6965935ee13b78136540c0f621480c5367bebb6d1b569474fd808bfdd9c22",
            "min_h": "f5cfadc611ff796d015739d792a021cb29a9f2518cbbd31b986384fef4ebedf1",
            "max_alter": "124a3b3a299daa4154de4f4f54abd70f87ba46388ecc648e20d0aa346038b56e",
        },
    ),
}


@pytest.mark.parametrize("name", sorted(PINNED))
def test_trajectory_bits_are_pinned(name, monkeypatch):
    build, expected = PINNED[name]
    cfg = build()
    fallbacks = []

    def recording(*args, **kwargs):
        result = safety_filter.filter_step(*args, **kwargs)
        fallbacks.append(result.fallback_applied)
        return result

    monkeypatch.setattr(sim, "filter_step", recording)
    run = run_scenario(cfg)
    assert run.states.shape == (cfg.steps(), 22, 3)
    assert (run.max_alter > 0.0).all()  # the filter alters every step
    slack = [k for k, fallback in enumerate(fallbacks) if fallback == "slack"]
    if name == "circle22-psi14-fallbacks":
        assert slack == [*range(259, 271), 272, 274, 282]
    else:
        assert slack == [] and set(fallbacks) == {None}
    got = {"states": sha256(run.states), "min_h": sha256(run.min_h),
           "max_alter": sha256(run.max_alter)}
    assert got == expected


# psi: (snapshots, the fallback every one takes, digests).
COLD = {
    5.0: (20, None, {
        "u_star": "7164450a5bcd4c430fbd70053204be6476d1a9f2f2152b63af8d920952970f76",
        "multipliers": "ae3d955275c5ea28f44fe16366fbd59230c3794f67706ef012b87db9170d1205",
        "active_set": "f660b7dc8daa24444197bb8145da8d83e968231437f4d5f68bc42a1b9481e7a3",
    }),
    10.0: (10, "slack", {
        "u_star": "f8523a01a840023790afa19e40c6552e4dbcdbc6cd6d69877925bd3dd80ef981",
        "multipliers": "853f5878721c8988422c430ebdcc08450f458e1ce70faef61ccaf5416ff486b2",
        "active_set": "5b6fb58e61fa475939767d68a446f97f1bff02c0e5935a3ea8bb51e6515783d8",
    }),
}


@pytest.mark.parametrize("psi", sorted(COLD))
def test_cold_filter_solves_are_pinned(psi):
    count, fallback, expected = COLD[psi]
    geom = RobotGeometry(wheel_radius=WHEEL_RADIUS, base_length=BASE_LENGTH, look_ahead=LOOK_AHEAD)
    cfg = FilterConfig(geom, BarrierParams(delta=DIAMETER, gamma=GAMMA),
                       HullUnion((symmetric_box(psi),)), u_max=U_MAX)
    rng = np.random.default_rng(int(psi))
    solutions = []
    for _ in range(count):
        poses = congested_poses(rng, geom)
        result = filter_step(poses, rng.uniform(-U_MAX, U_MAX, size=(22, 2)), cfg)
        assert result.fallback_applied == fallback
        # The box is never relaxed, but holds, like every row, only within
        # FEASIBILITY_TOL: slack answers here exceed it by up to 3.6e-10.
        assert np.abs(result.solver.u_star).max() <= U_MAX + FEASIBILITY_TOL
        solutions.append(result.solver)
    # Each active set is hashed after its length, as np.intp widened to 8 bytes.
    rows = [np.asarray([len(s.active_set), *s.active_set], dtype=np.intp) for s in solutions]
    got = {
        "u_star": sha256(np.concatenate([s.u_star for s in solutions])),
        "multipliers": sha256(np.concatenate([s.multipliers for s in solutions])),
        "active_set": hashlib.sha256(np.concatenate(rows).astype("<i8").tobytes()).hexdigest(),
    }
    assert got == expected

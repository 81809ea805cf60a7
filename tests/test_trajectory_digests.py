"""Closed-loop trajectories and cold filter solves pinned bit for bit.

Three short circle swaps are hashed: circle22 against its worst-case
plant, the same under a psi = 12 box, and 22 robots under a seeded 3-ring
hull union with a uniform-convex plant.  A change that moves any bit of the
poses, min_h or max_alter series fails here.  The psi = 12 run takes the
slack fallback at 44 of its 400 steps (274-291 and 332-357), and each next
step is warm-started from the fallback's answer.  Seeded congested
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


def circle22_psi12() -> ScenarioConfig:
    return replace(circle22_worst_case(400), disturbance=HullUnion((symmetric_box(12.0),)))


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
    "circle22-psi12-fallbacks": (
        circle22_psi12,
        {
            "states": "c80329e5aade89cde52f262a648078ada662c624d676445b893546f6d6fe0723",
            "min_h": "f65c8c69159ef011117530dac33b6b5cfc814e126c5e04f0f19acd9328dd3c9c",
            "max_alter": "5db2516d8ec894ad5353cbdc5c458ba2b3a15c6ecb94e542f6f28a0d53643885",
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
    if name == "circle22-psi12-fallbacks":
        assert slack == [*range(274, 292), *range(332, 358)]
    else:
        assert slack == [] and set(fallbacks) == {None}
    got = {"states": sha256(run.states), "min_h": sha256(run.min_h),
           "max_alter": sha256(run.max_alter)}
    assert got == expected


# psi: (snapshots, the fallback every one takes, digests).
COLD = {
    5.0: (20, None, {
        "u_star": "763816aa3fd5319b02af24e37a6a265fbfabd13abb2e74e8929e38a543df4a84",
        "multipliers": "13532671a460fb8d1a6fd6730474687598ee61390fe7539142f0544a34f503b1",
        "active_set": "d0dd5fc8d67a6002f723deae09708ace516ac69095ec8428759e5772bba64150",
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

import concurrent.futures
import math
import os
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

from robustcbf import (
    DisturbanceHull,
    HullUnion,
    RobotState,
    ScenarioConfig,
    WheelCommand,
    assemble_constraints,
    circle_init,
    nominal_controller,
    output_point,
    repeat_experiment,
    run_scenario,
    safety_filter,
    symmetric_box,
    zero_union,
)
from robustcbf import sim
from robustcbf.barrier import pair_h_values
from robustcbf.cli import load_config
from robustcbf.dynamics import as_commands, as_poses, pose_frame
from robustcbf.sim import derived_seeds, nominal_commands

from .conftest import SCENARIO_DIR, U_MAX, ring_hulls
from .oracles import reference_closed_loop


def benign_two_robot(duration=4.0, **kwargs):
    defaults = dict(
        robot_count=2,
        sim_duration=duration,
        disturbance=HullUnion((symmetric_box(0.0),)),
        plant_disturbance="off",
        rng_seed=3,
    )
    defaults.update(kwargs)
    return ScenarioConfig(**defaults)


def eight_robot_swap(**kwargs):
    """A short 8-robot circle swap under the default 5 rad/s box, close
    enough that the filter alters commands within its 0.4 s."""
    defaults = dict(
        robot_count=8, sim_duration=0.4, circle_radius=0.3, plant_vertex=2, rng_seed=5
    )
    defaults.update(kwargs)
    return ScenarioConfig(**defaults)


class TestScenarioConfig:
    def test_radius_must_fit_the_robots(self):
        with pytest.raises(ValueError):
            ScenarioConfig(robot_count=22, sim_duration=1.0, circle_radius=0.4)

    def test_radius_check_is_circle_inits_own(self):
        # 0.43 m clears the arc-length bound n delta / 2 pi = 0.420 m for 22
        # robots, but adjacent output points are then closer than delta.
        with pytest.raises(ValueError, match="robots 0 and 1 overlap at circle_radius"):
            ScenarioConfig(robot_count=22, sim_duration=0.05, circle_radius=0.43)
        run_scenario(ScenarioConfig(robot_count=22, sim_duration=0.05, circle_radius=0.46))
        for radius in (0.0, -0.6, math.nan, math.inf):
            with pytest.raises(ValueError, match="circle_radius must be finite and > 0"):
                ScenarioConfig(robot_count=1, sim_duration=0.05, circle_radius=radius)

    def test_rejects_bad_fields(self):
        with pytest.raises(ValueError):
            ScenarioConfig(robot_count=0, sim_duration=1.0)
        with pytest.raises(ValueError):
            ScenarioConfig(robot_count=2, sim_duration=0.0)
        with pytest.raises(ValueError):
            ScenarioConfig(robot_count=2, sim_duration=1.0, dt=-0.01)
        with pytest.raises(ValueError):
            ScenarioConfig(robot_count=2, sim_duration=1.0, plant_disturbance="storm")
        with pytest.raises(ValueError):
            ScenarioConfig(robot_count=2, sim_duration=1.0, iterations=0)
        with pytest.raises(ValueError):
            ScenarioConfig(robot_count=2, sim_duration=1.0, integrator="verlet")
        for name in ("controller_gain", "goal_tolerance"):
            with pytest.raises(ValueError, match=f"{name} must be > 0"):
                ScenarioConfig(robot_count=2, sim_duration=1.0, **{name: 0.0})

    def test_filter_config_is_built_once(self):
        cfg = ScenarioConfig(robot_count=4, sim_duration=0.05, circle_radius=0.3)
        assert cfg.filter_config() is cfg.filter_config()
        run_scenario(cfg)
        plan = cfg.filter_config().plan(4)
        run_scenario(cfg)
        assert cfg.filter_config().plan(4) is plan

    def test_replace_rebuilds_what_construction_derives(self):
        cfg = ScenarioConfig(robot_count=22, sim_duration=0.05)
        zero = zero_union()
        assert replace(cfg, filter_disturbance=zero).filter_config().disturbance is zero
        assert replace(cfg, u_max=10.0).filter_config().u_max == 10.0
        wider = replace(cfg, circle_radius=0.7)
        np.testing.assert_array_equal(
            wider.start_poses, as_poses(circle_init(22, 0.7, cfg.geometry, cfg.barrier))
        )
        union = HullUnion((symmetric_box(1.0), symmetric_box(2.0)))
        assert replace(cfg, disturbance=union).pooled.size == 8
        with pytest.raises(ValueError, match="robots 0 and 1 overlap"):
            replace(cfg, circle_radius=0.43)

    def test_derived_data_is_read_only(self):
        cfg = ScenarioConfig(robot_count=3, sim_duration=0.05)
        with pytest.raises(ValueError):
            cfg.start_poses[0, 0] = 1.0

    def test_run_scenario_never_builds_the_circle(self, monkeypatch):
        cfg = ScenarioConfig(robot_count=22, sim_duration=0.05)
        calls = []
        real = sim.circle_init
        monkeypatch.setattr(sim, "circle_init", lambda *args: calls.append(args) or real(*args))
        run_scenario(cfg)
        assert calls == []

    def test_step_count_is_floor_of_the_ratio(self):
        cfg = ScenarioConfig(robot_count=2, sim_duration=30.0, dt=0.005)
        assert cfg.steps() == 6000
        cfg = ScenarioConfig(robot_count=2, sim_duration=0.004, dt=0.005)
        assert cfg.steps() == 0


class TestCircleInit:
    def test_two_robots_antipodal(self, geom, params):
        states = circle_init(2, 1.0, geom, params)
        assert states[0].x1 == pytest.approx(1.0)
        assert states[0].x2 == pytest.approx(0.0)
        assert states[0].theta == pytest.approx(math.pi)
        assert states[1].x1 == pytest.approx(-1.0)
        assert abs(states[1].x2) < 1e-12
        assert states[1].theta == pytest.approx(0.0, abs=1e-12)

    def test_twenty_two_chord_value(self, geom, params):
        # Output points sit on a circle of radius - look_ahead (headings
        # point inward); the smallest pair gap is the adjacent chord.
        states = circle_init(22, 0.6, geom, params)
        outputs = pose_frame(as_poses(states), geom).outputs
        iu, ju = np.triu_indices(22, k=1)
        h_min = float(pair_h_values(outputs[iu], outputs[ju], params).min())
        chord = 2.0 * (0.6 - geom.look_ahead) * math.sin(math.pi / 22.0)
        assert h_min == pytest.approx(chord**2 - params.delta**2, rel=1e-12)
        assert h_min > 0.0

    def test_single_robot(self, geom, params):
        states = circle_init(1, 0.5, geom, params)
        assert len(states) == 1

    def test_no_robots_raises(self, geom, params):
        with pytest.raises(ValueError, match="at least one robot"):
            circle_init(0, 0.5, geom, params)

    def test_overlap_raises(self, geom, params):
        with pytest.raises(ValueError):
            circle_init(22, 0.43, geom, params)

    def test_overlap_names_the_first_pair(self, geom, params):
        # At this radius only neighbours touch; (0, 1) comes first.
        with pytest.raises(ValueError, match="robots 0 and 1 overlap"):
            circle_init(22, 0.43, geom, params)


class TestNominalController:
    def test_at_goal_commands_zero(self, geom):
        state = RobotState(0.2, -0.1, 0.7)
        cmd = nominal_controller(state, output_point(state, geom), 1.0, geom, U_MAX)
        assert cmd.omega_r == pytest.approx(0.0, abs=1e-12)
        assert cmd.omega_l == pytest.approx(0.0, abs=1e-12)

    def test_goal_straight_ahead_translates(self, geom):
        state = RobotState(0.0, 0.0, 0.0)
        cmd = nominal_controller(state, np.array([0.2, 0.0]), 1.0, geom, U_MAX)
        assert cmd.omega_r == pytest.approx(cmd.omega_l)
        assert cmd.omega_r > 0.0

    def test_inverts_the_output_jacobian(self, geom, rng):
        for _ in range(100):
            state = RobotState(*rng.normal(size=2), rng.uniform(-math.pi, math.pi))
            goal = rng.normal(size=2)
            gain = float(rng.uniform(0.2, 3.0))
            cmd = nominal_controller(state, goal, gain, geom, U_MAX)
            desired = gain * (goal - output_point(state, geom))
            (jac,) = pose_frame(as_poses([state]), geom).jacobians
            unsaturated = np.linalg.solve(jac, desired)
            peak = np.abs(unsaturated).max()
            expected = unsaturated * min(1.0, U_MAX / peak) if peak > 0 else unsaturated
            np.testing.assert_allclose(
                as_commands([cmd])[0], expected, rtol=1e-9, atol=1e-12
            )

    def test_batched_matches_per_robot_bit_for_bit(self, geom, rng):
        poses = np.column_stack(
            [rng.normal(size=(200, 2)), rng.uniform(-math.pi, math.pi, size=200)]
        )
        goals = rng.normal(scale=2.0, size=(200, 2))
        batched = nominal_commands(poses, goals, 1.5, geom, U_MAX)
        assert np.abs(batched).max() == pytest.approx(U_MAX)  # some saturate
        for pose, goal, row in zip(poses, goals, batched):
            cmd = nominal_controller(RobotState(*pose), goal, 1.5, geom, U_MAX)
            assert [cmd.omega_r, cmd.omega_l] == row.tolist()

    def test_saturation_preserves_direction(self, geom):
        state = RobotState(0.0, 0.0, 0.3)
        cmd = nominal_controller(state, np.array([5.0, 5.0]), 10.0, geom, U_MAX)
        assert max(abs(cmd.omega_r), abs(cmd.omega_l)) == pytest.approx(U_MAX)


class TestRunScenario:
    def test_benign_two_robots_reach_goals(self):
        metrics = run_scenario(benign_two_robot(duration=20.0))
        assert metrics.violation_time == 0.0
        assert metrics.goal_completion == 1.0
        assert metrics.min_h.min() > 0.0

    def test_record_shapes_and_invariants(self):
        cfg = benign_two_robot(duration=1.0)
        metrics = run_scenario(cfg)
        steps = cfg.steps()
        assert metrics.times.shape == (steps,)
        assert metrics.min_h.shape == (steps,)
        assert metrics.wall_clock.shape == (steps,)
        assert metrics.max_alter.shape == (steps,)
        assert np.all(metrics.wall_clock >= 0.0)
        assert metrics.violation_time <= cfg.sim_duration
        np.testing.assert_allclose(np.diff(metrics.times), cfg.dt)

    def test_deterministic_given_seed(self):
        cfg = benign_two_robot(
            duration=1.0,
            disturbance=HullUnion((symmetric_box(2.0),)),
            plant_disturbance="uniform-convex",
            rng_seed=11,
        )
        a = run_scenario(cfg)
        b = run_scenario(cfg)
        np.testing.assert_array_equal(a.min_h, b.min_h)
        np.testing.assert_array_equal(a.max_alter, b.max_alter)

    def test_different_seeds_differ_under_random_disturbance(self):
        base = benign_two_robot(
            duration=1.0,
            disturbance=HullUnion((symmetric_box(3.0),)),
            plant_disturbance="uniform-convex",
            rng_seed=1,
        )
        a = run_scenario(base)
        b = run_scenario(replace(base, rng_seed=2))
        assert not np.array_equal(a.min_h, b.min_h)

    def test_every_step_warm_starts_from_the_last_answer(self, monkeypatch):
        # A fallback's answer too: its active set is empty, so the step
        # after it solves cold.  circle22 under a psi = 14 box takes the
        # slack fallback at steps 259-270.
        cfg = load_config(SCENARIO_DIR / "circle22.yaml")
        cfg = replace(cfg, disturbance=HullUnion((symmetric_box(14.0),)),
                      sim_duration=268 * cfg.dt, iterations=1)
        calls = []

        def recording(*args, warm_start=None):
            result = safety_filter.filter_step(*args, warm_start=warm_start)
            calls.append((warm_start, result))
            return result

        monkeypatch.setattr(sim, "filter_step", recording)
        run_scenario(cfg)
        assert len(calls) == 268 and calls[0][0] is None
        assert all(warm is last.solver for (warm, _), (_, last) in zip(calls[1:], calls))
        assert [result.fallback_applied for _, result in calls[262:-1]] == ["slack"] * 5

    def test_debug_checks_pass_for_all_modes(self):
        for mode in ("off", "uniform-convex", "worst-case", "vertex"):
            cfg = benign_two_robot(
                duration=0.2,
                disturbance=HullUnion((symmetric_box(2.0),)),
                plant_disturbance=mode,
                debug_checks=True,
            )
            run_scenario(cfg)

    def test_debug_checks_catch_a_draw_outside_the_hull(self, monkeypatch):
        def escaping(union, n, rng):
            draws = np.zeros((n, 2))
            draws[-1] = (2.0, 2.5)
            return draws

        monkeypatch.setattr(sim, "flat_dirichlet_points", escaping)
        cfg = benign_two_robot(
            duration=0.2,
            disturbance=HullUnion((symmetric_box(2.0),)),
            plant_disturbance="uniform-convex",
            debug_checks=True,
        )
        with pytest.raises(AssertionError, match="of robot 1 escapes the declared hull"):
            run_scenario(cfg)

    def test_vertex_mode_bounds_checked(self):
        with pytest.raises(ValueError, match="plant_vertex"):
            benign_two_robot(
                duration=0.2,
                disturbance=HullUnion((symmetric_box(2.0),)),
                plant_disturbance="vertex",
                plant_vertex=9,
            )

    def test_worst_case_drives_toward_the_tightest_pair(self, geom, params):
        # With the robust filter the adversarial vertex cannot create
        # violations; the trace stays above the discretization tolerance.
        cfg = ScenarioConfig(
            robot_count=4,
            sim_duration=3.0,
            circle_radius=0.3,
            plant_disturbance="worst-case",
            rng_seed=5,
        )
        metrics = run_scenario(cfg)
        assert metrics.min_h.min() >= -1e-3

    def test_non_robust_filter_violates_under_worst_case(self):
        from robustcbf import zero_union

        cfg = ScenarioConfig(
            robot_count=4,
            sim_duration=6.0,
            circle_radius=0.3,
            plant_disturbance="worst-case",
            filter_disturbance=zero_union(),
            rng_seed=5,
        )
        metrics = run_scenario(cfg)
        assert metrics.violation_time > 0.0

    def test_rhs_monotone_in_psi_at_recorded_states(self, geom, params):
        cfg = benign_two_robot(duration=0.5, record_states=True)
        metrics = run_scenario(cfg)
        assert metrics.states is not None
        for step in range(0, metrics.states.shape[0], 20):
            states = [RobotState(*row) for row in metrics.states[step]]
            smaller = assemble_constraints(
                states, cfg.geometry, cfg.barrier, HullUnion((symmetric_box(2.0),)), U_MAX
            )
            larger = assemble_constraints(
                states, cfg.geometry, cfg.barrier, HullUnion((symmetric_box(4.0),)), U_MAX
            )
            assert np.all(larger.b >= smaller.b)

    def test_rk4_integrator_runs(self):
        metrics = run_scenario(benign_two_robot(duration=0.5, integrator="rk4"))
        assert metrics.min_h.min() > 0.0


def two_hull_union():
    """Seeded union of a 3-point and a 40-point hull."""
    rng = np.random.default_rng(3)
    return HullUnion(tuple(DisturbanceHull(rng.normal(size=(p, 2))) for p in (3, 40)))


def crossing_start(**kwargs):
    """Eight robots on a tight circle.  The neighbours of robot 0 start with
    headings near +-pi, and the filter swerves one of them across the cut
    within 200 steps."""
    defaults = dict(
        robot_count=8,
        sim_duration=1.0,
        circle_radius=0.3,
        disturbance=HullUnion((symmetric_box(3.0),)),
        rng_seed=7,
        plant_vertex=1,
    )
    defaults.update(kwargs)
    return ScenarioConfig(**defaults)


class TestArrayLoopMatchesPerRobotReference:
    """run_scenario carries (n, 3) poses and (n, 2) commands; the per-robot
    reference loop in oracles.py must give the same bits."""

    @pytest.mark.parametrize("integrator", ["euler", "rk4"])
    @pytest.mark.parametrize("mode", ["off", "uniform-convex", "worst-case", "vertex"])
    def test_bit_identical_for_200_steps(self, mode, integrator):
        cfg = crossing_start(plant_disturbance=mode, integrator=integrator)
        assert cfg.steps() == 200
        metrics = run_scenario(replace(cfg, record_states=True))
        min_h, max_alter, completion, poses = reference_closed_loop(cfg)
        np.testing.assert_array_equal(metrics.min_h, min_h)
        np.testing.assert_array_equal(metrics.max_alter, max_alter)
        assert metrics.goal_completion == completion
        final = run_scenario(replace(cfg, sim_duration=cfg.sim_duration + cfg.dt,
                                     record_states=True)).states[-1]
        np.testing.assert_array_equal(final, poses)
        # The run crosses the heading cut: some heading jumps by about 2 pi.
        jumps = np.abs(np.diff(metrics.states[:, :, 2], axis=0))
        assert jumps.max() > math.pi

    def test_bit_identical_with_a_hull_union_and_goal_reached(self):
        cfg = benign_two_robot(
            duration=8.0, disturbance=two_hull_union(), plant_disturbance="uniform-convex"
        )
        metrics = run_scenario(cfg)
        min_h, max_alter, completion, _ = reference_closed_loop(cfg)
        np.testing.assert_array_equal(metrics.min_h, min_h)
        np.testing.assert_array_equal(metrics.max_alter, max_alter)
        assert metrics.goal_completion == completion == 1.0

    @pytest.mark.parametrize("mode", ["worst-case", "vertex"])
    def test_bit_identical_on_the_pooled_union(self, mode):
        # The reference searches the worst case hull by hull, and it picks
        # vertices of both hulls here; vertex 41 lies in the second hull.
        cfg = benign_two_robot(
            duration=8.0, disturbance=two_hull_union(), plant_disturbance=mode, plant_vertex=41
        )
        metrics = run_scenario(cfg)
        min_h, max_alter, completion, _ = reference_closed_loop(cfg)
        np.testing.assert_array_equal(metrics.min_h, min_h)
        np.testing.assert_array_equal(metrics.max_alter, max_alter)
        assert metrics.goal_completion == completion

    def test_boundary_margin_pass_matches_the_declared_hulls(self, monkeypatch):
        # oracles.reference_closed_loop calls filter_step, so it shares the
        # plan's pooled boundary hull; compare against a run whose margin
        # pass reads every declared hull.  The 201st recorded pose is the
        # final pose of 200 steps.
        cfg = crossing_start(
            disturbance=HullUnion(ring_hulls(11, count=2)),
            plant_disturbance="uniform-convex",
            sim_duration=1.005,
            record_states=True,
        )
        assert cfg.steps() == 201
        real_hull, kept = safety_filter.boundary_hull, []

        def recording(hull):
            kept.append(real_hull(hull))
            return kept[-1]

        monkeypatch.setattr(safety_filter, "boundary_hull", recording)
        reduced = run_scenario(cfg)
        declared_sizes = [hull.size for hull in cfg.disturbance.hulls]
        assert len(kept) == 1 and kept[0].size < min(64, sum(declared_sizes))
        real_plan = safety_filter.FilterConfig.plan
        monkeypatch.setattr(
            safety_filter.FilterConfig,
            "plan",
            lambda fcfg, n: replace(real_plan(fcfg, n), margin_union=fcfg.disturbance),
        )
        declared = run_scenario(cfg)
        np.testing.assert_array_equal(reduced.min_h, declared.min_h)
        np.testing.assert_array_equal(reduced.max_alter, declared.max_alter)
        np.testing.assert_array_equal(reduced.states, declared.states)
        assert reduced.max_alter.max() > 0.0

    def test_single_robot_loop(self):
        cfg = ScenarioConfig(robot_count=1, sim_duration=6.0, circle_radius=0.3)
        metrics = run_scenario(cfg)
        assert np.all(metrics.min_h == math.inf)
        assert metrics.violation_time == 0.0
        assert metrics.goal_completion == 1.0


class TestRepeatExperiment:
    def test_single_iteration_equals_run_scenario(self):
        cfg = benign_two_robot(
            duration=0.5,
            disturbance=HullUnion((symmetric_box(2.0),)),
            plant_disturbance="uniform-convex",
            iterations=1,
        )
        single = run_scenario(cfg)
        repeated = repeat_experiment(cfg)
        assert len(repeated) == 1
        np.testing.assert_array_equal(repeated[0].min_h, single.min_h)

    def test_fixed_seed_bit_identical_metrics(self):
        cfg = benign_two_robot(
            duration=0.4,
            disturbance=HullUnion((symmetric_box(2.0),)),
            plant_disturbance="uniform-convex",
            iterations=3,
        )
        a = repeat_experiment(cfg)
        b = repeat_experiment(cfg)
        for run_a, run_b in zip(a, b):
            np.testing.assert_array_equal(run_a.min_h, run_b.min_h)
            np.testing.assert_array_equal(run_a.max_alter, run_b.max_alter)

    def test_derived_seeds_are_stable_and_distinct(self):
        seeds = derived_seeds(42, 5)
        assert seeds == derived_seeds(42, 5)
        assert seeds[0] == 42
        assert len(set(seeds)) == 5

    def test_aggregate_metrics_shapes(self):
        from robustcbf import aggregate_metrics

        cfg = benign_two_robot(duration=0.3, iterations=2)
        runs = repeat_experiment(cfg)
        summary = aggregate_metrics(runs)
        wct = np.concatenate([r.wall_clock for r in runs])
        assert summary["avg_wct_ms"] == pytest.approx(wct.mean() * 1e3)
        assert summary["var_wct_ms2"] == pytest.approx(wct.var() * 1e6)
        assert summary["violation_time_s"] == 0.0
        assert 0.0 <= summary["goal_completion"] <= 1.0
        empty = aggregate_metrics([])
        assert empty["avg_wct_ms"] is None

    def test_parallel_jobs_match_sequential(self):
        cfg = benign_two_robot(
            duration=0.3,
            disturbance=HullUnion((symmetric_box(2.0),)),
            plant_disturbance="uniform-convex",
            iterations=2,
        )
        sequential = repeat_experiment(cfg, jobs=1)
        parallel = repeat_experiment(cfg, jobs=2)
        for run_s, run_p in zip(sequential, parallel):
            np.testing.assert_array_equal(run_s.min_h, run_p.min_h)

    def test_pool_never_exceeds_the_iterations(self, monkeypatch):
        # A stub pool that records its size and maps in this process: no
        # worker is ever started.
        sizes = []

        class SerialPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, func, items):
                return map(func, items)

        # repeat_experiment imports the pool class from concurrent.futures
        # only when it starts workers, so the stub goes there.
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
        # Only a seeded plant runs more than once, so only it opens a pool.
        cfg = benign_two_robot(duration=0.1, iterations=3, plant_disturbance="uniform-convex")
        sequential = repeat_experiment(cfg)
        for jobs in (2, 3, 64):
            runs = repeat_experiment(cfg, jobs=jobs)
            for run_s, run_p in zip(sequential, runs, strict=True):
                np.testing.assert_array_equal(run_s.min_h, run_p.min_h)
        assert sizes == [2, 3, 3]

    @pytest.mark.parametrize("mode", ["off", "worst-case", "vertex"])
    def test_seed_free_plants_ignore_the_seed(self, mode):
        # What lets repeat_experiment run these plants once for every slot.
        cfg = eight_robot_swap(plant_disturbance=mode, record_states=True)
        a = run_scenario(cfg)
        b = run_scenario(replace(cfg, rng_seed=cfg.rng_seed + 1))
        np.testing.assert_array_equal(a.min_h, b.min_h)
        np.testing.assert_array_equal(a.max_alter, b.max_alter)
        assert a.goal_completion == b.goal_completion
        np.testing.assert_array_equal(a.states[-1], b.states[-1])
        assert a.max_alter.max() > 0.0

    def test_uniform_convex_plant_reads_the_seed(self):
        cfg = eight_robot_swap(plant_disturbance="uniform-convex")
        a = run_scenario(cfg)
        b = run_scenario(replace(cfg, rng_seed=cfg.rng_seed + 1))
        assert not np.array_equal(a.min_h, b.min_h)

    @pytest.mark.parametrize("mode", ["off", "worst-case", "vertex"])
    def test_seed_free_plant_runs_once(self, mode, monkeypatch):
        calls = []
        monkeypatch.setattr(sim, "run_scenario", lambda cfg: calls.append(cfg) or cfg)
        cfg = eight_robot_swap(plant_disturbance=mode, iterations=4)
        for jobs in (1, 2):
            calls.clear()
            assert sim.repeat_experiment(cfg, jobs=jobs) == [cfg] * 4
            assert calls == [cfg]

    def test_seeded_plant_runs_every_derived_seed(self, monkeypatch):
        calls = []
        monkeypatch.setattr(sim, "run_scenario", lambda cfg: calls.append(cfg) or cfg)
        cfg = eight_robot_swap(plant_disturbance="uniform-convex", iterations=4)
        assert sim.repeat_experiment(cfg) == calls
        assert calls[0] is cfg
        assert [one.rng_seed for one in calls] == derived_seeds(cfg.rng_seed, 4)
        assert len({one.rng_seed for one in calls}) == 4

    def test_import_leaves_the_process_pool_unloaded(self):
        # The pool's modules cost start-up time; only jobs > 1 needs them.
        code = (
            "import sys, robustcbf, robustcbf.cli; "
            "print('concurrent.futures' in sys.modules)"
        )
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
        )
        assert out.stdout.strip() == "False"

    def test_a_closed_loop_leaves_scipy_unloaded(self):
        # Importing scipy.linalg costs about 0.24 s of start-up and 26 MB of
        # resident memory (31 -> 57 MB); the step path keeps to numpy.
        code = (
            "import sys; from dataclasses import replace; import robustcbf, robustcbf.cli; "
            f"cfg = robustcbf.cli.load_config({str(SCENARIO_DIR / 'circle22.yaml')!r}); "
            "cfg = replace(cfg, sim_duration=10 * cfg.dt, iterations=1); "
            "assert robustcbf.run_scenario(cfg).times.size == 10; "
            "print(sorted(m for m in sys.modules if m.startswith('scipy')))"
        )
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
        )
        assert out.stdout.strip() == "[]"

    def test_a_kkt_check_leaves_scipy_unloaded(self):
        # scipy.optimize would cost about 0.35 s and 47 MB (31 -> 78 MB);
        # the certificate solves its nonnegative least squares in numpy.
        code = (
            "import sys, numpy as np; import robustcbf; "
            "p = robustcbf.QpProblem(np.eye(2), np.array([3.0, 0.0]), np.array([[-1.0, 0.0]]), "
            "np.array([-1.0]), 25.0); "
            "assert max(robustcbf.kkt_check(p, robustcbf.solve(p).u_star)) <= 1e-12; "
            "print(sorted(m for m in sys.modules if m.startswith('scipy')))"
        )
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
        )
        assert out.stdout.strip() == "[]"


class TestDisturbanceRealization:
    def test_off_mode_matches_undisturbed_plant(self):
        cfg = benign_two_robot(duration=0.3)
        forced = replace(
            cfg, disturbance=HullUnion((DisturbanceHull(np.array([[0.0, 0.0]])),)),
            plant_disturbance="uniform-convex",
        )
        np.testing.assert_array_equal(
            run_scenario(cfg).min_h, run_scenario(forced).min_h
        )

    def test_worst_case_realization_is_a_vertex(self, geom, params):
        from robustcbf import FilterConfig, filter_step
        from robustcbf.sim import _worst_case_disturbance

        hull = symmetric_box(5.0)
        cfg = FilterConfig(geom, params, HullUnion((hull,)), U_MAX)
        states = circle_init(4, 0.3, geom, params)
        result = filter_step(states, [WheelCommand(10.0, 10.0)] * 4, cfg)
        vertex = _worst_case_disturbance(result, hull)
        assert any(np.array_equal(vertex, v) for v in hull.vertices)

    def test_worst_case_single_robot_uses_first_vertex(self, geom, params):
        from robustcbf import FilterConfig, filter_step
        from robustcbf.sim import _worst_case_disturbance

        hull = symmetric_box(5.0)
        cfg = FilterConfig(geom, params, HullUnion((hull,)), U_MAX)
        result = filter_step([RobotState(0, 0, 0)], [WheelCommand(1.0, 1.0)], cfg)
        np.testing.assert_array_equal(_worst_case_disturbance(result, hull), hull.vertices[0])

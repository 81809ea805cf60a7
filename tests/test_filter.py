import ast
import inspect
import logging
import math
from dataclasses import replace

import numpy as np
import pytest

from robustcbf import (
    DisturbanceHull,
    FilterConfig,
    FilterInfeasibleError,
    HullUnion,
    RobotState,
    WheelCommand,
    assemble_constraints,
    circle_init,
    ensemble_weight,
    filter_step,
    kkt_check,
    symmetric_box,
    zero_union,
)
from robustcbf.barrier import pair_h_values
from robustcbf.disturbance import boundary_hull
from robustcbf.dynamics import as_commands, as_poses, pose_frame
from robustcbf import qp
from robustcbf.qp import MAX_ITERATIONS, OPTIMAL, QpProblem

from .conftest import U_MAX, congested_poses, ring_hulls
from . import oracles
from .oracles import audit_margin, per_robot_offsets, shared_offsets


def make_config(geom, params, psi=5.0, **kwargs):
    return FilterConfig(
        geometry=geom,
        barrier=params,
        disturbance=HullUnion((symmetric_box(psi),)),
        u_max=U_MAX,
        **kwargs,
    )


def far_apart_states(rng, n, spacing=2.0):
    return [
        RobotState(spacing * k, 0.1 * float(rng.normal()), float(rng.uniform(-math.pi, math.pi)))
        for k in range(n)
    ]


def head_on_contact(geom, params):
    """Two robots whose output points touch at exactly h = 0, facing each other."""
    gap = params.delta + 2.0 * geom.look_ahead
    return [RobotState(0.0, 0.0, 0.0), RobotState(gap, 0.0, math.pi)]


class TestFilterConfig:
    def test_validation(self, geom, params, box5):
        with pytest.raises(ValueError):
            FilterConfig(geom, params, HullUnion((box5,)), u_max=-1.0)
        with pytest.raises(ValueError):
            FilterConfig(geom, params, HullUnion((box5,)), u_max=25.0, fallback="panic")
        with pytest.raises(ValueError):
            FilterConfig(
                geom, params, HullUnion((box5,)), u_max=25.0, fallback="slack", slack_weight=0.0
            )


class TestEnsembleWeight:
    def test_single_robot_is_the_output_block(self, geom):
        np.testing.assert_array_equal(ensemble_weight(1, geom), geom.body_output_matrix)

    def test_three_robots_block_diagonal(self, geom):
        weight = ensemble_weight(3, geom)
        block = geom.body_output_matrix
        assert weight.shape == (6, 6)
        for k in range(3):
            np.testing.assert_array_equal(weight[2 * k : 2 * k + 2, 2 * k : 2 * k + 2], block)
        off = weight.copy()
        for k in range(3):
            off[2 * k : 2 * k + 2, 2 * k : 2 * k + 2] = 0.0
        assert np.all(off == 0.0)

    def test_block_matches_table_constants(self, geom):
        block = geom.body_output_matrix
        np.testing.assert_allclose(
            block,
            [[0.008, 0.008], [-0.03 * 0.016 / 0.105, 0.03 * 0.016 / 0.105]],
            rtol=1e-12,
        )

    def test_rejects_zero_robots(self, geom):
        with pytest.raises(ValueError):
            ensemble_weight(0, geom)


class TestFilterStep:
    def test_far_apart_returns_nominal(self, geom, params, rng):
        cfg = make_config(geom, params, fallback="error")
        states = far_apart_states(rng, 2)
        nominal = [WheelCommand(5.0, 4.0), WheelCommand(-3.0, 6.0)]
        result = filter_step(states, nominal, cfg)
        assert result.solver.status == OPTIMAL
        np.testing.assert_allclose(
            result.solver.u_star, [5.0, 4.0, -3.0, 6.0], atol=1e-6
        )
        assert np.all(result.altered <= 1e-6)

    def test_head_on_contact_is_altered_and_safe(self, geom, params):
        cfg = make_config(geom, params, fallback="error")
        states = head_on_contact(geom, params)
        nominal = [WheelCommand(U_MAX, U_MAX), WheelCommand(U_MAX, U_MAX)]
        result = filter_step(states, nominal, cfg)
        assert result.solver.status == OPTIMAL
        assert result.min_h == pytest.approx(0.0, abs=1e-12)
        assert np.abs(result.solver.u_star - np.full(4, U_MAX)).max() > 1.0
        slack = result.constraints.A @ result.solver.u_star - result.constraints.b
        assert np.all(slack >= -1e-8)
        problem = QpProblem(
            ensemble_weight(2, geom),
            np.full(4, U_MAX),
            result.constraints.A,
            result.constraints.b,
            U_MAX,
        )
        stationarity, feasibility, complementarity = kkt_check(
            problem, result.solver.u_star
        )
        assert stationarity <= 1e-6
        assert feasibility <= 1e-8
        assert complementarity <= 1e-6

    def test_circle22_first_step(self, geom, params):
        from robustcbf import circle_init, nominal_controller, output_point

        cfg = make_config(geom, params, fallback="error")
        states = circle_init(22, 0.6, geom, params)
        goals = [-output_point(s, geom) for s in states]
        nominal = [
            nominal_controller(s, g, 1.0, geom, U_MAX) for s, g in zip(states, goals)
        ]
        result = filter_step(states, nominal, cfg)
        assert result.constraints.rows == 231
        assert result.solver.status == OPTIMAL
        slack = result.constraints.A @ result.solver.u_star - result.constraints.b
        assert np.all(slack >= -1e-8)
        assert np.abs(result.solver.u_star).max() <= U_MAX + 1e-10

    def test_minimal_invasiveness_on_safe_nominals(self, geom, params, rng):
        cfg = make_config(geom, params, fallback="error")
        for _ in range(25):
            n = int(rng.integers(2, 5))
            states = far_apart_states(rng, n)
            nominal = [
                WheelCommand(*rng.uniform(-U_MAX, U_MAX, size=2)) for _ in range(n)
            ]
            offsets = shared_offsets(cfg.disturbance)
            assert audit_margin(states, nominal, geom, params, offsets) >= -1e-9
            result = filter_step(states, nominal, cfg)
            stacked = as_commands(nominal).reshape(-1)
            assert np.abs(result.solver.u_star - stacked).max() <= 1e-6

    def test_robust_answer_satisfies_non_robust_rows(self, geom, params, rng):
        robust_cfg = make_config(geom, params, fallback="error")
        plain_cfg = make_config(geom, params, psi=0.0, fallback="error")
        states = [
            RobotState(0.0, 0.0, 0.0),
            RobotState(0.35, 0.02, math.pi),
            RobotState(0.02, 0.4, -math.pi / 2.0),
        ]
        nominal = [WheelCommand(20.0, 20.0)] * 3
        result = filter_step(states, nominal, robust_cfg)
        u = result.solver.u_star.reshape(-1, 2)
        offsets = shared_offsets(plain_cfg.disturbance)
        assert audit_margin(states, u, geom, params, offsets) >= -1e-9

    def test_permutation_equivariance(self, geom, params, rng):
        cfg = make_config(geom, params, fallback="error")
        states = [
            RobotState(0.0, 0.0, 0.3),
            RobotState(0.3, 0.05, math.pi),
            RobotState(0.1, 0.3, -1.0),
        ]
        nominal = [WheelCommand(18.0, 20.0), WheelCommand(15.0, -5.0), WheelCommand(9.0, 9.0)]
        base = filter_step(states, nominal, cfg).solver.u_star
        perm = [2, 0, 1]
        permuted = filter_step(
            [states[k] for k in perm], [nominal[k] for k in perm], cfg
        ).solver.u_star
        for new_pos, old_pos in enumerate(perm):
            np.testing.assert_allclose(
                permuted[2 * new_pos : 2 * new_pos + 2],
                base[2 * old_pos : 2 * old_pos + 2],
                atol=1e-8,
            )

    def test_certificate_closure(self, geom, params, rng):
        cfg = make_config(geom, params, fallback="error")
        for _ in range(10):
            states = [
                RobotState(*rng.uniform(-0.4, 0.4, size=2), rng.uniform(-math.pi, math.pi))
                for _ in range(4)
            ]
            outputs = pose_frame(as_poses(states), geom).outputs
            iu, ju = np.triu_indices(4, k=1)
            if pair_h_values(outputs[iu], outputs[ju], params).min() <= 0.0:
                continue
            nominal = [WheelCommand(*rng.uniform(-U_MAX, U_MAX, size=2)) for _ in range(4)]
            result = filter_step(states, nominal, cfg)
            assert result.solver.status == OPTIMAL
            u = result.solver.u_star.reshape(-1, 2)
            worst = audit_margin(states, u, geom, params, shared_offsets(cfg.disturbance))
            assert worst >= -1e-9, worst

    def test_min_h_matches_pairwise_minimum(self, geom, params, rng):
        cfg = make_config(geom, params)
        states = far_apart_states(rng, 3)
        result = filter_step(states, [WheelCommand(0.0, 0.0)] * 3, cfg)
        outputs = pose_frame(as_poses(states), geom).outputs
        expected = min(
            pair_h_values(outputs[i : i + 1], outputs[j : j + 1], params)[0]
            for i in range(2)
            for j in range(i + 1, 3)
        )
        assert result.min_h == pytest.approx(expected, rel=1e-12)

    def test_single_robot_min_h_is_infinite(self, geom, params):
        cfg = make_config(geom, params)
        result = filter_step([RobotState(0, 0, 0)], [WheelCommand(30.0, -30.0)], cfg)
        assert result.min_h == math.inf
        # Box bound still applies.
        assert np.abs(result.solver.u_star).max() <= U_MAX + 1e-10

    def test_length_mismatch_rejected(self, geom, params):
        cfg = make_config(geom, params)
        with pytest.raises(ValueError):
            filter_step([RobotState(0, 0, 0)], [], cfg)

    def test_continuity_diagnostic(self, geom, params):
        # Small state perturbations produce small command changes away from
        # degenerate geometry (empirical check, not a guarantee).
        cfg = make_config(geom, params, fallback="error")
        states = [RobotState(0.0, 0.0, 0.2), RobotState(0.3, 0.1, math.pi)]
        nominal = [WheelCommand(20.0, 18.0), WheelCommand(19.0, 21.0)]
        base = filter_step(states, nominal, cfg).solver.u_star
        nudged_states = [
            RobotState(s.x1 + 1e-7, s.x2 - 1e-7, s.theta + 1e-7) for s in states
        ]
        nudged = filter_step(nudged_states, nominal, cfg).solver.u_star
        assert np.abs(nudged - base).max() <= 1e-3


def overlapping_infeasible_config(geom, params):
    """Deep in contact with big margins and a tiny wheel budget: infeasible."""
    states = [RobotState(0.0, 0.0, 0.0), RobotState(0.1, 0.0, math.pi)]
    nominal = [WheelCommand(0.0, 0.0), WheelCommand(0.0, 0.0)]
    return states, nominal


class TestFallbacks:
    def test_error_fallback_raises(self, geom, params):
        states, nominal = overlapping_infeasible_config(geom, params)
        cfg = FilterConfig(
            geom,
            params,
            HullUnion((symmetric_box(5.0),)),
            u_max=0.05,
            fallback="error",
        )
        with pytest.raises(FilterInfeasibleError):
            filter_step(states, nominal, cfg)

    def test_zero_input_fallback(self, geom, params):
        states, nominal = overlapping_infeasible_config(geom, params)
        cfg = FilterConfig(
            geom,
            params,
            HullUnion((symmetric_box(5.0),)),
            u_max=0.05,
            fallback="zero-input",
        )
        result = filter_step(states, nominal, cfg)
        assert result.fallback_applied == "zero-input"
        np.testing.assert_array_equal(result.solver.u_star, np.zeros(4))

    def test_slack_fallback_keeps_box_hard(self, geom, params):
        states, nominal = overlapping_infeasible_config(geom, params)
        cfg = FilterConfig(
            geom,
            params,
            HullUnion((symmetric_box(5.0),)),
            u_max=0.05,
            fallback="slack",
        )
        result = filter_step(states, nominal, cfg)
        assert result.fallback_applied == "slack"
        assert result.solver.status == OPTIMAL
        assert np.abs(result.solver.u_star).max() <= 0.05 + 1e-10

    def test_a_failed_slack_solve_is_logged(self, geom, params, monkeypatch, caplog):
        states, nominal = overlapping_infeasible_config(geom, params)
        cfg = FilterConfig(
            geom, params, HullUnion((symmetric_box(5.0),)), u_max=0.05, fallback="slack"
        )
        with caplog.at_level(logging.WARNING, logger="robustcbf"):
            filter_step(states, nominal, cfg)
        assert not caplog.records  # an optimal slack answer logs nothing
        real = qp.solve_with_slack
        monkeypatch.setattr(
            qp, "solve_with_slack", lambda *args: replace(real(*args), status=MAX_ITERATIONS)
        )
        with caplog.at_level(logging.WARNING, logger="robustcbf"):
            result = filter_step(states, nominal, cfg)
        assert result.fallback_applied == "slack"
        assert result.solver.status == MAX_ITERATIONS
        [record] = caplog.records
        assert record.name == "robustcbf" and record.levelno == logging.WARNING
        message = record.getMessage()
        assert MAX_ITERATIONS in message
        assert f"after {result.solver.iterations} iterations" in message
        assert f"kkt_residual {result.solver.kkt_residual:.3e}" in message

    @pytest.mark.parametrize("fallback", ["error", "zero-input", "slack"])
    def test_coincident_robots(self, geom, params, fallback):
        # Zero barrier gradient: the pair row is 0 >= gamma * delta^6, infeasible.
        states = [RobotState(0.3, -0.2, 0.4)] * 2
        nominal = [WheelCommand(25.0, -10.0), WheelCommand(3.0, 4.0)]
        cfg = make_config(geom, params, fallback=fallback)
        if fallback == "error":
            with pytest.raises(FilterInfeasibleError):
                filter_step(states, nominal, cfg)
            return
        result = filter_step(states, nominal, cfg)
        assert result.fallback_applied == fallback
        assert result.min_h == -params.delta**2
        if fallback == "zero-input":
            np.testing.assert_array_equal(result.solver.u_star, np.zeros(4))
        else:
            assert result.solver.status == OPTIMAL
            assert result.solver.kkt_residual <= 1e-8
            assert np.abs(result.solver.u_star).max() <= U_MAX + 1e-10

    @pytest.mark.parametrize("fallback", ["zero-input", "slack"])
    def test_a_fallback_answer_warm_starts_as_a_cold_solve(self, geom, params, fallback):
        # run_scenario hands every step's answer to the next step as its warm
        # start, a fallback's too: its empty active set seeds nothing.
        rng = np.random.default_rng(10)
        stuck = filter_step(congested_poses(rng, geom), rng.uniform(-U_MAX, U_MAX, size=(22, 2)),
                            make_config(geom, params, psi=10.0, fallback=fallback))
        assert stuck.fallback_applied == fallback
        assert stuck.solver.active_set.tolist() == []
        cfg = make_config(geom, params, fallback="error")
        for _ in range(3):
            poses, nominal = congested_poses(rng, geom), rng.uniform(-U_MAX, U_MAX, size=(22, 2))
            cold = filter_step(poses, nominal, cfg).solver
            warm = filter_step(poses, nominal, cfg, warm_start=stuck.solver).solver
            assert warm.u_star.tobytes() == cold.u_star.tobytes()
            assert warm.multipliers.tobytes() == cold.multipliers.tobytes()
            assert warm.active_set.tolist() == cold.active_set.tolist()
            assert (warm.status, warm.iterations) == (cold.status, cold.iterations)

    def test_slack_weight_dominates(self, geom, params):
        # Feasible problems never trigger the fallback.
        cfg = FilterConfig(
            geom, params, HullUnion((symmetric_box(5.0),)), u_max=U_MAX, fallback="slack"
        )
        states = [RobotState(0.0, 0.0, 0.0), RobotState(3.0, 0.0, math.pi)]
        result = filter_step(states, [WheelCommand(1.0, 1.0)] * 2, cfg)
        assert result.fallback_applied is None


class TestSlackChain:
    """The slack path of a closed loop on a fixed sequence of snapshots, so
    that no trajectory decides which steps fall back: the ten psi = 10
    congested snapshots of default_rng(10), each infeasible, then the first
    three psi = 5 ones of default_rng(5), each feasible, filtered in turn,
    every step warm-started from the previous step's answer as run_scenario
    does."""

    @staticmethod
    def steps(geom, params):
        for psi, count in ((10, 10), (5, 3)):
            cfg = make_config(geom, params, psi=float(psi))
            rng = np.random.default_rng(psi)
            for _ in range(count):
                yield congested_poses(rng, geom), rng.uniform(-U_MAX, U_MAX, size=(22, 2)), cfg

    def test_each_fallback_status_and_seed(self, geom, params, monkeypatch):
        attempts, real = [], qp._solve_raw

        def recording(inv_hessian, linear, C, d, max_iter=None, warm=(), soft=None, crash=False,
                      norms=None):
            out = real(inv_hessian, linear, C, d, max_iter, warm, soft, crash, norms)
            kind = ("slack" if soft is not None else "crash" if crash
                    else "warm" if len(warm) else "empty")
            if crash:
                assert list(warm) == oracles.crash_rows(C, d, -inv_hessian @ linear, linear.size)
            attempts.append((kind, list(warm), out[2]))
            return out

        monkeypatch.setattr(qp, "_solve_raw", recording)
        warm, steps = None, []
        for poses, commands, cfg in self.steps(geom, params):
            del attempts[:]
            result = filter_step(poses, commands, cfg, warm_start=warm)
            assert result.solver.status == OPTIMAL
            if attempts[0][0] == "warm":
                assert attempts[0][1] == warm.active_set.tolist()
            steps.append((result.fallback_applied, [(kind, status) for kind, _, status in attempts],
                          result.solver.active_set.size))
            warm = result.solver
        # A slack answer's active set is empty, so the step after it solves
        # cold from its crash set; an optimal answer's seeds the next step.
        slack = ("slack", [("crash", qp.INFEASIBLE), ("slack", OPTIMAL)], 0)
        assert steps == [slack] * 10 + [(None, [("crash", OPTIMAL)], 31),
                                        (None, [("warm", OPTIMAL)], 29),
                                        (None, [("warm", OPTIMAL)], 30)]


class TestArrayEntry:
    """filter_step takes (n, 3) poses and (n, 2) commands as well as
    RobotState / WheelCommand sequences; both run the same array path."""

    def snapshot(self, rng, n=8):
        poses = np.column_stack(
            [rng.uniform(-0.4, 0.4, size=(n, 2)), rng.uniform(-math.pi, math.pi, size=n)]
        )
        commands = rng.uniform(-U_MAX, U_MAX, size=(n, 2))
        return poses, commands

    def test_arrays_equal_dataclass_input_bit_for_bit(self, geom, params, rng):
        cfg = make_config(geom, params, psi=2.0)
        warm_list = warm_array = None
        for _ in range(5):
            poses, commands = self.snapshot(rng)
            states = [RobotState(*p) for p in poses]
            nominal = [WheelCommand(*c) for c in commands]
            from_list = filter_step(states, nominal, cfg, warm_start=warm_list)
            from_array = filter_step(poses, commands, cfg, warm_start=warm_array)
            np.testing.assert_array_equal(from_array.solver.u_star, from_list.solver.u_star)
            np.testing.assert_array_equal(from_array.altered, from_list.altered)
            np.testing.assert_array_equal(from_array.constraints.A, from_list.constraints.A)
            np.testing.assert_array_equal(from_array.constraints.b, from_list.constraints.b)
            assert from_array.min_h == from_list.min_h
            assert from_array.solver.status == from_list.solver.status
            filtered = [WheelCommand(*c) for c in from_list.solver.u_star.reshape(-1, 2)]
            offsets = shared_offsets(cfg.disturbance)
            u = from_array.solver.u_star.reshape(-1, 2)
            assert audit_margin(poses, u, geom, params, offsets) == (
                audit_margin(states, filtered, geom, params, offsets)
            )
            warm_list, warm_array = from_list.solver, from_array.solver
        assert from_array.altered.max() > 0.0

    def test_array_input_is_not_aliased(self, geom, params, rng):
        cfg = make_config(geom, params)
        poses, commands = self.snapshot(rng, n=3)
        result = filter_step(poses, commands, cfg)
        before = result.solver.u_star.copy()
        commands[:] = 0.0
        np.testing.assert_array_equal(result.solver.u_star, before)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_arrays_rejected(self, geom, params, rng, bad):
        cfg = make_config(geom, params)
        poses, commands = self.snapshot(rng, n=3)
        for row, col in ((0, 0), (2, 2)):
            broken = poses.copy()
            broken[row, col] = bad
            with pytest.raises(ValueError, match="finite"):
                filter_step(broken, commands, cfg)
        broken = commands.copy()
        broken[1, 1] = bad
        with pytest.raises(ValueError, match="finite"):
            filter_step(poses, broken, cfg)

    def test_misshaped_arrays_rejected(self, geom, params, rng):
        cfg = make_config(geom, params)
        poses, commands = self.snapshot(rng, n=3)
        for bad_poses in (poses[:, :2], poses.reshape(-1), poses[:, :, None], np.zeros((0, 3))):
            with pytest.raises(ValueError):
                filter_step(bad_poses, commands, cfg)
        for bad_commands in (commands[:, :1], commands.reshape(-1), commands[:2], np.zeros((3, 3))):
            with pytest.raises(ValueError):
                filter_step(poses, bad_commands, cfg)


class TestPlanPerRobotCount:
    def test_one_config_serves_mixed_robot_counts(self, geom, params):
        cases = {
            1: ([RobotState(0.0, 0.0, 0.0)], [WheelCommand(25.0, 25.0)]),
            2: (head_on_contact(geom, params), [WheelCommand(25.0, 25.0)] * 2),
            22: (circle_init(22, 0.5, geom, params), [WheelCommand(25.0, 25.0)] * 22),
        }
        shared = make_config(geom, params)
        for n in (22, 1, 2, 22, 2, 1):
            states, nominal = cases[n]
            mixed = filter_step(states, nominal, shared)
            fresh = filter_step(states, nominal, make_config(geom, params))
            assert mixed.constraints.rows == n * (n - 1) // 2
            np.testing.assert_array_equal(mixed.solver.u_star, fresh.solver.u_star)
            np.testing.assert_array_equal(mixed.constraints.b, fresh.constraints.b)
        assert filter_step(*cases[22], shared).altered.max() > 0.0


class TestAuditMargin:
    """The robust certificate hdot + gamma h^3 >= 0 read off the dynamics by
    tests/oracles.py::audit_margin, which shares no code with the filter's
    rows.  With shared offsets it audits the model the filter implements."""

    def test_shared_offsets_match_the_filter_rows(self, geom, params):
        # hdot is a central difference, so the audit meets min(A u - b) to
        # a relative 1e-9 of the magnitude of the least row's terms, not of
        # their sum, which can be near zero.
        rng = np.random.default_rng(2417)
        union = HullUnion((symmetric_box(5.0),))
        for _ in range(40):
            n = int(rng.integers(2, 6))
            poses = np.column_stack(
                [rng.uniform(-0.4, 0.4, size=(n, 2)), rng.uniform(-math.pi, math.pi, size=n)]
            )
            u = rng.uniform(-U_MAX, U_MAX, size=(n, 2))
            cs = assemble_constraints(poses, geom, params, union, U_MAX)
            slack = cs.A @ u.reshape(-1) - cs.b
            row = int(np.argmin(slack))
            terms = float(np.abs(cs.A[row]) @ np.abs(u.reshape(-1)) + abs(cs.b[row]))
            audit = audit_margin(poses, u, geom, params, shared_offsets(union))
            assert abs(audit - slack[row]) <= 1e-9 * terms

    def test_filtered_output_passes(self, geom, params):
        cfg = make_config(geom, params, fallback="error")
        states = head_on_contact(geom, params)
        result = filter_step(states, [WheelCommand(25.0, 25.0)] * 2, cfg)
        u = result.solver.u_star.reshape(-1, 2)
        assert audit_margin(states, u, geom, params, shared_offsets(cfg.disturbance)) >= -1e-9

    def test_full_speed_head_on_fails_near_contact(self, geom, params):
        cfg = make_config(geom, params)
        states = head_on_contact(geom, params)
        u = [WheelCommand(25.0, 25.0), WheelCommand(25.0, 25.0)]
        assert audit_margin(states, u, geom, params, shared_offsets(cfg.disturbance)) < 0.0

    def test_zero_hull_reduces_to_plain_certificate(self, geom, params):
        # Both robots drive straight at each other along the x-axis, each at
        # r (2 + 2) / 2 m/s, so the 0.44 m gap of their output points closes
        # at 4 r.
        states = [RobotState(0.0, 0.0, 0.0), RobotState(0.5, 0.0, math.pi)]
        u = [WheelCommand(2.0, 2.0), WheelCommand(2.0, 2.0)]
        audit = audit_margin(states, u, geom, params, shared_offsets(zero_union()))
        gap = 0.5 - 2.0 * geom.look_ahead
        h = gap**2 - params.delta**2
        plain = -2.0 * gap * 4.0 * geom.wheel_radius + params.gamma * h**3
        assert audit == pytest.approx(plain, rel=1e-9)
        cs = assemble_constraints(states, geom, params, zero_union(), U_MAX)
        assert audit == pytest.approx(float((cs.A @ as_commands(u).reshape(-1) - cs.b).min()),
                                      rel=1e-9)

    def test_single_robot_holds_trivially(self, geom, params):
        cfg = make_config(geom, params)
        u = [WheelCommand(25.0, 25.0)]
        offsets = shared_offsets(cfg.disturbance)
        assert audit_margin([RobotState(0, 0, 0)], u, geom, params, offsets) == math.inf

    def step_with_equal_headings(self, geom, params):
        """One filtered step of two robots that share a heading, so the
        filter's margin direction z_i + z_j is zero."""
        cfg = make_config(geom, params, fallback="error")
        states = [
            RobotState(0.0, 0.0, 0.7),
            RobotState(0.15 * math.cos(0.7), 0.15 * math.sin(0.7), 0.7),
        ]
        result = filter_step(states, [WheelCommand(25.0, 25.0), WheelCommand(-25.0, -25.0)], cfg)
        assert result.solver.status == OPTIMAL
        assert result.constraints.z_rows.tolist() == [[0.0, 0.0]]
        return states, result.solver.u_star.reshape(-1, 2), cfg.disturbance

    def test_equal_headings_pass_with_shared_offsets(self, geom, params):
        states, u, union = self.step_with_equal_headings(geom, params)
        assert audit_margin(states, u, geom, params, shared_offsets(union)) >= -1e-9

    @pytest.mark.xfail(
        strict=True,
        reason="the filter's margin takes one offset for both robots of a pair; "
        "each robot's own slip breaks the certificate where z_i + z_j = 0",
    )
    def test_equal_headings_pass_with_per_robot_offsets(self, geom, params):
        states, u, union = self.step_with_equal_headings(geom, params)
        assert audit_margin(states, u, geom, params, per_robot_offsets(union)) >= -1e-9

    def test_audit_reads_no_filter_code(self):
        # The audit and the oracles it calls name none of the filter's
        # constraint code.
        tree = ast.parse(inspect.getsource(oracles))
        functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
        seen, todo = set(), ["audit_margin", "shared_offsets", "per_robot_offsets"]
        names = set()
        while todo:
            name = todo.pop()
            if name in seen:
                continue
            seen.add(name)
            used = {node.id for node in ast.walk(functions[name]) if isinstance(node, ast.Name)}
            names |= used
            todo += sorted(used & functions.keys())
        forbidden = {"assemble_constraints", "pose_frame", "support_min_rows", "filter_step",
                     "ConstraintSet", "as_poses", "as_commands"}
        assert not names & forbidden


def overlapping_rings(seed: int) -> tuple:
    """Two radius-3 rings with centres 2 rad/s apart and a ring of radius 1
    inside both: the pooled boundary drops an arc of each large ring and the
    whole small one."""
    small = ring_hulls(seed + 1, count=1, vertices=64)[0].vertices / 3.0
    return ring_hulls(seed, count=2) + (DisturbanceHull(small),)


class TestBoundaryMarginPass:
    """The plan's margin union is one hull, the boundary points of the
    pooled declared vertices; the rows it yields must equal those of the
    declared hulls bit for bit."""

    @staticmethod
    def assert_b_matches_the_declared_hulls(cfg, rng):
        (pooled,) = cfg.plan(22).margin_union.hulls
        hulls = cfg.disturbance.hulls
        assert pooled.size < sum(boundary_hull(hull).size for hull in hulls)
        declared_points = {tuple(v) for hull in hulls for v in hull.vertices.tolist()}
        assert {tuple(v) for v in pooled.vertices.tolist()} <= declared_points
        altered = 0.0
        for _ in range(4):
            poses = congested_poses(rng, cfg.geometry)
            commands = rng.uniform(-U_MAX, U_MAX, size=(22, 2))
            result = filter_step(poses, commands, cfg)
            declared = assemble_constraints(
                poses, cfg.geometry, cfg.barrier, cfg.disturbance, U_MAX
            )
            np.testing.assert_array_equal(
                result.constraints.b.view(np.int64), declared.b.view(np.int64)
            )
            np.testing.assert_array_equal(result.constraints.A, declared.A)
            altered = max(altered, result.altered.max())
        assert altered > 0.0
        return pooled

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_b_equals_the_declared_hulls_bit_for_bit(self, geom, params, seed):
        cfg = FilterConfig(geom, params, HullUnion(ring_hulls(seed)), u_max=U_MAX)
        pooled = self.assert_b_matches_the_declared_hulls(cfg, np.random.default_rng(seed))
        assert pooled.size < 64

    def test_overlapping_rings_lose_whole_arcs_and_keep_every_bit(self, geom, params):
        hulls = overlapping_rings(7)
        cfg = FilterConfig(geom, params, HullUnion(hulls), u_max=U_MAX)
        pooled = self.assert_b_matches_the_declared_hulls(cfg, np.random.default_rng(7))
        kept = {tuple(v) for v in pooled.vertices.tolist()}
        sources = [kept & {tuple(v) for v in hull.vertices.tolist()} for hull in hulls]
        assert not sources[2]
        for hull, source in zip(hulls[:2], sources[:2]):
            assert 0 < len(source) < boundary_hull(hull).size


class TestRefusals:
    """The filter's problem skips the finiteness check of A, whose blocks
    can only overflow where b does; every other refusal still fires."""

    def test_nan_nominal_is_refused(self, geom, params, rng):
        poses = congested_poses(rng, geom, n=6)
        commands = rng.uniform(-U_MAX, U_MAX, size=(6, 2))
        commands[3, 0] = math.nan
        with pytest.raises(ValueError, match="finite"):
            filter_step(poses, commands, make_config(geom, params))

    def test_overflowing_b_is_refused(self, geom, params):
        poses = np.array([[0.0, 0.0, 0.0], [1e200, 0.0, math.pi], [-1e200, 1.0, 0.5]])
        cfg = make_config(geom, params)
        with np.errstate(over="ignore"):
            cs = assemble_constraints(poses, geom, params, cfg.disturbance, U_MAX)
            assert np.isfinite(cs.A).all()
            assert (cs.b == -math.inf).all()
            with pytest.raises(ValueError, match="b must be finite"):
                filter_step(poses, np.zeros((3, 2)), cfg)


class TestFilterProblem:
    """filter_step builds its QpProblem on the stacked rows C, d that
    assemble_constraints wrote; it must equal, byte for byte, the public
    constructor's problem on the same A and b."""

    @staticmethod
    def snapshots(geom, rng):
        poses = [congested_poses(rng, geom) for _ in range(3)]
        poses += [np.zeros((1, 3)), np.array([[0.1, -0.2, 0.3]] * 2)]
        return [(p, rng.uniform(-U_MAX, U_MAX, size=(p.shape[0], 2))) for p in poses]

    @pytest.mark.parametrize("union", [False, True])
    def test_the_filters_problem_is_the_public_one(self, geom, params, rng, monkeypatch, union):
        hulls = ring_hulls(5) if union else (symmetric_box(5.0),)
        cfg = FilterConfig(geom, params, HullUnion(hulls), u_max=U_MAX)
        built = []

        def record(*args, **kwargs):
            built.append(QpProblem(*args, **kwargs))
            return built[-1]

        monkeypatch.setattr(qp, "QpProblem", record)
        results, saved = [], []
        for poses, commands in self.snapshots(geom, rng):
            warm = results[-1].solver if results and len(results[-1].altered) == len(poses) else None
            results.append(filter_step(poses, commands, cfg, warm_start=warm))
            cs = results[-1].constraints
            saved.append([arr.copy() for arr in (cs.C, cs.d, cs.A, cs.b)])
            problem = built[-1]
            n = poses.shape[0]
            public = QpProblem(cfg.plan(n).weight, commands.reshape(-1), cs.A, cs.b, U_MAX)
            assert problem.rows == n * (n - 1) // 2
            for name in ("C", "d", "linear", "A", "b", "u_nom"):
                ours, theirs = getattr(problem, name), getattr(public, name)
                assert ours.shape == theirs.shape and ours.tobytes() == theirs.tobytes(), name
                assert not ours.flags.writeable, name
            # The problem's arrays live in assembly's buffers: nothing is copied.
            for arr, owner in ((cs.A, cs.C), (problem.C, cs.C), (problem.A, cs.C),
                               (cs.b, cs.d), (problem.d, cs.d), (problem.b, cs.d)):
                assert not arr.flags.writeable and (arr if arr.base is None else arr.base) is owner
        assert {r.fallback_applied for r in results} == {None, "slack"}
        for result, arrays in zip(results, saved):
            cs = result.constraints
            for arr, copy in zip((cs.C, cs.d, cs.A, cs.b), arrays):
                assert arr.tobytes() == copy.tobytes()

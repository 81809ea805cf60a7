import math

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
    body_output_matrix,
    certificate_holds,
    circle_init,
    ensemble_weight,
    filter_step,
    kkt_check,
    symmetric_box,
    zero_union,
)
from robustcbf.barrier import pair_h_values
from robustcbf.disturbance import boundary_hull
from robustcbf.dynamics import as_poses, output_points
from robustcbf.qp import OPTIMAL, QpProblem

from .conftest import U_MAX, congested_poses, ring_hulls


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
        np.testing.assert_array_equal(ensemble_weight(1, geom), body_output_matrix(geom))

    def test_three_robots_block_diagonal(self, geom):
        weight = ensemble_weight(3, geom)
        block = body_output_matrix(geom)
        assert weight.shape == (6, 6)
        for k in range(3):
            np.testing.assert_array_equal(weight[2 * k : 2 * k + 2, 2 * k : 2 * k + 2], block)
        off = weight.copy()
        for k in range(3):
            off[2 * k : 2 * k + 2, 2 * k : 2 * k + 2] = 0.0
        assert np.all(off == 0.0)

    def test_block_matches_table_constants(self, geom):
        block = body_output_matrix(geom)
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
            holds, _ = certificate_holds(states, nominal, cfg)
            assert holds
            result = filter_step(states, nominal, cfg)
            stacked = np.concatenate([c.as_array() for c in nominal])
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
        holds, _ = certificate_holds(states, result.solver.u_star.reshape(-1, 2), plain_cfg)
        assert holds

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
            outputs = output_points(as_poses(states), geom)
            iu, ju = np.triu_indices(4, k=1)
            if pair_h_values(outputs[iu], outputs[ju], params).min() <= 0.0:
                continue
            nominal = [WheelCommand(*rng.uniform(-U_MAX, U_MAX, size=2)) for _ in range(4)]
            result = filter_step(states, nominal, cfg)
            assert result.solver.status == OPTIMAL
            holds, worst = certificate_holds(states, result.solver.u_star.reshape(-1, 2), cfg)
            assert holds, worst

    def test_min_h_matches_pairwise_minimum(self, geom, params, rng):
        cfg = make_config(geom, params)
        states = far_apart_states(rng, 3)
        result = filter_step(states, [WheelCommand(0.0, 0.0)] * 3, cfg)
        outputs = output_points(as_poses(states), geom)
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

    def test_slack_weight_dominates(self, geom, params):
        # Feasible problems never trigger the fallback.
        cfg = FilterConfig(
            geom, params, HullUnion((symmetric_box(5.0),)), u_max=U_MAX, fallback="slack"
        )
        states = [RobotState(0.0, 0.0, 0.0), RobotState(3.0, 0.0, math.pi)]
        result = filter_step(states, [WheelCommand(1.0, 1.0)] * 2, cfg)
        assert result.fallback_applied is None


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
            assert certificate_holds(poses, from_array.solver.u_star.reshape(-1, 2), cfg) == (
                certificate_holds(states, filtered, cfg)
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


class TestCertificateHolds:
    def test_filtered_output_passes(self, geom, params):
        cfg = make_config(geom, params, fallback="error")
        states = head_on_contact(geom, params)
        result = filter_step(states, [WheelCommand(25.0, 25.0)] * 2, cfg)
        holds, worst = certificate_holds(states, result.solver.u_star.reshape(-1, 2), cfg)
        assert holds
        assert worst >= -1e-9

    def test_full_speed_head_on_fails_near_contact(self, geom, params):
        cfg = make_config(geom, params)
        states = head_on_contact(geom, params)
        holds, worst = certificate_holds(
            states, [WheelCommand(25.0, 25.0), WheelCommand(25.0, 25.0)], cfg
        )
        assert not holds
        assert worst < 0.0

    def test_zero_hull_reduces_to_plain_certificate(self, geom, params, rng):
        cfg_zero = FilterConfig(geom, params, zero_union(), u_max=U_MAX)
        states = [RobotState(0.0, 0.0, 0.0), RobotState(0.5, 0.0, math.pi)]
        u = [WheelCommand(2.0, 2.0), WheelCommand(2.0, 2.0)]
        holds, worst = certificate_holds(states, u, cfg_zero)
        from robustcbf import assemble_constraints

        cs = assemble_constraints(states, geom, params, zero_union(), U_MAX)
        direct = float(
            (cs.A @ np.concatenate([c.as_array() for c in u]) - cs.b).min()
        )
        assert worst == pytest.approx(direct, rel=1e-12)
        assert holds == (direct >= -1e-9)

    def test_single_robot_holds_trivially(self, geom, params):
        cfg = make_config(geom, params)
        holds, worst = certificate_holds(
            [RobotState(0, 0, 0)], [WheelCommand(25.0, 25.0)], cfg
        )
        assert holds
        assert worst == math.inf


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

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from robustcbf import (
    RobotGeometry,
    RobotState,
    WheelCommand,
    body_output_matrix,
    output_point,
    step_dynamics,
    wheel_matrix,
)
from robustcbf.dynamics import as_poses, output_jacobians, step_ensemble, wrap_angle

from .oracles import fd_jacobian


class TestWrapAngle:
    @given(st.floats(min_value=-math.pi + 1e-12, max_value=math.pi, allow_nan=False))
    def test_in_range_passes_through(self, theta):
        assert wrap_angle(theta) == theta

    @given(st.floats(min_value=-1e6, max_value=1e6, allow_nan=False))
    def test_result_in_half_open_interval(self, theta):
        wrapped = wrap_angle(theta)
        assert -math.pi < wrapped <= math.pi

    def test_negative_pi_maps_to_positive_pi(self):
        assert wrap_angle(-math.pi) == pytest.approx(math.pi)

    def test_full_turn_is_identity_up_to_rounding(self):
        assert wrap_angle(0.3 + 2.0 * math.pi) == pytest.approx(0.3, abs=1e-12)


class TestTypes:
    def test_state_normalizes_heading_at_construction(self):
        state = RobotState(0.0, 0.0, 3.0 * math.pi)
        assert state.theta == pytest.approx(math.pi)

    def test_state_rejects_non_finite(self):
        with pytest.raises(ValueError):
            RobotState(math.nan, 0.0, 0.0)
        with pytest.raises(ValueError):
            RobotState(0.0, math.inf, 0.0)

    def test_wheel_command_rejects_non_finite(self):
        with pytest.raises(ValueError):
            WheelCommand(math.nan, 0.0)

    def test_geometry_requires_positive_look_ahead(self):
        with pytest.raises(ValueError):
            RobotGeometry(0.016, 0.105, 0.0)
        with pytest.raises(ValueError):
            RobotGeometry(-0.016, 0.105, 0.03)


class TestWheelMatrix:
    def test_equal_wheels_translate(self, geom):
        v, omega = wheel_matrix(geom) @ np.array([25.0, 25.0])
        assert v == pytest.approx(0.4)
        assert omega == pytest.approx(0.0)

    def test_opposite_wheels_rotate(self, geom):
        v, omega = wheel_matrix(geom) @ np.array([25.0, -25.0])
        assert v == pytest.approx(0.0)
        assert omega == pytest.approx(0.016 * (-50.0) / 0.105)

    def test_zero_input(self, geom):
        assert np.all(wheel_matrix(geom) @ np.zeros(2) == 0.0)


class TestOutputPoint:
    def test_heading_zero(self, geom):
        p = output_point(RobotState(1.0, 2.0, 0.0), geom)
        np.testing.assert_allclose(p, [1.03, 2.0])

    def test_heading_quarter_turn(self, geom):
        p = output_point(RobotState(1.0, 2.0, math.pi / 2.0), geom)
        np.testing.assert_allclose(p, [1.0, 2.03], atol=1e-15)

    def test_tiny_look_ahead_approaches_position(self):
        geom = RobotGeometry(0.016, 0.105, 1e-12)
        p = output_point(RobotState(1.0, 2.0, 0.7), geom)
        np.testing.assert_allclose(p, [1.0, 2.0], atol=1e-11)


def random_poses(rng, n):
    """n poses, each drawn as a normal position and then a uniform heading."""
    return np.array([[*rng.normal(size=2), rng.uniform(-math.pi, math.pi)] for _ in range(n)])


class TestOutputJacobian:
    def test_heading_zero_matches_table_constants(self, geom):
        (jac,) = output_jacobians(np.zeros((1, 3)), geom)
        expected = np.array([[0.008, 0.008], [-0.03 * 0.016 / 0.105, 0.03 * 0.016 / 0.105]])
        np.testing.assert_allclose(jac, expected, rtol=1e-12)

    def test_determinant_is_rotation_free(self, geom, rng):
        expected = geom.look_ahead * geom.wheel_radius**2 / geom.base_length
        for jac in output_jacobians(random_poses(rng, 20), geom):
            assert np.linalg.det(jac) == pytest.approx(expected)

    def test_periodic_in_heading(self, geom):
        theta = 0.4321
        poses = np.array([[0.0, 0.0, theta], [0.0, 0.0, theta + 2.0 * math.pi]])
        a, b = output_jacobians(poses, geom)
        np.testing.assert_allclose(a, b, atol=1e-12)

    def test_inverse_times_itself_is_identity(self, geom, rng):
        for jac in output_jacobians(random_poses(rng, 50), geom):
            np.testing.assert_allclose(
                np.linalg.inv(jac) @ jac, np.eye(2), atol=1e-10
            )

    def test_matches_finite_differences_through_the_step(self, geom, rng):
        # d/du of (output of one Euler step) equals dt * the output Jacobian
        # to leading order; divide the central difference by dt to compare.
        dt = 1e-3
        poses = random_poses(rng, 100)
        for pose, jac in zip(poses, output_jacobians(poses, geom)):
            state = RobotState(*pose)

            def through_step(u):
                nxt = step_dynamics(
                    state, WheelCommand(u[0], u[1]), np.zeros(2), dt, geom
                )
                return output_point(nxt, geom)

            fd = fd_jacobian(through_step, np.zeros(2), eps=1.0) / dt
            err = np.abs(fd - jac).max() / np.abs(jac).max()
            assert err < 1e-5


class TestStepDynamics:
    def test_equilibrium(self, geom):
        state = RobotState(0.3, -0.2, 0.8)
        nxt = step_dynamics(state, WheelCommand(0.0, 0.0), np.zeros(2), 0.01, geom)
        assert nxt == state

    def test_straight_line_motion(self, geom):
        state = RobotState(0.0, 0.0, 0.0)
        nxt = step_dynamics(state, WheelCommand(25.0, 25.0), np.zeros(2), 0.01, geom)
        assert nxt.x1 == pytest.approx(0.004)
        assert nxt.x2 == 0.0
        assert nxt.theta == pytest.approx(0.0, abs=1e-15)

    def test_disturbance_alone_drives_the_plant(self, geom):
        state = RobotState(0.0, 0.0, 0.0)
        nxt = step_dynamics(state, WheelCommand(0.0, 0.0), np.array([5.0, 5.0]), 0.01, geom)
        assert nxt.x1 == pytest.approx(0.0008)

    def test_step_is_exactly_affine_in_the_disturbance(self, geom, rng):
        # Bit-level: disturbed step == undisturbed step + dt * B(theta) G d.
        gearing = wheel_matrix(geom)
        for _ in range(50):
            state = RobotState(*rng.normal(size=2), rng.uniform(-1.0, 1.0))
            u = WheelCommand(*rng.uniform(-25.0, 25.0, size=2))
            d = rng.uniform(-5.0, 5.0, size=2)
            dt = 0.005
            c, s = math.cos(state.theta), math.sin(state.theta)
            body = np.array([[c, 0.0], [s, 0.0], [0.0, 1.0]])
            shift = dt * (body @ (gearing @ d))

            undisturbed = step_dynamics(state, u, np.zeros(2), dt, geom)
            disturbed = step_dynamics(state, u, d, dt, geom)
            expected = undisturbed.as_array() + shift
            assert disturbed.as_array().tolist() == expected.tolist()

    def test_rejects_bad_inputs(self, geom):
        state = RobotState(0.0, 0.0, 0.0)
        u = WheelCommand(1.0, 1.0)
        with pytest.raises(ValueError):
            step_dynamics(state, u, np.array([math.nan, 0.0]), 0.01, geom)
        with pytest.raises(ValueError):
            step_dynamics(state, u, np.zeros(2), -0.01, geom)
        with pytest.raises(ValueError):
            step_dynamics(state, u, np.zeros(2), 0.01, geom, method="leapfrog")

    def test_rk4_agrees_with_euler_to_first_order(self, geom):
        state = RobotState(0.0, 0.0, 0.3)
        u = WheelCommand(20.0, 10.0)
        d = np.array([1.0, -1.0])
        a = step_dynamics(state, u, d, 1e-4, geom, method="euler")
        b = step_dynamics(state, u, d, 1e-4, geom, method="rk4")
        np.testing.assert_allclose(a.as_array(), b.as_array(), atol=1e-8)

    def test_rk4_converges_faster_on_a_turn(self, geom):
        state = RobotState(0.0, 0.0, 0.0)
        u = WheelCommand(25.0, 5.0)
        d = np.zeros(2)

        def integrate(method, dt, steps):
            s = state
            for _ in range(steps):
                s = step_dynamics(s, u, d, dt, geom, method=method)
            return s.as_array()

        reference = integrate("rk4", 1e-4, 10_000)
        euler_err = np.abs(integrate("euler", 0.01, 100) - reference).max()
        rk4_err = np.abs(integrate("rk4", 0.01, 100) - reference).max()
        assert rk4_err < euler_err / 100.0


class TestStepEnsemble:
    @pytest.mark.parametrize("method", ["euler", "rk4"])
    def test_matches_step_dynamics_bit_for_bit(self, geom, rng, method):
        n = 300
        # Headings near the cut, so that some robots cross +-pi in one step.
        theta = np.concatenate(
            [rng.uniform(-math.pi, math.pi, n - 100), rng.uniform(math.pi - 0.01, math.pi, 100)]
        )
        theta[-50:] *= -1.0
        poses = np.column_stack([rng.normal(size=(n, 2)), theta])
        commands = rng.uniform(-25.0, 25.0, size=(n, 2))
        draws = rng.uniform(-5.0, 5.0, size=(n, 2))
        batched = step_ensemble(poses, commands, draws, 0.05, geom, method)
        crossed = np.sign(batched[:, 2]) != np.sign(poses[:, 2])
        assert (crossed & (np.abs(poses[:, 2]) > 3.0)).any()
        for k in range(n):
            single = step_dynamics(
                RobotState(*poses[k]), WheelCommand(*commands[k]), draws[k], 0.05, geom, method
            )
            assert single.as_array().tolist() == batched[k].tolist()

    def test_does_not_modify_its_input(self, geom, rng):
        poses = np.array([[0.0, 0.0, math.pi], [1.0, 1.0, -3.1]])
        before = poses.copy()
        step_ensemble(poses, np.full((2, 2), 25.0), np.zeros((2, 2)), 0.1, geom)
        np.testing.assert_array_equal(poses, before)

    def test_rejects_bad_inputs(self, geom):
        poses = np.zeros((2, 3))
        wheels = np.zeros((2, 2))
        with pytest.raises(ValueError):
            step_ensemble(poses, wheels[:1], wheels, 0.01, geom)
        with pytest.raises(ValueError):
            step_ensemble(poses, wheels, np.zeros((2, 3)), 0.01, geom)
        with pytest.raises(ValueError, match="finite"):
            step_ensemble(poses, np.array([[math.nan, 0.0], [0.0, 0.0]]), wheels, 0.01, geom)
        with pytest.raises(ValueError, match="finite"):
            step_ensemble(poses, wheels, np.array([[0.0, 0.0], [math.inf, 0.0]]), 0.01, geom)
        with np.errstate(over="ignore"), pytest.raises(ValueError, match="finite"):
            step_ensemble(poses, np.full((2, 2), 1e308), wheels, 1e10, geom)
        with pytest.raises(ValueError):
            step_ensemble(poses, wheels, wheels, 0.0, geom)
        with pytest.raises(ValueError):
            step_ensemble(poses, wheels, wheels, 0.01, geom, method="leapfrog")


class TestAsPoses:
    def test_states_and_rows_give_the_same_array(self):
        states = [RobotState(0.1, 0.2, 0.3), RobotState(-1.0, 2.0, -3.0)]
        expected = [[0.1, 0.2, 0.3], [-1.0, 2.0, -3.0]]
        assert as_poses(states).tolist() == expected
        assert as_poses(np.array(expected)).tolist() == expected
        assert as_poses([]).shape == (0, 3)

    def test_rejects_bad_shapes_and_values(self):
        for bad in (np.zeros((2, 2)), np.zeros(3), np.zeros((1, 3, 1))):
            with pytest.raises(ValueError, match="shape"):
                as_poses(bad)
        with pytest.raises(ValueError, match="finite"):
            as_poses(np.array([[0.0, math.nan, 0.0]]))


@settings(max_examples=50, deadline=None)
@given(theta=st.floats(min_value=-3.0, max_value=3.0, allow_nan=False))
def test_body_output_matrix_is_the_zero_heading_jacobian(theta):
    geom = RobotGeometry(0.016, 0.105, 0.03)
    (jac,) = output_jacobians(np.array([[0.0, 0.0, theta]]), geom)
    c, s = math.cos(theta), math.sin(theta)
    rot = np.array([[c, -s], [s, c]])
    np.testing.assert_allclose(jac, rot @ body_output_matrix(geom), atol=1e-15)

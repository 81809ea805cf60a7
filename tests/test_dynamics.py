import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from robustcbf import (
    FilterConfig,
    HullUnion,
    RobotGeometry,
    RobotState,
    WheelCommand,
    assemble_constraints,
    filter_step,
    output_point,
    step_dynamics,
)
from robustcbf.dynamics import as_poses, pose_frame, step_ensemble, wrap_angle
from robustcbf.sim import nominal_commands

from .conftest import congested_poses
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
        v, omega = geom.wheel_matrix @ np.array([25.0, 25.0])
        assert v == pytest.approx(0.4)
        assert omega == pytest.approx(0.0)

    def test_opposite_wheels_rotate(self, geom):
        v, omega = geom.wheel_matrix @ np.array([25.0, -25.0])
        assert v == pytest.approx(0.0)
        assert omega == pytest.approx(0.016 * (-50.0) / 0.105)

    def test_zero_input(self, geom):
        assert np.all(geom.wheel_matrix @ np.zeros(2) == 0.0)

    def test_matrices_are_read_only_and_outside_equality(self, geom):
        for matrix in (geom.wheel_matrix, geom.body_output_matrix):
            with pytest.raises(ValueError):
                matrix[0, 0] = 1.0
        twin = RobotGeometry(0.016, 0.105, 0.03)
        assert twin == geom and hash(twin) == hash(geom)
        assert "matrix" not in repr(geom)
        with pytest.raises(TypeError):
            RobotGeometry(0.016, 0.105, 0.03, wheel_matrix=np.eye(2))

    def test_replace_rebuilds_both_matrices(self, geom):
        longer = replace(geom, look_ahead=0.06)
        assert longer.wheel_matrix.tolist() == geom.wheel_matrix.tolist()
        expected = np.diag([1.0, 0.06]) @ geom.wheel_matrix
        assert longer.body_output_matrix.tolist() == expected.tolist()


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
        (jac,) = pose_frame(np.zeros((1, 3)), geom).jacobians
        expected = np.array([[0.008, 0.008], [-0.03 * 0.016 / 0.105, 0.03 * 0.016 / 0.105]])
        np.testing.assert_allclose(jac, expected, rtol=1e-12)

    def test_determinant_is_rotation_free(self, geom, rng):
        expected = geom.look_ahead * geom.wheel_radius**2 / geom.base_length
        for jac in pose_frame(random_poses(rng, 20), geom).jacobians:
            assert np.linalg.det(jac) == pytest.approx(expected)

    def test_periodic_in_heading(self, geom):
        theta = 0.4321
        poses = np.array([[0.0, 0.0, theta], [0.0, 0.0, theta + 2.0 * math.pi]])
        a, b = pose_frame(poses, geom).jacobians
        np.testing.assert_allclose(a, b, atol=1e-12)

    def test_inverse_times_itself_is_identity(self, geom, rng):
        for jac in pose_frame(random_poses(rng, 50), geom).jacobians:
            np.testing.assert_allclose(
                np.linalg.inv(jac) @ jac, np.eye(2), atol=1e-10
            )

    def test_matches_finite_differences_through_the_step(self, geom, rng):
        # d/du of (output of one Euler step) equals dt * the output Jacobian
        # to leading order; divide the central difference by dt to compare.
        dt = 1e-3
        poses = random_poses(rng, 100)
        for pose, jac in zip(poses, pose_frame(poses, geom).jacobians):
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
        gearing = geom.wheel_matrix
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
            expected = as_poses([undisturbed])[0] + shift
            assert as_poses([disturbed])[0].tolist() == expected.tolist()

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
        np.testing.assert_allclose(as_poses([a])[0], as_poses([b])[0], atol=1e-8)

    def test_rk4_converges_faster_on_a_turn(self, geom):
        state = RobotState(0.0, 0.0, 0.0)
        u = WheelCommand(25.0, 5.0)
        d = np.zeros(2)

        def integrate(method, dt, steps):
            s = state
            for _ in range(steps):
                s = step_dynamics(s, u, d, dt, geom, method=method)
            return as_poses([s])[0]

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
            assert as_poses([single])[0].tolist() == batched[k].tolist()

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

    def test_a_list_of_lists_is_refused(self, geom, params, box5):
        # Only an (n, k) array or a sequence of the dataclasses is accepted.
        rows, wheels = [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]], [[1.0, 2.0], [3.0, 4.0]]
        cfg = FilterConfig(geom, params, HullUnion((box5,)), u_max=25.0)
        for bad in (rows, 5, None):
            with pytest.raises(ValueError, match="sequence of RobotState"):
                as_poses(bad)
        with pytest.raises(ValueError, match="sequence of RobotState"):
            pose_frame(rows, geom)
        with pytest.raises(ValueError, match="sequence of RobotState"):
            filter_step(rows, np.array(wheels), cfg)
        with pytest.raises(ValueError, match="sequence of WheelCommand"):
            filter_step(np.array(rows), wheels, cfg)


class TestPoseFrame:
    """One PoseFrame per step serves the controller, the filter and the
    plant: each gives the bits it gives for the pose array or the
    RobotState list, and refuses a frame of another geometry."""

    def inputs(self, rng, geom, n=12):
        poses = congested_poses(rng, geom, n=n, radius=0.4)
        poses[:3, 2] = [math.pi, -math.pi + 1e-9, math.pi - 1e-9]
        return poses, [RobotState(*p) for p in poses], pose_frame(poses, geom)

    def test_every_form_gives_the_same_bits(self, geom, params, box5, rng):
        cfg = FilterConfig(geom, params, HullUnion((box5,)), 25.0)
        goals = rng.uniform(-0.5, 0.5, size=(12, 2))
        for _ in range(3):
            poses, states, frame = self.inputs(rng, geom)
            commands = [nominal_commands(x, goals, 1.0, geom, 25.0) for x in (poses, states, frame)]
            assert commands[0].tobytes() == commands[1].tobytes() == commands[2].tobytes()
            results = [filter_step(x, commands[0], cfg) for x in (poses, states, frame)]
            for result in results[1:]:
                assert result.solver.u_star.tobytes() == results[0].solver.u_star.tobytes()
                assert result.constraints.A.tobytes() == results[0].constraints.A.tobytes()
                assert result.constraints.b.tobytes() == results[0].constraints.b.tobytes()
                assert result.min_h == results[0].min_h
            stacks = [
                assemble_constraints(x, geom, params, cfg.disturbance, 25.0)
                for x in (poses, states, frame)
            ]
            for stack in stacks[1:]:
                assert stack.A.tobytes() == stacks[0].A.tobytes()
                assert stack.b.tobytes() == stacks[0].b.tobytes()
                assert stack.h_pairs.tobytes() == stacks[0].h_pairs.tobytes()
            wheels = results[0].solver.u_star.reshape(-1, 2)
            draws = rng.uniform(-5.0, 5.0, size=wheels.shape)
            for method in ("euler", "rk4"):
                stepped = [
                    step_ensemble(x, wheels, draws, 0.05, geom, method)
                    for x in (poses, states, frame)
                ]
                assert stepped[0].tobytes() == stepped[1].tobytes() == stepped[2].tobytes()

    def test_frame_matches_its_parts(self, geom, rng):
        poses, _, frame = self.inputs(rng, geom)
        assert frame.poses.tobytes() == poses.tobytes()
        assert frame.cos.tobytes() == np.cos(poses[:, 2]).tobytes()
        assert frame.sin.tobytes() == np.sin(poses[:, 2]).tobytes()
        for k, pose in enumerate(poses):
            assert frame.outputs[k].tolist() == output_point(RobotState(*pose), geom).tolist()
        assert pose_frame(frame, geom) is frame
        for arr in (frame.poses, frame.cos, frame.sin, frame.outputs, frame.jacobians):
            assert not arr.flags.writeable

    def test_another_geometry_is_refused(self, geom, params, box5, rng):
        other = RobotGeometry(geom.wheel_radius, geom.base_length, 2.0 * geom.look_ahead)
        cfg = FilterConfig(other, params, HullUnion((box5,)), 25.0)
        _, _, frame = self.inputs(rng, geom)
        wheels = np.zeros((12, 2))
        same = RobotGeometry(geom.wheel_radius, geom.base_length, geom.look_ahead)
        assert pose_frame(frame, same) is frame
        calls = (
            lambda: pose_frame(frame, other),
            lambda: nominal_commands(frame, np.zeros((12, 2)), 1.0, other, 25.0),
            lambda: filter_step(frame, wheels, cfg),
            lambda: assemble_constraints(frame, other, params, cfg.disturbance, 25.0),
            lambda: step_ensemble(frame, wheels, wheels, 0.05, other),
            lambda: step_ensemble(frame, wheels, wheels, 0.05, other, "rk4"),
        )
        for call in calls:
            with pytest.raises(ValueError, match="another RobotGeometry"):
                call()


@settings(max_examples=50, deadline=None)
@given(theta=st.floats(min_value=-3.0, max_value=3.0, allow_nan=False))
def test_body_output_matrix_is_the_zero_heading_jacobian(theta):
    geom = RobotGeometry(0.016, 0.105, 0.03)
    (jac,) = pose_frame(np.array([[0.0, 0.0, theta]]), geom).jacobians
    c, s = math.cos(theta), math.sin(theta)
    rot = np.array([[c, -s], [s, c]])
    np.testing.assert_allclose(jac, rot @ geom.body_output_matrix, atol=1e-15)

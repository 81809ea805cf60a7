import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from robustcbf import (
    BarrierParams,
    DisturbanceHull,
    HullUnion,
    RobotState,
    assemble_constraints,
    class_k_cubic,
    pairwise_h_grad,
    pooled_vertices,
    support_min,
    support_min_rows,
    symmetric_box,
)
from robustcbf.barrier import pair_h_values
from robustcbf.dynamics import as_poses, output_jacobians, output_points

from .conftest import U_MAX
from .oracles import fd_jacobian, support_min_enum

coord = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False)


def random_states(rng, n, spread=1.0):
    return [
        RobotState(
            float(rng.uniform(-spread, spread)),
            float(rng.uniform(-spread, spread)),
            float(rng.uniform(-math.pi, math.pi)),
        )
        for _ in range(n)
    ]


class TestBarrierParams:
    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            BarrierParams(delta=0.0, gamma=150.0)
        with pytest.raises(ValueError):
            BarrierParams(delta=0.12, gamma=-1.0)


class TestPairwiseH:
    def test_boundary_contact(self, params):
        h = pair_h_values(np.array([[0.0, 0.0]]), np.array([[0.12, 0.0]]), params)
        assert h == pytest.approx([0.0])

    def test_unit_separation(self, params):
        p_i, p_j = np.array([[0.0, 0.0], [0.5, 2.0]]), np.array([[1.0, 0.0], [0.5, 1.0]])
        h = pair_h_values(p_i, p_j, params)
        assert h == pytest.approx([0.9856, 0.9856])

    @settings(max_examples=100, deadline=None)
    @given(ax=coord, ay=coord, bx=coord, by=coord)
    def test_symmetric_in_the_pair(self, ax, ay, bx, by):
        params = BarrierParams(delta=0.12, gamma=150.0)
        a, b = np.array([[ax, ay]]), np.array([[bx, by]])
        np.testing.assert_array_equal(pair_h_values(a, b, params), pair_h_values(b, a, params))


class TestPairwiseGrad:
    def test_unit_offset(self):
        grad_i, grad_j = pairwise_h_grad([1.0, 0.0], [0.0, 0.0])
        np.testing.assert_array_equal(grad_i, [2.0, 0.0])
        np.testing.assert_array_equal(grad_j, [-2.0, 0.0])

    def test_coincident_points_degenerate(self):
        grad_i, grad_j = pairwise_h_grad([0.3, -0.4], [0.3, -0.4])
        np.testing.assert_array_equal(grad_i, [0.0, 0.0])
        np.testing.assert_array_equal(grad_j, [0.0, 0.0])

    @settings(max_examples=100, deadline=None)
    @given(ax=coord, ay=coord, bx=coord, by=coord)
    def test_antisymmetry_is_exact(self, ax, ay, bx, by):
        grad_i, grad_j = pairwise_h_grad([ax, ay], [bx, by])
        assert np.all(grad_i == -grad_j)

    def test_matches_finite_differences(self, params, rng):
        for _ in range(100):
            p_i = rng.uniform(-2.0, 2.0, size=2)
            p_j = rng.uniform(-2.0, 2.0, size=2)
            grad_i, grad_j = pairwise_h_grad(p_i, p_j)
            fd_i = fd_jacobian(lambda p: pair_h_values(p[None], p_j[None], params), p_i, 1e-5)[0]
            fd_j = fd_jacobian(lambda p: pair_h_values(p_i[None], p[None], params), p_j, 1e-5)[0]
            np.testing.assert_allclose(grad_i, fd_i, atol=1e-7)
            np.testing.assert_allclose(grad_j, fd_j, atol=1e-7)


class TestClassK:
    def test_anchored_at_zero(self):
        assert class_k_cubic(0.0, 150.0) == 0.0

    def test_table_gain(self):
        assert class_k_cubic(0.1, 150.0) == pytest.approx(0.15)

    def test_odd(self):
        assert class_k_cubic(-0.1, 150.0) == pytest.approx(-0.15)

    def test_strictly_increasing(self):
        values = [class_k_cubic(h, 150.0) for h in np.linspace(-1.0, 1.0, 21)]
        assert all(b > a for a, b in zip(values, values[1:]))


class TestRobustMargin:
    """The margin of a pair row is support_min_rows of z = grad_i @ g_i +
    grad_j @ g_j, its two robots' input directions combined."""

    def test_zero_hull_recovers_non_robust(self, rng):
        grad_i = rng.normal(size=2)
        g = rng.normal(size=(2, 2))
        z = grad_i @ g + (-grad_i) @ g
        assert support_min_rows(z[None], symmetric_box(0.0))[0] == 0.0

    def test_constructed_unit_direction(self):
        # grad_i = (1, 1) through identity Jacobians, grad_j = 0.
        z = np.array([1.0, 1.0]) @ np.eye(2) + np.zeros(2) @ np.eye(2)
        assert support_min_rows(z[None], symmetric_box(5.0))[0] == -10.0

    def test_matches_vertex_enumeration(self, rng, box5):
        grads_i, grads_j = rng.normal(size=(2, 100, 2))
        jac_i, jac_j = rng.normal(size=(2, 100, 2, 2))
        z = np.einsum("ka,kab->kb", grads_i, jac_i) + np.einsum("ka,kab->kb", grads_j, jac_j)
        margins = support_min_rows(z, box5)
        for got, z_row in zip(margins, z):
            expected = support_min_enum(z_row, box5.vertices)
            assert got == pytest.approx(expected, rel=1e-12, abs=1e-12)
            assert got == pytest.approx(-5.0 * (abs(z_row[0]) + abs(z_row[1])), rel=1e-9)


class TestAssembleConstraints:
    def test_single_robot_has_no_rows(self, geom, params, box5):
        cs = assemble_constraints(
            [RobotState(0.0, 0.0, 0.0)], geom, params, HullUnion((box5,)), U_MAX
        )
        assert cs.A.shape == (0, 2)
        assert cs.b.shape == (0,)
        assert cs.u_max == U_MAX

    def test_two_robots_one_hull_one_row(self, geom, params, box5, rng):
        cs = assemble_constraints(
            random_states(rng, 2), geom, params, HullUnion((box5,)), U_MAX
        )
        assert cs.A.shape == (1, 4)
        assert cs.b.shape == (1,)

    def test_row_count_for_twenty_two_robots(self, geom, params, box5, rng):
        cs = assemble_constraints(
            random_states(rng, 22, spread=3.0), geom, params, HullUnion((box5,)), U_MAX
        )
        assert cs.A.shape == (231, 44)

    def test_rows_match_scalar_operations(self, geom, params, box5, rng):
        union = HullUnion((box5,))
        states = random_states(rng, 5)
        cs = assemble_constraints(states, geom, params, union, U_MAX)
        outputs = output_points(as_poses(states), geom)
        jacobians = output_jacobians(as_poses(states), geom)
        row = 0
        for i in range(4):
            for j in range(i + 1, 5):
                grad_i, grad_j = pairwise_h_grad(outputs[i], outputs[j])
                h = pair_h_values(outputs[i : i + 1], outputs[j : j + 1], params)[0]
                z = grad_i @ jacobians[i] + grad_j @ jacobians[j]
                margin = support_min_enum(z, box5.vertices)
                expected_b = -class_k_cubic(h, params.gamma) - margin
                np.testing.assert_allclose(
                    cs.A[row, 2 * i : 2 * i + 2], grad_i @ jacobians[i], rtol=1e-12, atol=1e-15
                )
                np.testing.assert_allclose(
                    cs.A[row, 2 * j : 2 * j + 2], grad_j @ jacobians[j], rtol=1e-12, atol=1e-15
                )
                assert cs.b[row] == pytest.approx(expected_b, rel=1e-12, abs=1e-15)
                assert cs.h_pairs[row] == pytest.approx(h, rel=1e-12)
                assert tuple(cs.pairs[row]) == (i, j)
                row += 1

    def test_row_sparsity(self, geom, params, box5, rng):
        states = random_states(rng, 6)
        cs = assemble_constraints(states, geom, params, HullUnion((box5,)), U_MAX)
        for row in range(cs.rows):
            i, j = cs.pairs[row]
            mask = np.ones(12, dtype=bool)
            mask[[2 * i, 2 * i + 1, 2 * j, 2 * j + 1]] = False
            assert np.all(cs.A[row, mask] == 0.0)
            assert np.count_nonzero(cs.A[row]) <= 4

    def test_zero_disturbance_reduction(self, geom, params, rng):
        states = random_states(rng, 4)
        robust = assemble_constraints(
            states, geom, params, HullUnion((symmetric_box(0.0),)), U_MAX
        )
        h = robust.h_pairs
        np.testing.assert_allclose(robust.b, -params.gamma * h**3, atol=1e-15)

    def test_monotone_conservatism_in_the_box_width(self, geom, params, rng):
        states = random_states(rng, 5)
        widths = [0.0, 1.0, 5.0, 12.0]
        stacks = [
            assemble_constraints(
                states, geom, params, HullUnion((symmetric_box(w),)), U_MAX
            ).b
            for w in widths
        ]
        for smaller, larger in zip(stacks, stacks[1:]):
            assert np.all(larger >= smaller)

    def test_union_assembly_is_one_row_per_pair(self, geom, params, rng):
        states = random_states(rng, 5)
        hulls = (
            symmetric_box(2.0),
            DisturbanceHull(rng.normal(scale=4.0, size=(7, 2))),
            DisturbanceHull(rng.normal(scale=4.0, size=(3, 2))),
        )
        union = HullUnion(hulls)
        cs = assemble_constraints(states, geom, params, union, U_MAX)
        single = assemble_constraints(states, geom, params, HullUnion(hulls[:1]), U_MAX)
        pooled = assemble_constraints(
            states, geom, params, HullUnion((DisturbanceHull(pooled_vertices(union)),)), U_MAX
        )
        assert cs.rows == 10
        np.testing.assert_array_equal(cs.A, single.A)
        np.testing.assert_array_equal(cs.pairs, single.pairs)
        np.testing.assert_array_equal(cs.b, pooled.b)

    def test_rejects_empty_and_checks_support_min_consistency(self, geom, params, box5):
        with pytest.raises(ValueError):
            assemble_constraints([], geom, params, HullUnion((box5,)), U_MAX)

    def test_min_pairwise_h_matches_scalar_minimum(self, geom, params, rng):
        from robustcbf import min_pairwise_h

        states = random_states(rng, 5)
        outputs = output_points(as_poses(states), geom)
        expected = min(
            pair_h_values(outputs[i : i + 1], outputs[j : j + 1], params)[0]
            for i in range(4)
            for j in range(i + 1, 5)
        )
        assert min_pairwise_h(states, geom, params) == pytest.approx(expected, rel=1e-12)
        assert min_pairwise_h(states[:1], geom, params) == math.inf

    def test_margin_equals_support_min_of_row_blocks(self, geom, params, box5, rng):
        # The rhs decomposes back into the class-K term plus the row's margin.
        states = random_states(rng, 4)
        cs = assemble_constraints(states, geom, params, HullUnion((box5,)), U_MAX)
        for row in range(cs.rows):
            i, j = cs.pairs[row]
            z = cs.A[row, 2 * i : 2 * i + 2] + cs.A[row, 2 * j : 2 * j + 2]
            margin = support_min(z, box5)
            h = cs.h_pairs[row]
            assert cs.b[row] == pytest.approx(
                -params.gamma * h**3 - margin, rel=1e-12, abs=1e-15
            )

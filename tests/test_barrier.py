import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from robustcbf import (
    BarrierParams,
    DisturbanceHull,
    FilterConfig,
    HullUnion,
    RobotState,
    assemble_constraints,
    class_k_cubic,
    filter_step,
    pooled_vertices,
    support_min,
    support_min_rows,
    symmetric_box,
)
from robustcbf.barrier import pair_h_values
from robustcbf.dynamics import as_poses, pose_frame

from .conftest import U_MAX, congested_poses, ring_hulls
from .oracles import fd_jacobian, pair_h_gradient, reference_assembly, support_min_enum

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
    """The scalar gradient oracle that pins the assembled rows."""

    def test_unit_offset(self):
        grad_i, grad_j = pair_h_gradient([1.0, 0.0], [0.0, 0.0])
        np.testing.assert_array_equal(grad_i, [2.0, 0.0])
        np.testing.assert_array_equal(grad_j, [-2.0, 0.0])

    def test_coincident_points_degenerate(self):
        grad_i, grad_j = pair_h_gradient([0.3, -0.4], [0.3, -0.4])
        np.testing.assert_array_equal(grad_i, [0.0, 0.0])
        np.testing.assert_array_equal(grad_j, [0.0, 0.0])

    @settings(max_examples=100, deadline=None)
    @given(ax=coord, ay=coord, bx=coord, by=coord)
    def test_antisymmetry_is_exact(self, ax, ay, bx, by):
        grad_i, grad_j = pair_h_gradient([ax, ay], [bx, by])
        assert np.all(grad_i == -grad_j)

    def test_matches_finite_differences(self, params, rng):
        for _ in range(100):
            p_i = rng.uniform(-2.0, 2.0, size=2)
            p_j = rng.uniform(-2.0, 2.0, size=2)
            grad_i, grad_j = pair_h_gradient(p_i, p_j)
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
        outputs = pose_frame(as_poses(states), geom).outputs
        jacobians = pose_frame(as_poses(states), geom).jacobians
        row = 0
        for i in range(4):
            for j in range(i + 1, 5):
                grad_i, grad_j = pair_h_gradient(outputs[i], outputs[j])
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

    def test_min_h_matches_scalar_minimum(self, geom, params, box5, rng):
        states = random_states(rng, 5)
        outputs = pose_frame(as_poses(states), geom).outputs
        expected = min(
            pair_h_values(outputs[i : i + 1], outputs[j : j + 1], params)[0]
            for i in range(4)
            for j in range(i + 1, 5)
        )
        union = HullUnion((box5,))
        cfg = FilterConfig(geom, params, union, U_MAX)
        commands = np.zeros((5, 2))
        cs = assemble_constraints(states, geom, params, union, U_MAX)
        assert cs.h_pairs.min() == pytest.approx(expected, rel=1e-12)
        assert filter_step(states, commands, cfg).min_h == pytest.approx(expected, rel=1e-12)
        assert filter_step(states[:1], commands[:1], cfg).min_h == math.inf

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

    @pytest.mark.xfail(
        strict=True,
        reason="the margin takes one offset for both robots of a pair: equal headings "
        "give z_i + z_j = 0 and a zero margin whatever the hull",
    )
    def test_margin_covers_each_robots_own_offset(self, geom, params):
        # Each robot of the pair may slip by its own point of the hull, so the
        # row must hold against the worst of each block separately.
        box = symmetric_box(5.0)
        states = np.array([[0.0, 0.0, 0.7], [0.5, 0.2, 0.7]])
        cs = assemble_constraints(states, geom, params, HullUnion((box,)), U_MAX)
        z_i, z_j = cs.A[:, 0:2], cs.A[:, 2:4]
        margin = -class_k_cubic(cs.h_pairs[0], params.gamma) - cs.b[0]
        decoupled = support_min_rows(z_i, box)[0] + support_min_rows(z_j, box)[0]
        assert margin <= decoupled


def bits(values) -> np.ndarray:
    return np.asarray(values, dtype=float).view(np.int64)


class TestAssemblyOracle:
    """The one pass over every ordered pair against the frozen gather-based
    assembly: the same int64 bits of A, b, h_pairs and pairs."""

    def assert_same_bits(self, poses, geom, params, union):
        cs = assemble_constraints(poses, geom, params, union, U_MAX)
        A, b, h, pairs = reference_assembly(poses, geom, params, union)
        np.testing.assert_array_equal(bits(cs.A), bits(A))
        np.testing.assert_array_equal(bits(cs.b), bits(b))
        np.testing.assert_array_equal(bits(cs.h_pairs), bits(h))
        np.testing.assert_array_equal(cs.pairs, pairs)
        assert cs.A.shape == A.shape
        # The worst-case plant reads z_rows for the sum of each row's blocks.
        blocks = cs.A.reshape(cs.rows, cs.A.shape[1] // 2, 2)
        rows = np.arange(cs.rows)
        z_rows = blocks[rows, cs.pairs[:, 0]] + blocks[rows, cs.pairs[:, 1]]
        np.testing.assert_array_equal(bits(cs.z_rows), bits(z_rows))
        assert cs.z_rows.shape == (cs.rows, 2)

    def test_congested_snapshots(self, geom, params, box5, rng):
        for _ in range(5):
            self.assert_same_bits(congested_poses(rng, geom), geom, params, HullUnion((box5,)))

    @pytest.mark.parametrize("n", [1, 2, 3, 22])
    def test_robot_counts(self, geom, params, box5, rng, n):
        poses = as_poses(random_states(rng, n, spread=0.5))
        self.assert_same_bits(poses, geom, params, HullUnion((box5,)))

    def test_headings_that_cross_pi(self, geom, params, box5, rng):
        eps = np.array([0.0, 1e-12, 1e-6, 1e-3])
        theta = np.concatenate([math.pi - eps, -math.pi + eps, [math.pi, -math.pi]])
        poses = np.column_stack([rng.uniform(-0.3, 0.3, size=(theta.size, 2)), theta])
        self.assert_same_bits(poses, geom, params, HullUnion((box5,)))

    def test_three_ring_union(self, geom, params, rng):
        union = HullUnion(ring_hulls(7))
        self.assert_same_bits(congested_poses(rng, geom), geom, params, union)

    def test_coincident_output_points(self, geom, params, box5):
        # Robots 0 and 2 share an output point, so p_0 - p_2 = +0.  The
        # reference negates robot 0's gradient into robot 2's, -0; the pass
        # computes 2 (p_2 - p_0) = +0.  Only the sign of a zero may differ,
        # so A is compared with ==, which takes -0 == +0.
        poses = np.array([[0.0, 0.0, 0.3], [0.5, 0.1, -2.0], [0.0, 0.0, 0.3], [-0.4, 0.2, 3.0]])
        cs = assemble_constraints(poses, geom, params, HullUnion((box5,)), U_MAX)
        A, b, h, pairs = reference_assembly(poses, geom, params, HullUnion((box5,)))
        assert np.all(cs.A == A)
        np.testing.assert_array_equal(bits(cs.b), bits(b))
        np.testing.assert_array_equal(bits(cs.h_pairs), bits(h))
        np.testing.assert_array_equal(cs.pairs, pairs)
        assert cs.h_pairs[1] == -params.delta**2

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from robustcbf import (
    DisturbanceHull,
    HullUnion,
    pooled_vertices,
    sample_hull,
    support_min,
    support_min_rows,
    symmetric_box,
    zero_union,
)
from robustcbf import disturbance
from robustcbf.disturbance import boundary_hull, flat_dirichlet_points

from .conftest import ring_hulls
from .oracles import convex_combination, support_min_enum

finite_coord = st.floats(min_value=-100.0, max_value=100.0, allow_nan=False)


class TestHullTypes:
    def test_requires_at_least_one_vertex(self):
        with pytest.raises(ValueError):
            DisturbanceHull(np.zeros((0, 2)))

    def test_rejects_non_finite_vertices(self):
        with pytest.raises(ValueError):
            DisturbanceHull(np.array([[np.inf, 0.0]]))

    def test_rejects_wrong_width(self):
        with pytest.raises(ValueError):
            DisturbanceHull(np.array([[1.0, 2.0, 3.0]]))

    def test_vertices_are_read_only(self):
        hull = symmetric_box(1.0)
        with pytest.raises(ValueError):
            hull.vertices[0, 0] = 2.0

    def test_union_needs_a_hull(self):
        with pytest.raises(ValueError):
            HullUnion(())
        with pytest.raises(TypeError):
            HullUnion((np.zeros((1, 2)),))


class TestSymmetricBox:
    def test_zero_degenerates_to_origin(self):
        hull = symmetric_box(0.0)
        assert hull.size == 4
        assert np.all(hull.vertices == 0.0)

    def test_table_value(self):
        hull = symmetric_box(5.0)
        expected = {(5.0, 5.0), (5.0, -5.0), (-5.0, 5.0), (-5.0, -5.0)}
        assert {tuple(v) for v in hull.vertices} == expected

    def test_unit_box(self):
        hull = symmetric_box(1.0)
        np.testing.assert_array_equal(
            hull.vertices, [[1, 1], [1, -1], [-1, 1], [-1, -1]]
        )

    def test_rejects_negative_width(self):
        with pytest.raises(ValueError):
            symmetric_box(-1.0)


class TestSupportMin:
    def test_zero_direction(self, box5, rng):
        assert support_min(np.zeros(2), box5) == 0.0
        cloud = DisturbanceHull(rng.normal(size=(7, 2)))
        assert support_min(np.zeros(2), cloud) == 0.0

    def test_box_corner(self, box5):
        assert support_min(np.array([1.0, 1.0]), box5) == -10.0

    def test_matches_closed_form_for_the_box(self, rng):
        # Oracle: enumerate all four vertices; closed form -w(|a| + |b|).
        for _ in range(100):
            a, b = rng.uniform(-10.0, 10.0, size=2)
            value = support_min(np.array([a, b]), symmetric_box(5.0))
            assert value == support_min_enum([a, b], symmetric_box(5.0).vertices)
            assert value == pytest.approx(-5.0 * (abs(a) + abs(b)))

    def test_rejects_non_finite_direction(self, box5):
        with pytest.raises(ValueError):
            support_min(np.array([np.nan, 0.0]), box5)

    @settings(max_examples=100, deadline=None)
    @given(
        z1=finite_coord,
        z2=finite_coord,
        scale=st.floats(min_value=1e-3, max_value=1e3, allow_nan=False),
    )
    def test_positive_homogeneity(self, z1, z2, scale):
        hull = symmetric_box(3.0)
        z = np.array([z1, z2])
        lhs = support_min(scale * z, hull)
        rhs = scale * support_min(z, hull)
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    def test_permutation_invariance(self, seed):
        rng = np.random.default_rng(seed)
        vertices = rng.normal(size=(6, 2))
        z = rng.normal(size=2)
        base = support_min(z, DisturbanceHull(vertices))
        shuffled = vertices[rng.permutation(6)]
        assert support_min(z, DisturbanceHull(shuffled)) == base


class TestSupportDominance:
    def test_thousand_random_pairs(self, rng):
        shapes = [
            symmetric_box(5.0),
            DisturbanceHull(rng.normal(scale=4.0, size=(9, 2))),
            DisturbanceHull(np.array([[0.0, 0.0]])),
            DisturbanceHull(np.array([[1.0, 2.0], [3.0, 6.0], [2.0, 4.0]])),
        ]
        for hull in shapes:
            for _ in range(1000):
                z = rng.normal(size=2)
                d = convex_combination(hull.vertices, rng)
                assert float(z @ d) >= support_min(z, hull) - 1e-12


class TestUnion:
    """Per-hull margins are support_min_rows over each hull of the union."""

    def test_singleton_reduces_to_support_min(self, box5):
        z = np.array([0.3, -0.7])
        (hull,) = HullUnion((box5,)).hulls
        assert support_min_rows(z[None], hull).tolist() == [support_min(z, box5)]

    def test_per_box_minima(self):
        union = HullUnion((symmetric_box(5.0), symmetric_box(3.0)))
        directions = np.array([[1.0, 0.0]])
        assert [support_min_rows(directions, hull)[0] for hull in union.hulls] == [-5.0, -3.0]

    def test_min_equals_pooled_support_min(self, rng):
        # Union of hulls and its convexification certify identically.
        for _ in range(100):
            q = int(rng.integers(1, 5))
            hulls = tuple(
                DisturbanceHull(rng.normal(scale=3.0, size=(int(rng.integers(1, 7)), 2)))
                for _ in range(q)
            )
            union = HullUnion(hulls)
            z = rng.normal(size=2)
            pooled = DisturbanceHull(pooled_vertices(union))
            per_hull = [support_min_rows(z[None], hull)[0] for hull in union.hulls]
            assert min(per_hull) == support_min(z, pooled)

    def test_zero_union_is_the_origin(self):
        union = zero_union()
        assert union.size == 1
        assert np.all(pooled_vertices(union) == 0.0)


class TestSupportMinRows:
    def test_matches_scalar_routine(self, rng):
        hull = DisturbanceHull(rng.normal(size=(5, 2)))
        rows = rng.normal(size=(11, 2))
        batched = support_min_rows(rows, hull)
        for k in range(11):
            assert batched[k] == support_min(rows[k], hull)

    def test_empty_input(self, box5):
        assert support_min_rows(np.zeros((0, 2)), box5).shape == (0,)

    @pytest.mark.parametrize("p", [1, 4, 37, 64, 256, 4096, 40_000])
    def test_blocks_match_one_full_pass_bit_for_bit(self, rng, monkeypatch, p):
        # From p = 256 on, 231 rows take several blocks (one row per block
        # at p = 40000); neither the blocks nor the layout may change a bit.
        hull = DisturbanceHull(rng.normal(size=(p, 2)))
        verts = hull.vertices
        for vertex_major_points in (p, 0):
            monkeypatch.setattr(disturbance, "_VERTEX_MAJOR_POINTS", vertex_major_points)
            for k in (1, 7, 231):
                rows = rng.normal(size=(k, 2))
                full = rows[:, 0:1] * verts[None, :, 0] + rows[:, 1:2] * verts[None, :, 1]
                np.testing.assert_array_equal(
                    support_min_rows(rows, hull).view(np.int64),
                    full.min(axis=1).view(np.int64),
                )


class TestSampleHull:
    def test_worst_case_box_corner(self, box5):
        d = sample_hull(box5, "worst-case", direction=np.array([1.0, 1.0]))
        np.testing.assert_array_equal(d, [-5.0, -5.0])

    def test_uniform_convex_respects_dominance(self, box5, rng):
        # 1000 samples, each checked against vertex enumeration.
        directions = rng.normal(size=(20, 2))
        for _ in range(1000):
            d = sample_hull(box5, "uniform-convex", rng=rng)
            for z in directions:
                assert float(z @ d) >= support_min_enum(z, box5.vertices) - 1e-12

    def test_degenerate_hull_returns_origin_in_every_mode(self, rng):
        hull = DisturbanceHull(np.array([[0.0, 0.0]]))
        np.testing.assert_array_equal(
            sample_hull(hull, "uniform-convex", rng=rng), [0.0, 0.0]
        )
        np.testing.assert_array_equal(
            sample_hull(hull, "worst-case", direction=np.array([1.0, 0.0])), [0.0, 0.0]
        )
        np.testing.assert_array_equal(sample_hull(hull, "vertex", index=0), [0.0, 0.0])

    def test_vertex_mode_bounds(self, box5):
        np.testing.assert_array_equal(sample_hull(box5, "vertex", index=1), [5.0, -5.0])
        with pytest.raises(IndexError):
            sample_hull(box5, "vertex", index=4)

    def test_mode_argument_validation(self, box5, rng):
        with pytest.raises(ValueError):
            sample_hull(box5, "uniform-convex")
        with pytest.raises(ValueError):
            sample_hull(box5, "worst-case")
        with pytest.raises(ValueError):
            sample_hull(box5, "vertex")
        with pytest.raises(ValueError):
            sample_hull(box5, "gaussian", rng=rng)

    def test_seeded_sampling_is_reproducible(self, box5):
        a = sample_hull(box5, "uniform-convex", rng=np.random.default_rng(99))
        b = sample_hull(box5, "uniform-convex", rng=np.random.default_rng(99))
        np.testing.assert_array_equal(a, b)

    def test_plain_seed_accepted(self, box5):
        a = sample_hull(box5, "uniform-convex", rng=99)
        b = sample_hull(box5, "uniform-convex", rng=np.random.default_rng(99))
        np.testing.assert_array_equal(a, b)

    def test_uniform_convex_is_numpys_dirichlet(self, box5):
        for seed in range(5):
            rng = np.random.default_rng(seed)
            expected = rng.dirichlet(np.ones(4)) @ box5.vertices
            got = sample_hull(box5, "uniform-convex", rng=seed)
            np.testing.assert_array_equal(got.view(np.int64), expected.view(np.int64))


class TestFlatDirichletPoints:
    """The batched plant draws equal per-point rng.dirichlet draws bit for
    bit, in the same order of calls on the generator."""

    @staticmethod
    def per_point(union, n, rng):
        points = np.empty((n, 2))
        for k in range(n):
            hull = union.hulls[int(rng.integers(union.size))] if union.size > 1 else union.hulls[0]
            points[k] = rng.dirichlet(np.ones(hull.size)) @ hull.vertices
        return points

    @pytest.mark.parametrize("n", [1, 2, 22])
    @pytest.mark.parametrize(
        "sizes", [(256,), (1,), (40, 40), (256, 3, 1), (7, 256, 40)],
        ids=["single", "one-point", "equal", "unequal", "unequal-last-longest"],
    )
    def test_equals_per_point_numpy_dirichlet(self, n, sizes):
        points = np.random.default_rng(len(sizes)).normal(scale=3.0, size=(sum(sizes), 2))
        bounds = np.cumsum((0,) + sizes)
        union = HullUnion(
            tuple(DisturbanceHull(points[lo:hi]) for lo, hi in zip(bounds, bounds[1:]))
        )
        for seed in range(10):
            batched, reference = np.random.default_rng(seed), np.random.default_rng(seed)
            for _ in range(3):
                got = flat_dirichlet_points(union, n, batched)
                expected = self.per_point(union, n, reference)
                np.testing.assert_array_equal(got.view(np.int64), expected.view(np.int64))
            # Both generators must stand at the same point of the stream.
            assert batched.random() == reference.random()


def same_minima_bits(hull, reduced, rng, k=2000):
    """Whether support_min_rows gives the same bits on both hulls for k
    nonzero directions with magnitudes from 1e-3 to 1e3."""
    directions = rng.normal(size=(k, 2)) * 10.0 ** rng.uniform(-3.0, 3.0, size=(k, 1))
    full = support_min_rows(directions, hull).view(np.int64)
    return np.array_equal(support_min_rows(directions, reduced).view(np.int64), full)


def is_declared_subsequence(reduced, hull) -> bool:
    rows = iter(hull.vertices.tolist())
    return all(point in rows for point in reduced.vertices.tolist())


class TestBoundaryHull:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_ring_hulls_keep_their_boundary_and_every_bit(self, rng, seed):
        for hull in ring_hulls(seed):
            reduced = boundary_hull(hull)
            assert 3 <= reduced.size < 64
            assert is_declared_subsequence(reduced, hull)
            assert same_minima_bits(hull, reduced, rng)

    @pytest.mark.parametrize("scale", [1e-6, 1.0, 1e6])
    @pytest.mark.parametrize("p", [5, 64, 4096, 40_000])
    def test_gaussian_clouds_keep_every_bit(self, rng, p, scale):
        hull = DisturbanceHull(scale * rng.normal(size=(p, 2)))
        reduced = boundary_hull(hull)
        assert is_declared_subsequence(reduced, hull)
        if p >= 64:
            assert reduced.size < p // 4
        assert same_minima_bits(hull, reduced, rng, k=500 if p > 4096 else 2000)

    @pytest.mark.parametrize("scale", [1e-6, 1e6])
    def test_scaled_rings_keep_every_bit(self, rng, scale):
        for hull in ring_hulls(4, count=2):
            scaled = DisturbanceHull(scale * hull.vertices)
            reduced = boundary_hull(scaled)
            assert reduced.size < 64
            assert same_minima_bits(scaled, reduced, rng)

    def test_depth_below_tau_is_kept(self):
        # tau = 1e-9 * max|v| = 1e-9 for the unit box.
        corners = [[1.0, 1.0], [1.0, -1.0], [-1.0, 1.0], [-1.0, -1.0]]
        shallow, deep = [0.0, 1.0 - 0.5e-9], [0.0, 1.0 - 4e-9]
        hull = DisturbanceHull(np.array(corners + [shallow, deep, [0.0, 0.0]]))
        np.testing.assert_array_equal(boundary_hull(hull).vertices, corners + [shallow])

    def test_edge_midpoints_and_duplicates_are_kept(self, rng):
        box = symmetric_box(2.0)
        assert boundary_hull(box) is box
        midpoints = [[2.0, 0.0], [0.0, 2.0], [-2.0, 0.0], [0.0, -2.0]]
        kept = np.vstack([box.vertices, midpoints, box.vertices[:2], midpoints[:1]])
        assert boundary_hull(DisturbanceHull(kept)).vertices.shape == kept.shape
        hull = DisturbanceHull(np.vstack([kept, [[0.5, -0.5], [0.0, 0.0]]]))
        reduced = boundary_hull(hull)
        np.testing.assert_array_equal(reduced.vertices, kept)
        assert same_minima_bits(hull, reduced, rng)

    @pytest.mark.parametrize(
        "points",
        [
            [[0.0, 0.0], [1.0, 0.0], [0.2, 0.1]],
            [[t, 2.0 * t - 1.0] for t in np.linspace(-3.0, 3.0, 9)],
            [[1.5, -2.5]] * 6,
            [[0.0, 0.0]] * 4,
        ],
        ids=["p3", "collinear", "coincident", "origin"],
    )
    def test_degenerate_hulls_come_back_whole(self, points):
        hull = DisturbanceHull(np.array(points))
        assert boundary_hull(hull) is hull

    def test_input_hull_is_untouched(self):
        hull = ring_hulls(5, count=1)[0]
        before = hull.vertices.copy()
        reduced = boundary_hull(hull)
        assert reduced is not hull
        np.testing.assert_array_equal(hull.vertices, before)
        np.testing.assert_array_equal(hull._columns, before.T)
        assert not hull.vertices.flags.writeable

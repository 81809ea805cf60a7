"""Convex polytopes of wheel-velocity offsets and their support minima."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True, eq=False)
class DisturbanceHull:
    """Finite vertex list whose convex hull models an input disturbance.

    Vertices are stored as given; interior or duplicate points never change a
    support minimum, so the hull itself performs no reduction (the safety
    filter's plan feeds its margin pass boundary_hull's points instead).
    Vertex order is semantically irrelevant.  The margin pass reads the
    two coordinate columns, rows of a contiguous (2, p) copy.
    """

    vertices: np.ndarray

    def __post_init__(self) -> None:
        verts = np.atleast_2d(np.asarray(self.vertices, dtype=float))
        if verts.ndim != 2 or verts.shape[1] != 2 or verts.shape[0] < 1:
            raise ValueError("vertices must form a (p, 2) array with p >= 1")
        if not np.all(np.isfinite(verts)):
            raise ValueError("vertices must be finite")
        verts = verts.copy()
        columns = verts.T.copy()
        for array in (verts, columns):
            array.setflags(write=False)
        object.__setattr__(self, "vertices", verts)
        object.__setattr__(self, "_columns", tuple(columns))

    @property
    def size(self) -> int:
        return self.vertices.shape[0]


@dataclass(frozen=True, eq=False)
class HullUnion:
    """Union of convex hulls.

    A direction's margin over the union is the least of its per-hull support
    minima, which equals the support minimum over the pooled vertices; the
    filter therefore emits one constraint row per robot pair, not per hull.
    """

    hulls: tuple

    def __post_init__(self) -> None:
        hulls = tuple(self.hulls)
        if len(hulls) < 1:
            raise ValueError("a hull union needs at least one hull")
        for hull in hulls:
            if not isinstance(hull, DisturbanceHull):
                raise TypeError(f"expected DisturbanceHull, got {type(hull)!r}")
        object.__setattr__(self, "hulls", hulls)

    @property
    def size(self) -> int:
        return len(self.hulls)


def symmetric_box(half_width: float) -> DisturbanceHull:
    """Four-vertex square hull {(+-w, +-w)} of wheel-speed offsets.

    half_width = 0 degenerates to the origin, recovering the undisturbed
    model.
    """
    if not (math.isfinite(half_width) and half_width >= 0.0):
        raise ValueError(f"half_width must be finite and >= 0, got {half_width!r}")
    w = float(half_width)
    return DisturbanceHull(np.array([[w, w], [w, -w], [-w, w], [-w, -w]]))


def zero_union() -> HullUnion:
    """Single degenerate hull at the origin (no modeled disturbance)."""
    return HullUnion((DisturbanceHull(np.array([[0.0, 0.0]])),))


def boundary_hull(hull: DisturbanceHull) -> DisturbanceHull:
    """The declared points that can attain a computed support minimum, in
    declared order: those at depth <= tau = 1e-9 * max|v| inside the convex
    hull (a monotone chain, then each point's depth against its edges).

    A dropped point q at depth >= tau has z.q >= min + tau |z|_2, while the
    computed z0 v0 + z1 v1 is off by at most about 2u max|v| |z|_1 <
    6.3e-16 max|v| |z|_2 (u = 2**-53, absent underflow).  So for z != 0 no
    dropped point is the computed minimum, and the kept points return the
    same bits.  For z = 0 every value is a zero and only its sign can
    differ.  Hulls of p < 4, collinear or coincident points come back whole.
    """
    verts = hull.vertices
    if verts.shape[0] < 4:
        return hull
    points = sorted(set(map(tuple, verts.tolist())))
    ring = np.array(_half_hull(points)[:-1] + _half_hull(points[::-1])[:-1])
    if not 3 <= ring.shape[0] < len(points):
        return hull
    edges = np.roll(ring, -1, axis=0) - ring
    reach = 1e-9 * np.abs(verts).max() * np.hypot(edges[:, 0], edges[:, 1])
    x, y = hull._columns
    keep = np.zeros(verts.shape[0], dtype=bool)
    for a, e, r in zip(ring, edges, reach):
        keep |= e[0] * (y - a[1]) - e[1] * (x - a[0]) <= r
    return hull if keep.all() else DisturbanceHull(verts[keep])


def _half_hull(points: list) -> list:
    """One monotone chain over sorted points, keeping strict left turns."""
    chain = []
    for qx, qy in points:
        while len(chain) >= 2:
            (ox, oy), (ax, ay) = chain[-2], chain[-1]
            if (ax - ox) * (qy - oy) - (ay - oy) * (qx - ox) > 0.0:
                break
            chain.pop()
        chain.append((qx, qy))
    return chain


def _check_direction(z) -> np.ndarray:
    z = np.asarray(z, dtype=float)
    if z.shape != (2,):
        raise ValueError(f"direction must be a 2-vector, got shape {z.shape}")
    if not np.all(np.isfinite(z)):
        raise ValueError("direction must be finite")
    return z


# Support values are accumulated with elementwise ufuncs rather than matmul:
# BLAS kernels round differently depending on array shape, which would break
# the exact agreement between per-hull and pooled-vertex minima.


def _support_values(z: np.ndarray, vertices: np.ndarray) -> np.ndarray:
    return vertices[:, 0] * z[0] + vertices[:, 1] * z[1]


def support_min(z, hull: DisturbanceHull) -> float:
    """Minimum of z . v over the hull's vertices.

    By convexity this equals the minimum over the whole hull; cost is linear
    in the vertex count.
    """
    z = _check_direction(z)
    return float(_support_values(z, hull.vertices).min())


def support_argmin(z, hull: DisturbanceHull) -> int:
    """Index of the vertex attaining support_min; ties break to the lowest index."""
    z = _check_direction(z)
    return int(np.argmin(_support_values(z, hull.vertices)))


# Up to this many points the (points, rows) layout is faster; on 231 rows
# 31 -> 15 us at p = 4, 69 -> 56 us at p = 64, but 3-8x slower at p = 4096.
_VERTEX_MAJOR_POINTS = 64


def support_min_rows(directions: np.ndarray, hull: DisturbanceHull) -> np.ndarray:
    """Row-wise support minima for a stack of directions (k, 2) -> (k,).

    Runs over blocks of about 2**15 row-vertex products, laid out (points,
    rows) and reduced over the short vertex axis up to _VERTEX_MAJOR_POINTS
    points, else (rows, points) in two reused buffers.  Either layout
    computes d0 v0 + d1 v1 and an exact minimum: the same bits, but for the
    sign of a zero minimum.
    """
    directions = np.atleast_2d(np.asarray(directions, dtype=float))
    k = directions.shape[0]
    v0, v1 = hull._columns
    block = max(1, min(k, (1 << 15) // v0.size))
    out = np.empty(k)
    if v0.size <= _VERTEX_MAJOR_POINTS:
        c0, c1 = v0[:, None], v1[:, None]
        for lo in range(0, k, block):
            d = directions[lo : lo + block]
            a = c0 * d[:, 0]
            a += c1 * d[:, 1]
            a.min(axis=0, out=out[lo : lo + block])
        return out
    values, scratch = np.empty((2, block, v0.size))
    for lo in range(0, k, block):
        d = directions[lo : lo + block]
        a, b = values[: d.shape[0]], scratch[: d.shape[0]]
        np.multiply(d[:, 0:1], v0, out=a)
        a += np.multiply(d[:, 1:2], v1, out=b)
        a.min(axis=1, out=out[lo : lo + block])
    return out


def pooled_vertices(union: HullUnion) -> np.ndarray:
    """All vertices of a union, stacked in declaration order."""
    return np.vstack([hull.vertices for hull in union.hulls])


def flat_dirichlet_points(union: HullUnion, n: int, rng: np.random.Generator) -> np.ndarray:
    """n points (n, 2) of the union.  If there are several hulls, one
    rng.integers(union.size, size=n) call picks every robot's hull first.
    Each point then has the draws and bits of
    rng.dirichlet(np.ones(p)) @ vertices on its hull, robot by robot.

    dirichlet draws p standard exponentials, sums them in order and scales
    by 1 / sum.  Here one standard_exponential call draws every robot's
    exponentials, laid out in a zero-padded (n, p_max) buffer.  Each hull
    then weights its vertices in one stacked (1, p) @ (p, 2) product, which
    numpy rounds like the 1-D w @ vertices; an (n, p) @ (p, 2) gemm does not.
    """
    hulls = union.hulls
    picks = rng.integers(len(hulls), size=n) if len(hulls) > 1 else np.zeros(n, dtype=np.intp)
    hull_sizes = np.array([hull.size for hull in hulls])
    sizes, p_max = hull_sizes[picks], int(hull_sizes.max())
    draws = rng.standard_exponential(int(sizes.sum()))
    if (sizes == p_max).all():
        weights = draws.reshape(n, p_max)
    else:
        weights = np.zeros((n, p_max))
        weights[np.arange(p_max) < sizes[:, None]] = draws
    # A (p, n) array reduced over axis 0 adds one row at a time, the order
    # dirichlet sums in; numpy sums a single column pairwise instead.
    if n > 1:
        totals = np.add.reduce(weights.T.copy(), axis=0)
    else:
        totals = np.add.accumulate(weights, axis=1)[:, -1]
    weights *= (1.0 / totals)[:, None]
    points = np.empty((n, 2))
    for index, hull in enumerate(hulls):
        rows = picks == index
        points[rows] = (weights[rows, None, : hull.size] @ hull.vertices)[:, 0]
    return points


def sample_hull(
    hull: DisturbanceHull,
    mode: str,
    *,
    rng=None,
    direction=None,
    index: int | None = None,
) -> np.ndarray:
    """Realize one point of the hull.

    Modes:
      "uniform-convex"  flat_dirichlet_points: rng.dirichlet(np.ones(p)) @
                        vertices (needs rng: a Generator or an integer seed)
      "worst-case"      vertex attaining support_min along ``direction``
      "vertex"          vertex ``index`` verbatim
    """
    if mode == "uniform-convex":
        if rng is None:
            raise ValueError("uniform-convex sampling needs an rng or seed")
        if not isinstance(rng, np.random.Generator):
            rng = np.random.default_rng(rng)
        return flat_dirichlet_points(HullUnion((hull,)), 1, rng)[0]
    if mode == "worst-case":
        if direction is None:
            raise ValueError("worst-case sampling needs a direction")
        return hull.vertices[support_argmin(direction, hull)].copy()
    if mode == "vertex":
        if index is None:
            raise ValueError("vertex sampling needs an index")
        if not 0 <= index < hull.size:
            raise IndexError(f"vertex index {index} out of range for p={hull.size}")
        return hull.vertices[index].copy()
    raise ValueError(f"unknown sampling mode {mode!r}")

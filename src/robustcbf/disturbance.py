"""Convex polytopes of wheel-velocity offsets and their support minima."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True, eq=False)
class DisturbanceHull:
    """Finite vertex list whose convex hull models an input disturbance.

    Vertices are stored as given; interior or duplicate points never change a
    support minimum, so no hull reduction is performed.  Vertex order is
    semantically irrelevant.
    """

    vertices: np.ndarray

    def __post_init__(self) -> None:
        verts = np.atleast_2d(np.asarray(self.vertices, dtype=float))
        if verts.ndim != 2 or verts.shape[1] != 2 or verts.shape[0] < 1:
            raise ValueError("vertices must form a (p, 2) array with p >= 1")
        if not np.all(np.isfinite(verts)):
            raise ValueError("vertices must be finite")
        verts = verts.copy()
        verts.setflags(write=False)
        object.__setattr__(self, "vertices", verts)

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


def support_min_rows(directions: np.ndarray, hull: DisturbanceHull) -> np.ndarray:
    """Row-wise support minima for a stack of directions (k, 2) -> (k,)."""
    directions = np.atleast_2d(np.asarray(directions, dtype=float))
    if directions.shape[0] == 0:
        return np.zeros(0)
    verts = hull.vertices
    values = (
        directions[:, 0:1] * verts[None, :, 0] + directions[:, 1:2] * verts[None, :, 1]
    )
    return values.min(axis=1)


def union_support_mins(z, union: HullUnion) -> list:
    """Per-hull support minima, in declaration order."""
    z = _check_direction(z)
    return [support_min(z, hull) for hull in union.hulls]


def pooled_vertices(union: HullUnion) -> np.ndarray:
    """All vertices of a union, stacked in declaration order."""
    return np.vstack([hull.vertices for hull in union.hulls])


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
      "uniform-convex"  convex combination with flat-Dirichlet weights
                        (needs rng: a Generator or an integer seed)
      "worst-case"      vertex attaining support_min along ``direction``
      "vertex"          vertex ``index`` verbatim
    """
    if mode == "uniform-convex":
        if rng is None:
            raise ValueError("uniform-convex sampling needs an rng or seed")
        if not isinstance(rng, np.random.Generator):
            rng = np.random.default_rng(rng)
        weights = rng.dirichlet(np.ones(hull.size))
        return weights @ hull.vertices
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

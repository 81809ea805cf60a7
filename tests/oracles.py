"""Independent reference computations that pin expected test values.

Nothing here imports solver internals: support minima are brute-force vertex
enumerations, Jacobians come from central differences, the QP reference
is a projected-gradient ascent on the dual run to convergence, and the
closed-loop reference steps one robot object at a time.  The dual
active-set reference is a frozen copy of the solver loop before its working
set moved into preallocated buffers and kept B^-1, which solves B by LU on
every step.  With the solver's scaled entering rule it pins the solver's
steps and active sets; with the raw rule it pins the answers of the solver
before that rule changed.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from robustcbf import (
    RobotState,
    WheelCommand,
    body_output_matrix,
    filter_step,
    pooled_vertices,
    wheel_matrix,
)
from robustcbf.qp import INFEASIBLE, MAX_ITERATIONS, OPTIMAL


def fd_jacobian(func, x, eps):
    """Central-difference Jacobian of func at x, one column per input."""
    x = np.asarray(x, dtype=float)
    base = np.asarray(func(x), dtype=float)
    jac = np.empty((base.size, x.size))
    for k in range(x.size):
        step = np.zeros_like(x)
        step[k] = eps
        plus = np.asarray(func(x + step), dtype=float)
        minus = np.asarray(func(x - step), dtype=float)
        jac[:, k] = (plus - minus) / (2.0 * eps)
    return jac


def support_min_enum(z, vertices) -> float:
    """Explicit loop over vertices; the slow twin of the library routine."""
    z = np.asarray(z, dtype=float)
    best = None
    for vertex in np.atleast_2d(np.asarray(vertices, dtype=float)):
        value = float(vertex[0]) * float(z[0]) + float(vertex[1]) * float(z[1])
        if best is None or value < best:
            best = value
    return best


def convex_combination(vertices, rng) -> np.ndarray:
    """Random point of the hull: normalized positive weights on the vertices."""
    vertices = np.atleast_2d(np.asarray(vertices, dtype=float))
    weights = rng.random(vertices.shape[0]) + 1e-12
    weights /= weights.sum()
    return weights @ vertices


def projected_gradient_qp(
    weight,
    u_nom,
    A,
    b,
    u_max,
    max_iterations: int = 400_000,
    tol: float = 1e-12,
):
    """Reference solution of min ||weight (u_nom - u)||^2 over {Au >= b, |u|_inf <= u_max}.

    Runs accelerated projected-gradient ascent on the dual (projection onto
    the nonnegative orthant), recovering the primal point from the dual
    iterate.  Returns (u, objective).  Assumes the problem is feasible.
    """
    weight = np.asarray(weight, dtype=float)
    u_nom = np.asarray(u_nom, dtype=float).reshape(-1)
    m = u_nom.size
    A = np.asarray(A, dtype=float).reshape(-1, m) if np.size(A) else np.zeros((0, m))
    b = np.asarray(b, dtype=float).reshape(-1)

    eye = np.eye(m)
    C = np.vstack([A, eye, -eye])
    d = np.concatenate([b, np.full(m, -u_max), np.full(m, -u_max)])

    H = weight.T @ weight
    H_inv = np.linalg.inv(H)
    H_inv = 0.5 * (H_inv + H_inv.T)

    # u(lam) = u_nom + 0.5 H^-1 C' lam;  grad of the dual = d - C u(lam).
    CHC = C @ H_inv @ C.T
    lipschitz = float(np.linalg.eigvalsh(0.5 * (CHC + CHC.T)).max()) * 0.5
    step = 1.0 / max(lipschitz, 1e-30)

    lam = np.zeros(C.shape[0])
    momentum = lam.copy()
    t_acc = 1.0
    u = u_nom.copy()
    for k in range(max_iterations):
        grad = d - C @ (u_nom + 0.5 * (H_inv @ (C.T @ momentum)))
        lam_next = np.maximum(0.0, momentum + step * grad)
        t_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t_acc * t_acc))
        momentum = lam_next + ((t_acc - 1.0) / t_next) * (lam_next - lam)
        # Restart the momentum when it fights the ascent direction.
        if (lam_next - lam) @ grad < 0.0:
            momentum = lam_next
            t_next = 1.0
        lam = lam_next
        t_acc = t_next
        if k % 500 == 499:
            u = u_nom + 0.5 * (H_inv @ (C.T @ lam))
            fixed_point = np.abs(lam - np.maximum(0.0, lam + step * (d - C @ u)))
            if float(fixed_point.max()) <= tol:
                break
    u = u_nom + 0.5 * (H_inv @ (C.T @ lam))
    residual = weight @ (u_nom - u)
    return u, float(residual @ residual)


_DEPENDENCE_RTOL = 1e-12


class ReallocatingWorkingSet:
    """Active rows with N, J N^T and N J N^T rebuilt by vstack, hstack and
    np.delete on every add and drop."""

    def __init__(self, inv_hessian, C):
        self._J = inv_hessian
        self._C = C
        self.indices = []
        m = inv_hessian.shape[0]
        self.N = np.zeros((0, m))
        self.JNt = np.zeros((m, 0))
        self._B = np.zeros((0, 0))

    @property
    def size(self):
        return len(self.indices)

    def add(self, idx, c, Jc):
        k = self.size
        new_B = np.empty((k + 1, k + 1))
        if k:
            col = self.N @ Jc
            new_B[:k, :k] = self._B
            new_B[:k, k] = col
            new_B[k, :k] = col
        new_B[k, k] = float(c @ Jc)
        self._B = new_B
        self.N = np.vstack([self.N, c[None, :]])
        self.JNt = np.hstack([self.JNt, Jc[:, None]])
        self.indices.append(idx)

    def drop(self, pos):
        del self.indices[pos]
        self.N = np.delete(self.N, pos, axis=0)
        self.JNt = np.delete(self.JNt, pos, axis=1)
        self._B = np.delete(np.delete(self._B, pos, axis=0), pos, axis=1)

    def solve_B(self, rhs):
        if self.size == 0:
            return np.zeros(0)
        return np.linalg.solve(self._B, rhs)

    def eq_multipliers(self, linear, d):
        return self.solve_B(d[self.indices] + self.JNt.T @ linear)

    def primal(self, linear, lam):
        return self.JNt @ lam - self._J @ linear

    def bulk_load(self, idx):
        """Load the rows idx at once; np.linalg.LinAlgError unless they are
        safely independent."""
        N = self._C[idx]
        JNt = self._J @ N.T
        B = N @ JNt
        chol = np.linalg.cholesky(B)
        if np.diagonal(chol).min() ** 2 <= _DEPENDENCE_RTOL * max(
            float(np.diagonal(B).max()), 1e-300
        ):
            raise np.linalg.LinAlgError("warm-start rows are linearly dependent")
        self.indices = list(idx)
        self.N, self.JNt, self._B = N, JNt, B


def _reference_ratio(lam_w, r_dir):
    positive = r_dir > 0.0
    if not positive.any():
        return -1, math.inf
    ratios = np.where(positive, lam_w / np.where(positive, r_dir, 1.0), np.inf)
    block = int(np.argmin(ratios))
    return block, ratios[block]


class ReferenceSolve(NamedTuple):
    u_star: np.ndarray
    multipliers: np.ndarray
    status: str
    iterations: int
    active_set: tuple
    dependent_steps: int  # dual-only steps on a row dependent on the active set


def most_negative_row(C, residual):
    """Raw entering rule: the row of least residual, or None when it is
    violated by no more than 1e-8."""
    worst = int(np.argmin(residual))
    return None if residual[worst] >= -1e-8 else worst


def farthest_violated_row(C, residual):
    """Scaled entering rule: among the rows violated by more than 1e-8, the
    one of least residual / |c|, the lowest of those within a relative 1e-12
    of it, and a zero row first; None when no row is violated."""
    violated = np.flatnonzero(residual < -1e-8)
    if violated.size == 0:
        return None
    norms = np.sqrt(np.einsum("ij,ij->i", C[violated], C[violated]))
    if not norms.all():
        return int(violated[np.argmin(norms)])
    dist = residual[violated] / norms
    return int(violated[np.flatnonzero(dist <= dist.min() * (1.0 - 1e-12))[0]])


def reference_dual_active_set(
    problem, max_iterations=None, warm_start=None, entering=most_negative_row
):
    """Goldfarb-Idnani dual active-set solve of a QpProblem with the
    reallocating working set, including the final equality re-solve after a
    warm start that needed no iterations and the KKT downgrade of the status.

    warm_start is a previous solution or an iterable of stacked-row indices,
    loaded in bulk; a seed that does not load raises np.linalg.LinAlgError.
    max_iterations defaults to 10 * (variables + stacked rows); entering
    picks the row to enter from (C, C u - d), or None at the optimum.
    """
    m = problem.variables
    eye = np.eye(m)
    C = np.vstack([problem.A, eye, -eye])
    d = np.concatenate([problem.b, np.full(m, -problem.u_max), np.full(m, -problem.u_max)])
    hessian = problem.prepared.hessian
    inv_hessian = problem.prepared.inv_hessian
    linear = -hessian @ problem.u_nom
    n_rows = C.shape[0]
    max_iter = 10 * (m + n_rows) if max_iterations is None else max_iterations
    warm = () if warm_start is None else getattr(warm_start, "active_set", warm_start)
    warm = [i for i in (int(i) for i in warm) if 0 <= i < n_rows]

    ws = ReallocatingWorkingSet(inv_hessian, C)
    lam_w = np.zeros(0)
    if warm:
        ws.bulk_load(warm)
    if ws.size:
        while True:
            lam_w = ws.eq_multipliers(linear, d)
            if ws.size == 0 or (lam_w >= 0.0).all():
                break
            ws.drop(int(np.argmin(lam_w)))
        u = ws.primal(linear, lam_w) if ws.size else -inv_hessian @ linear
    else:
        u = -inv_hessian @ linear

    iterations = 0
    dependent_steps = 0
    status = OPTIMAL
    while status == OPTIMAL:
        worst = entering(C, C @ u - d)
        if worst is None:
            break
        c = C[worst]
        lam_new = 0.0
        while True:
            iterations += 1
            if iterations > max_iter:
                status = MAX_ITERATIONS
                break
            Jc = inv_hessian @ c
            cJc = float(c @ Jc)
            if ws.size:
                w_vec = ws.N @ Jc
                r_dir = ws.solve_B(w_vec)
                step_dir = Jc - ws.JNt @ r_dir
                schur = cJc - float(w_vec @ r_dir)
            else:
                r_dir = np.zeros(0)
                step_dir = Jc
                schur = cJc
            if schur <= _DEPENDENCE_RTOL * max(cJc, 1e-300):
                dependent_steps += 1
                block, t = _reference_ratio(lam_w, r_dir)
                if block < 0:
                    status = INFEASIBLE
                    break
                lam_w = lam_w - t * r_dir
                lam_new += t
                ws.drop(block)
                lam_w = np.delete(lam_w, block)
                continue
            t_full = -float(c @ u - d[worst]) / schur
            block, t_block = _reference_ratio(lam_w, r_dir)
            t = min(t_full, t_block)
            u = u + t * step_dir
            if ws.size:
                lam_w = lam_w - t * r_dir
            lam_new += t
            if t_full <= t_block:
                ws.add(worst, c, Jc)
                lam_w = np.append(lam_w, lam_new)
                break
            ws.drop(block)
            lam_w = np.delete(lam_w, block)

    if status == OPTIMAL and ws.size:
        lam_w = ws.eq_multipliers(linear, d)
        u = ws.primal(linear, lam_w)
    lam = np.zeros(n_rows)
    if ws.size:
        lam[ws.indices] = lam_w

    if status == OPTIMAL:
        gradient = hessian @ u + linear
        stationarity = float(np.abs(gradient - C.T @ lam).max())
        residual = C @ u - d
        feasibility = float(max(0.0, (-residual).max()))
        complementarity = max(
            float(np.abs(lam * residual).max()), float(max(0.0, -lam.min()))
        )
        if feasibility > 1e-8 or max(stationarity, complementarity) > 1e-8:
            status = MAX_ITERATIONS
    return ReferenceSolve(u, lam, status, iterations, tuple(ws.indices), dependent_steps)


def _reference_output(state, geom) -> np.ndarray:
    return np.array(
        [
            state.x1 + geom.look_ahead * math.cos(state.theta),
            state.x2 + geom.look_ahead * math.sin(state.theta),
        ]
    )


def _reference_controller(state, goal, gain, geom, u_max):
    """Per-robot proportional drive through the inverse output Jacobian."""
    cos_t = math.cos(state.theta)
    sin_t = math.sin(state.theta)
    lp = geom.look_ahead
    desired_x = gain * (float(goal[0]) - (state.x1 + lp * cos_t))
    desired_y = gain * (float(goal[1]) - (state.x2 + lp * sin_t))
    block = body_output_matrix(geom)
    g00 = cos_t * block[0, 0] - sin_t * block[1, 0]
    g01 = cos_t * block[0, 1] - sin_t * block[1, 1]
    g10 = sin_t * block[0, 0] + cos_t * block[1, 0]
    g11 = sin_t * block[0, 1] + cos_t * block[1, 1]
    det = g00 * g11 - g01 * g10
    wheel_r = (g11 * desired_x - g01 * desired_y) / det
    wheel_l = (-g10 * desired_x + g00 * desired_y) / det
    peak = max(abs(wheel_r), abs(wheel_l))
    if peak > u_max:
        scale = u_max / peak
        wheel_r *= scale
        wheel_l *= scale
    return WheelCommand(wheel_r, wheel_l)


def _reference_step(state, u, d, dt, geom, method):
    """One robot's pose step with its own 3x2 body matrix and the 2x2
    gearing matvec; RobotState wraps the heading."""
    gearing = wheel_matrix(geom)
    x = np.array([state.x1, state.x2, state.theta])
    if method == "euler":
        body = np.zeros((3, 2))
        body[0, 0] = math.cos(state.theta)
        body[1, 0] = math.sin(state.theta)
        body[2, 1] = 1.0
        u_vec = np.array([u.omega_r, u.omega_l])
        stepped = (x + dt * (body @ (gearing @ u_vec))) + dt * (body @ (gearing @ d))
    else:
        w = gearing @ (np.array([u.omega_r, u.omega_l]) + d)

        def rate(p):
            return np.array([w[0] * math.cos(p[2]), w[0] * math.sin(p[2]), w[1]])

        k1 = rate(x)
        k2 = rate(x + 0.5 * dt * k1)
        k3 = rate(x + 0.5 * dt * k2)
        k4 = rate(x + dt * k3)
        stepped = x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return RobotState(stepped[0], stepped[1], stepped[2])


def _reference_draws(cfg, result, rng) -> np.ndarray:
    """The plant disturbance of one step, one robot at a time; uniform-convex
    draws use numpy's own rng.dirichlet."""
    n = cfg.robot_count
    union = cfg.disturbance
    mode = cfg.plant_disturbance
    if mode == "off":
        return np.zeros((n, 2))
    if mode == "vertex":
        return np.tile(pooled_vertices(union)[cfg.plant_vertex], (n, 1))
    if mode == "worst-case":
        cs = result.constraints
        if cs.rows == 0:
            vertex = union.hulls[0].vertices[0]
        else:
            row = int(np.argmin(cs.A @ result.solver.u_star - cs.b))
            i, j = cs.pairs[row]
            z = cs.A[row, 2 * i : 2 * i + 2] + cs.A[row, 2 * j : 2 * j + 2]
            hull = min(union.hulls, key=lambda h: support_min_enum(z, h.vertices))
            values = [float(v[0]) * float(z[0]) + float(v[1]) * float(z[1]) for v in hull.vertices]
            vertex = hull.vertices[int(np.argmin(values))]
        return np.tile(vertex, (n, 1))
    draws = np.empty((n, 2))
    for k in range(n):
        hull = union.hulls[int(rng.integers(union.size))] if union.size > 1 else union.hulls[0]
        draws[k] = rng.dirichlet(np.ones(hull.size)) @ hull.vertices
    return draws


def reference_closed_loop(cfg):
    """The closed loop of run_scenario, one RobotState and WheelCommand per
    robot: scalar math calls, the per-robot controller, the 2x2 gearing
    matvec and the filter fed dataclass lists.

    Returns (min_h, max_alter, goal_completion, final poses as (n, 3)).
    """
    n = cfg.robot_count
    geom = cfg.geometry
    states = []
    for k in range(n):
        angle = 2.0 * math.pi * k / n
        states.append(
            RobotState(
                cfg.circle_radius * math.cos(angle),
                cfg.circle_radius * math.sin(angle),
                angle + math.pi,
            )
        )
    goals = [-_reference_output(s, geom) for s in states]
    fcfg = cfg.filter_config()
    rng = np.random.default_rng(cfg.rng_seed)
    steps = cfg.steps()
    min_h = np.empty(steps)
    max_alter = np.empty(steps)
    warm = None
    for k in range(steps):
        commands = [
            _reference_controller(s, g, cfg.controller_gain, geom, cfg.u_max)
            for s, g in zip(states, goals)
        ]
        result = filter_step(states, commands, fcfg, warm_start=warm)
        warm = None if result.fallback_applied else result.solver
        min_h[k] = result.min_h
        max_alter[k] = float(result.altered.max())
        draws = _reference_draws(cfg, result, rng)
        u_star = result.solver.u_star
        states = [
            _reference_step(
                s, WheelCommand(u_star[2 * r], u_star[2 * r + 1]), draws[r], cfg.dt, geom,
                cfg.integrator,
            )
            for r, s in enumerate(states)
        ]
    reached = sum(
        1
        for s, g in zip(states, goals)
        if float(np.linalg.norm(_reference_output(s, geom) - g)) <= cfg.goal_tolerance
    )
    poses = np.array([[s.x1, s.x2, s.theta] for s in states])
    return min_h, max_alter, reached / n, poses

"""Independent reference computations that pin expected test values.

Nothing here imports solver internals: support minima are brute-force vertex
enumerations, Jacobians come from central differences, the barrier gradient
and the QP objective are written out for one pair and one point, the QP
reference is a projected-gradient ascent on the dual run to convergence, and
the closed-loop reference steps one robot object at a time.  The dual
active-set reference is a frozen copy of the solver loop before its working
set moved into preallocated buffers and kept B^-1, which solves B by LU on
every step.  With the solver's scaled entering rule it pins the solver's
steps and active sets; with the raw rule it pins the answers of the solver
before that rule changed.  Run on the dense (u, s) embedding of the slack
re-solve (slack_system), it pins the answers of the eliminated slacks.  The
assembly reference is the gather-based assembly from before the one pass
over all ordered pairs, and the full-row KKT report the one from before the
report read only the active rows.  The KKT certificate reference is
qp.kkt_check as it was on scipy.optimize.nnls, before its own numpy solver.
The decoupled margin gives each robot of a pair its own disturbance offset;
it yields the congested QPs on which the solver once raised LinAlgError.
The certificate audit reads hdot + gamma h^3 off the scalar output map and
central differences of the one-robot step, sharing no code with the
filter's constraint rows.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from robustcbf import (
    ConstraintSet, RobotState, WheelCommand, assemble_constraints, class_k_cubic, filter_step,
    pooled_vertices, support_min_rows
)
from robustcbf.dynamics import as_poses
from robustcbf.qp import INFEASIBLE, KKT_ACTIVE_TOL, MAX_ITERATIONS, OPTIMAL


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


def pair_h_gradient(p_i, p_j):
    """Exact gradients of h = |p_i - p_j|^2 - delta^2 in each output point,
    2 (p_i - p_j) and its negation; the finite-difference tests pin the
    factor 2."""
    diff = np.asarray(p_i, dtype=float) - np.asarray(p_j, dtype=float)
    grad_i = 2.0 * diff
    return grad_i, -grad_i


def qp_objective(problem, u) -> float:
    """||weight @ (u_nom - u)||^2 of a QpProblem at a candidate point."""
    u = np.asarray(u, dtype=float).reshape(-1)
    r = problem.weight @ (problem.u_nom - u)
    return float(r @ r)


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
        """Load the rows idx at once; np.linalg.LinAlgError when there are
        more of them than variables.  Other dependent rows surface in the
        first multiplier solve."""
        if len(idx) > self._J.shape[0]:
            raise np.linalg.LinAlgError("more warm-start rows than variables")
        N = self._C[idx]
        JNt = self._J @ N.T
        B = N @ JNt
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

    return _reference_loop(hessian, inv_hessian, linear, C, d, max_iter, warm, entering)


def _reference_loop(hessian, inv_hessian, linear, C, d, max_iter, warm, entering):
    """The loop of reference_dual_active_set on min 0.5 u'Hu + linear'u
    s.t. C u >= d, warm a list of row indices."""
    n_rows = C.shape[0]
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


def full_row_kkt(hessian, linear, C, d, u, lam):
    """(stationarity, feasibility, complementarity) of min 0.5 u'Hu +
    linear'u s.t. C u >= d at (u, lam), over every stacked row: C^T lam and
    lam * (C u - d) in full, with the dual negativity in complementarity."""
    gradient = hessian @ u + linear
    stationarity = float(np.abs(gradient - C.T @ lam).max())
    residual = C @ u - d
    feasibility = float(max(0.0, (-residual).max()))
    complementarity = float(np.abs(lam * residual).max())
    return stationarity, feasibility, max(complementarity, float(max(0.0, -lam.min())))


def reference_kkt_check(problem, u):
    """qp.kkt_check on scipy.optimize.nnls: (stationarity, feasibility,
    complementarity) at u, multipliers by scipy's NNLS on the rows active
    within KKT_ACTIVE_TOL."""
    from scipy.optimize import nnls

    u = np.asarray(u, dtype=float).reshape(-1)
    C, d = problem.C, problem.d
    gradient = problem.prepared.hessian @ u + problem.linear
    residual = C @ u - d
    feasibility = float(max(0.0, (-residual).max())) if residual.size else 0.0
    active = np.flatnonzero(np.abs(residual) <= KKT_ACTIVE_TOL * (1.0 + np.abs(d)))
    if active.size == 0:
        return float(np.abs(gradient).max()), feasibility, 0.0
    lam_active, _ = nnls(C[active].T, gradient)
    stationarity = float(np.abs(C[active].T @ lam_active - gradient).max())
    complementarity = float(np.abs(lam_active * residual[active]).max())
    return stationarity, feasibility, complementarity


def slack_system(problem, slack_weight):
    """(hessian, linear, C, d) of the slack re-solve of a QpProblem over
    (u, s): one slack per row of A, weighted 2 * slack_weight, s >= 0."""
    m, rows = problem.variables, problem.rows
    hessian = np.zeros((m + rows, m + rows))
    hessian[:m, :m] = problem.prepared.hessian
    hessian[m:, m:] = 2.0 * slack_weight * np.eye(rows)
    stacked = problem.C.shape[0]
    C = np.zeros((stacked + rows, m + rows))
    C[:stacked, :m] = problem.C
    C[:rows, m:] = np.eye(rows)
    C[stacked:, m:] = np.eye(rows)
    linear = np.concatenate([problem.linear, np.zeros(rows)])
    return hessian, linear, C, np.concatenate([problem.d, np.zeros(rows)])


def reference_slack_solve(problem, slack_weight):
    """The dense (u, s) embedding of slack_system solved by the reference
    loop with the scaled entering rule: the answer solve_with_slack gives
    without eliminating the slacks.  Returns a ReferenceSolve over (u, s)."""
    hessian, linear, C, d = slack_system(problem, slack_weight)
    inv_hessian = np.linalg.inv(hessian)
    inv_hessian = 0.5 * (inv_hessian + inv_hessian.T)
    max_iter = 10 * (C.shape[1] + C.shape[0])
    return _reference_loop(
        hessian, inv_hessian, linear, C, d, max_iter, [], farthest_violated_row
    )


def reference_assembly(states, geom, params, hulls):
    """(A, b, h_pairs, pairs) of every pair (i, j), i < j: output points,
    Jacobians, gradients and barrier values gathered per pair, each row's
    two blocks scattered through a (pairs, n, 2) view."""
    poses = as_poses(states)
    n = poses.shape[0]
    pairs = np.stack(np.triu_indices(n, k=1), axis=1)
    iu, ju = pairs.T
    cos_t, sin_t = np.cos(poses[:, 2]), np.sin(poses[:, 2])
    outputs = poses[:, :2] + geom.look_ahead * np.column_stack([cos_t, sin_t])
    rot = np.column_stack([cos_t, -sin_t, sin_t, cos_t]).reshape(-1, 2, 2)
    jacobians = rot @ geom.body_output_matrix
    diffs = outputs[iu] - outputs[ju]
    grads_i = 2.0 * diffs
    grads_j = -grads_i
    h_vals = diffs[:, 0] * diffs[:, 0] + diffs[:, 1] * diffs[:, 1] - params.delta**2
    jac_i, jac_j = jacobians[iu], jacobians[ju]
    z_i = grads_i[:, 0:1] * jac_i[:, 0, :] + grads_i[:, 1:2] * jac_i[:, 1, :]
    z_j = grads_j[:, 0:1] * jac_j[:, 0, :] + grads_j[:, 1:2] * jac_j[:, 1, :]
    z_rows = z_i + z_j
    block = np.zeros((iu.size, n, 2))
    rows = np.arange(iu.size)
    block[rows, iu] = z_i
    block[rows, ju] = z_j
    margin = support_min_rows(z_rows, hulls.hulls[0])
    for hull in hulls.hulls[1:]:
        margin = np.minimum(margin, support_min_rows(z_rows, hull))
    b = -(params.gamma * h_vals**3) - margin
    return block.reshape(iu.size, 2 * n), b, h_vals, pairs


def decoupled_margin_constraints(states, geom, params, hulls, u_max, *plan):
    """assemble_constraints with the margin of robots that slip each by its
    own offset in the hulls: row (i, j)'s margin is the least support
    minimum over the hulls of robot i's block plus that of robot j's,
    where the shipped margin takes one offset for both.  plan is passed on,
    so this stands in for assemble_constraints inside filter_step; A is
    the shipped one, only b changes."""
    cs = assemble_constraints(states, geom, params, hulls, u_max, *plan)
    k = cs.rows
    blocks = cs.A.reshape(k, -1, 2)
    margin = np.zeros(k)
    for robot in cs.pairs.T:
        z = blocks[np.arange(k), robot]
        least = support_min_rows(z, hulls.hulls[0])
        for hull in hulls.hulls[1:]:
            least = np.minimum(least, support_min_rows(z, hull))
        margin += least
    d = cs.d.copy()
    d[:k] = -class_k_cubic(cs.h_pairs, params.gamma) - margin
    d.setflags(write=False)
    return ConstraintSet(A=cs.A, b=d[:k], pairs=cs.pairs, h_pairs=cs.h_pairs,
                         z_rows=cs.z_rows, C=cs.C, d=d)


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
    block = geom.body_output_matrix
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
    gearing = geom.wheel_matrix
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


_AUDIT_STEP = 1e-6


def shared_offsets(union) -> list:
    """(v, v) for every pooled vertex v: both robots of a pair slip alike,
    the disturbance model of the shipped margin."""
    return [(v, v) for v in pooled_vertices(union)]


def per_robot_offsets(union) -> list:
    """(v, w) for every two pooled vertices: each robot slips by its own."""
    vertices = pooled_vertices(union)
    return [(v, w) for v in vertices for w in vertices]


def audit_margin(states, u, geom, params, offsets) -> float:
    """The least hdot + gamma h^3 over every pair i < j and every offset
    pair (d_i, d_j) of offsets, from the dynamics alone; inf for one robot.

    states and u are RobotState and WheelCommand sequences or (n, 3) and
    (n, 2) arrays.  h comes from the scalar output map, and hdot is a
    central difference over +-_AUDIT_STEP of the Euler step of robot i
    under u_i + d_i and of robot j under u_j + d_j.  Since hdot is affine
    in (d_i, d_j), the hull vertices are the worst offsets.
    """
    states = [s if isinstance(s, RobotState) else RobotState(*s) for s in states]
    u = [c if isinstance(c, WheelCommand) else WheelCommand(*c) for c in u]

    def swept(k, d):
        """Robot k's output point one step back and one step ahead."""
        return [
            _reference_output(_reference_step(states[k], u[k], d, dt, geom, "euler"), geom)
            for dt in (-_AUDIT_STEP, _AUDIT_STEP)
        ]

    worst = math.inf
    for i in range(len(states)):
        for j in range(i + 1, len(states)):
            diff = _reference_output(states[i], geom) - _reference_output(states[j], geom)
            h = float(diff @ diff) - params.delta**2
            for d_i, d_j in offsets:
                (back_i, ahead_i), (back_j, ahead_j) = swept(i, d_i), swept(j, d_j)
                back, ahead = back_i - back_j, ahead_i - ahead_j
                h_dot = (float(ahead @ ahead) - float(back @ back)) / (2.0 * _AUDIT_STEP)
                worst = min(worst, h_dot + params.gamma * h**3)
    return worst

def _reference_draws(cfg, result, rng) -> np.ndarray:
    """The plant disturbance of one step, one robot at a time; uniform-convex
    draws pick every robot's hull first (for several hulls), then use numpy's
    own rng.dirichlet robot by robot."""
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
    picks = rng.integers(union.size, size=n) if union.size > 1 else np.zeros(n, dtype=int)
    draws = np.empty((n, 2))
    for k, pick in enumerate(picks):
        hull = union.hulls[pick]
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

"""Independent reference computations that pin expected test values.

Nothing here imports solver internals: support minima are brute-force vertex
enumerations, Jacobians come from central differences, the QP reference
is a projected-gradient ascent on the dual run to convergence, and the
closed-loop reference steps one robot object at a time.
"""

from __future__ import annotations

import math

import numpy as np

from robustcbf import (
    RobotState,
    WheelCommand,
    body_output_matrix,
    filter_step,
    pooled_vertices,
    sample_hull,
    wheel_matrix,
)


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
    """The plant disturbance of one step, one robot at a time."""
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
        draws[k] = sample_hull(hull, "uniform-convex", rng=rng)
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

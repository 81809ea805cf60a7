"""Dense solver for strongly convex quadratic programs with inequality rows
and an infinity-norm box bound.

The algorithm is the Goldfarb-Idnani dual active-set method: from the
unconstrained optimum it adds violated constraints one at a time, farthest
first, with partial dual steps when a blocking multiplier would turn
negative.  For strictly convex problems this terminates finitely, returns
exact multipliers, and detects primal infeasibility when the dual becomes
unbounded.  Cold solves keep B^-1 over the active rows by rank-one updates.

A QpProblem builds its stacked rows C u >= d and its linear term once, at
construction; solve, solve_with_slack and kkt_check only read them.  Both
solvers share FEASIBILITY_TOL and STATIONARITY_TOL.
"""

from __future__ import annotations

import math
import time
import warnings
from dataclasses import dataclass, field

import numpy as np

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
MAX_ITERATIONS = "max-iterations"

# A row is violated, and an optimal answer is accepted, within these.
FEASIBILITY_TOL = 1e-8
STATIONARITY_TOL = 1e-8

_DEPENDENCE_RTOL = 1e-12
_TIE_RTOL = 1e-12
_CONDITION_WARN = 1e8


@dataclass(frozen=True, eq=False)
class PreparedWeight:
    """A validated QP weight with its Hessian 2 W^T W and inverse Hessian.

    Build it once with prepare_weight and hand it to every QpProblem that
    shares the weight; the arrays are read-only.
    """

    matrix: np.ndarray
    hessian: np.ndarray
    inv_hessian: np.ndarray


def prepare_weight(weight) -> PreparedWeight:
    """Validate a square weight matrix and precompute its Hessian terms.

    Raises on a non-finite or singular weight and warns when its condition
    number exceeds 1e8.
    """
    matrix = np.asarray(weight, dtype=float).copy()
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise ValueError(f"weight must be a square matrix, got shape {matrix.shape}")
    if not np.all(np.isfinite(matrix)):
        raise ValueError("weight must be finite")
    cond = float(np.linalg.cond(matrix))
    if not math.isfinite(cond):
        raise ValueError("weight matrix is singular")
    if cond > _CONDITION_WARN:
        warnings.warn(
            f"weight matrix condition number {cond:.3e} exceeds {_CONDITION_WARN:.0e}",
            stacklevel=2,
        )
    hessian = 2.0 * matrix.T @ matrix
    inv_hessian = _invert_spd(hessian)
    for arr in (matrix, hessian, inv_hessian):
        arr.setflags(write=False)
    return PreparedWeight(matrix, hessian, inv_hessian)


@dataclass(frozen=True, eq=False)
class QpProblem:
    """min ||weight @ (u_nom - u)||^2  s.t.  A u >= b  and  |u|_inf <= u_max.

    weight is a PreparedWeight or a plain matrix, which is prepared on the
    spot; the problem's weight attribute is always the matrix and prepared
    holds its Hessian terms.  Construction also builds what every solve and
    check reads: the stacked rows C u >= d with C = [A; I; -I] and
    d = [b; -u_max; -u_max], and the linear term -H u_nom of
    0.5 u'Hu + linear'u.  A and b are views of the top rows of C and d; all
    arrays are read-only.
    """

    weight: np.ndarray
    u_nom: np.ndarray
    A: np.ndarray
    b: np.ndarray
    u_max: float
    prepared: PreparedWeight = field(init=False, repr=False)
    C: np.ndarray = field(init=False, repr=False)
    d: np.ndarray = field(init=False, repr=False)
    linear: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        prepared = self.weight
        if not isinstance(prepared, PreparedWeight):
            prepared = prepare_weight(prepared)
        u_nom = np.asarray(self.u_nom, dtype=float).reshape(-1)
        m = u_nom.size
        matrix = np.asarray(self.A, dtype=float)
        if matrix.size == 0:
            matrix = matrix.reshape(0, m)
        matrix = np.atleast_2d(matrix)
        rhs = np.asarray(self.b, dtype=float).reshape(-1)

        if prepared.matrix.shape != (m, m):
            raise ValueError(f"weight must be {m}x{m}, got {prepared.matrix.shape}")
        if matrix.shape[1] != m:
            raise ValueError(
                f"A has {matrix.shape[1]} columns but the problem has {m} variables"
            )
        if rhs.shape[0] != matrix.shape[0]:
            raise ValueError("A and b disagree on the number of rows")
        for name, arr in (("u_nom", u_nom), ("A", matrix), ("b", rhs)):
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"{name} must be finite")
        if not (math.isfinite(self.u_max) and self.u_max > 0.0):
            raise ValueError(f"u_max must be finite and > 0, got {self.u_max!r}")

        u_max = float(self.u_max)
        eye = np.eye(m)
        C = np.vstack([matrix, eye, -eye])
        d = np.concatenate([rhs, np.full(2 * m, -u_max)])
        u_nom = u_nom.copy()
        linear = -prepared.hessian @ u_nom
        for arr in (u_nom, C, d, linear):
            arr.setflags(write=False)
        object.__setattr__(self, "weight", prepared.matrix)
        object.__setattr__(self, "prepared", prepared)
        object.__setattr__(self, "u_nom", u_nom)
        object.__setattr__(self, "A", C[: rhs.size])
        object.__setattr__(self, "b", d[: rhs.size])
        object.__setattr__(self, "u_max", u_max)
        object.__setattr__(self, "C", C)
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "linear", linear)

    @property
    def variables(self) -> int:
        return self.u_nom.size

    @property
    def rows(self) -> int:
        return self.A.shape[0]


@dataclass(frozen=True, eq=False)
class QpSolution:
    """Solver output; multipliers and active_set index the problem's stacked
    rows C = [A; I; -I] and feed warm starts and KKT checks.  kkt_residual
    is the larger of the stationarity and complementarity residuals."""

    u_star: np.ndarray
    status: str
    kkt_residual: float
    iterations: int
    wall_clock: float
    multipliers: np.ndarray
    active_set: tuple


def _invert_spd(hessian: np.ndarray) -> np.ndarray:
    inverse = np.linalg.inv(hessian)
    return 0.5 * (inverse + inverse.T)


class _WorkingSet:
    """Active rows in buffers allocated once per solve: N (cap x m), J N^T
    (m x cap), B = N J N^T and its inverse Binv (cap x cap each) and the
    multipliers lam (cap), used through their leading `size` rows and
    columns; cap doubles when full.  Binv is kept while `inverse` holds: the
    set grew from empty by adds and drops, not by a bulk load."""

    def __init__(self, inv_hessian: np.ndarray, C: np.ndarray):
        self._J = inv_hessian
        self._C = C
        self.indices: list = []
        self.inverse = True
        self._allocate(min(C.shape[0], inv_hessian.shape[0]))

    def _allocate(self, cap: int) -> None:
        """Fresh buffers for cap rows that keep the active rows."""
        k, m = self.size, self._J.shape[0]
        kept = (self.N, self.JNt, self._B[:k, :k], self._Binv[:k, :k], self.lam) if k else None
        self._N, self._JNt, self._lam = np.empty((cap, m)), np.empty((m, cap)), np.empty(cap)
        self._B, self._Binv = np.empty((cap, cap)), np.empty((cap, cap))
        if k:
            (self._N[:k], self._JNt[:, :k], self._B[:k, :k], self._Binv[:k, :k],
             self._lam[:k]) = kept

    @property
    def size(self) -> int:
        return len(self.indices)

    @property
    def N(self) -> np.ndarray:
        return self._N[: self.size]

    @property
    def JNt(self) -> np.ndarray:
        return self._JNt[:, : self.size]

    @property
    def lam(self) -> np.ndarray:
        return self._lam[: self.size]

    def add(self, idx: int, c: np.ndarray, Jc: np.ndarray, w_vec: np.ndarray, cJc: float,
            r_dir: np.ndarray, schur: float, lam: float) -> None:
        """Append row c, given w_vec = N J c, cJc = c J c, r_dir = B^-1 w_vec
        and schur = cJc - w_vec . r_dir as the caller computed them."""
        k = self.size
        if k == self._lam.size:
            self._allocate(max(1, 2 * k))
        self._B[:k, k] = self._B[k, :k] = w_vec
        self._B[k, k] = cJc
        if self.inverse:
            scaled = r_dir / schur
            self._Binv[:k, :k] += np.multiply.outer(r_dir, scaled)
            self._Binv[:k, k] = self._Binv[k, :k] = -scaled
            self._Binv[k, k] = 1.0 / schur
        self._N[k], self._JNt[:, k], self._lam[k] = c, Jc, lam
        self.indices.append(idx)

    def drop(self, pos: int) -> None:
        k = self.size
        del self.indices[pos]
        if self.inverse:
            Binv = self._Binv[:k, :k]
            Binv -= Binv[:, pos, None] * (Binv[pos] / Binv[pos, pos])
        self._N[pos : k - 1] = self._N[pos + 1 : k]
        self._JNt[:, pos : k - 1] = self._JNt[:, pos + 1 : k]
        for M in (self._B, self._Binv) if self.inverse else (self._B,):
            M[pos : k - 1, :k] = M[pos + 1 : k, :k]
            M[: k - 1, pos : k - 1] = M[: k - 1, pos + 1 : k]
        self._lam[pos : k - 1] = self._lam[pos + 1 : k]

    def solve_B(self, rhs: np.ndarray) -> np.ndarray:
        k = self.size
        if self.inverse:
            return self._Binv[:k, :k] @ rhs
        return np.linalg.solve(self._B[:k, :k], rhs) if k else np.zeros(0)

    def eq_multipliers(self, linear: np.ndarray, d: np.ndarray) -> np.ndarray:
        """Solve the equality system on the active rows into lam by LU on B.
        J N^T is copied out first: BLAS may round (J N^T)^T q differently on
        a strided view, which would change the answer in the last bits."""
        k, lam = self.size, self.lam
        if k:
            rhs = d[self.indices] + np.ascontiguousarray(self.JNt).T @ linear
            lam[:] = np.linalg.solve(self._B[:k, :k], rhs)
        return lam

    def primal(self, linear: np.ndarray) -> np.ndarray:
        return self.JNt @ self.lam - self._J @ linear

    def bulk_load(self, idx: list) -> None:
        """Load a whole active set at once, B in one product and solved by
        LU.  Raises np.linalg.LinAlgError unless the rows are safely
        independent, as the dual method keeps them; solve then starts cold."""
        N = self._C[idx]
        JNt = self._J @ N.T
        B = N @ JNt
        diag = np.diagonal(np.linalg.cholesky(B))
        if diag.min() ** 2 <= _DEPENDENCE_RTOL * max(float(np.diagonal(B).max()), 1e-300):
            raise np.linalg.LinAlgError("warm-start rows are linearly dependent")
        k = len(idx)
        if k > self._lam.size:
            self._allocate(k)
        self.indices, self.inverse = idx, False
        self._N[:k], self._JNt[:, :k], self._B[:k, :k] = N, JNt, B


def _blocking_ratio(lam_w: np.ndarray, r_dir: np.ndarray):
    """Position and step length of the first active multiplier that a step
    along -r_dir drives to zero; (-1, inf) when no entry of r_dir is positive.
    Ties go to the lowest position."""
    positive = (r_dir > 0.0).nonzero()[0]
    if not positive.size:
        return -1, math.inf
    ratios = lam_w[positive] / r_dir[positive]
    block = int(ratios.argmin())
    return int(positive[block]), ratios[block]


def _solve_raw(inv_hessian, linear, C, d, max_iter=None, warm=()):
    """Dual active-set loop on min 0.5 u'Hu + q'u s.t. C u >= d, with
    inv_hessian = H^-1 precomputed by the caller.  max_iter defaults to
    10 * (variables + stacked rows).  warm is an iterable of row indices;
    those in [0, rows) are bulk loaded, LinAlgError if dependent.

    The violated row of least residual / |c| enters.  B r = N H^-1 c is
    solved with the kept inverse on a cold start, else by LU; the final
    equality re-solve always runs LU on B.

    Returns (u, full multipliers, status, iterations, active indices).
    """
    n_rows = C.shape[0]
    if max_iter is None:
        max_iter = 10 * (C.shape[1] + n_rows)
    ws = _WorkingSet(inv_hessian, C)

    warm = [i for i in map(int, warm) if 0 <= i < n_rows]
    if warm:
        ws.bulk_load(warm)
        # Equality-solve on the warm active set, pruning negative multipliers.
        while True:
            lam_w = ws.eq_multipliers(linear, d)
            if ws.size == 0 or (lam_w >= 0.0).all():
                break
            ws.drop(int(np.argmin(lam_w)))
        u = ws.primal(linear) if ws.size else -inv_hessian @ linear
    else:
        u = -inv_hessian @ linear

    iterations = 0
    status = OPTIMAL
    norms = None
    while True:
        residual = C @ u - d
        violated = (residual < -FEASIBILITY_TOL).nonzero()[0]
        if not violated.size:
            break
        # Row norms once per solve, when two rows first compete.  Distances
        # within a relative _TIE_RTOL go to the lowest row, so rounding cannot
        # reorder symmetric rows.  A zero row enters first, found dependent.
        pick = 0
        if violated.size > 1:
            if norms is None:
                norms = np.sqrt(np.einsum("ij,ij->i", C, C))
            norms_v = norms[violated]
            pick = norms_v.argmin()
            if norms_v[pick] > 0.0:
                dist = residual[violated] / norms_v
                pick = (dist <= dist.min() * (1.0 - _TIE_RTOL)).argmax()
        worst = int(violated[pick])
        if worst in ws.indices:
            # Only an ill-conditioned warm set leaves an active row violated.
            status = MAX_ITERATIONS
            break
        c = C[worst]
        d_r = d[worst]
        Jc = inv_hessian @ c
        cJc = float(c @ Jc)
        lam_new = 0.0
        while True:
            iterations += 1
            if iterations > max_iter:
                status = MAX_ITERATIONS
                break
            lam_w = ws.lam
            w_vec = ws.N @ Jc
            r_dir = ws.solve_B(w_vec)
            step_dir = Jc - ws.JNt @ r_dir
            schur = cJc - float(w_vec @ r_dir)

            if schur <= _DEPENDENCE_RTOL * max(cJc, 1e-300):
                # Candidate row is dependent on the active rows: dual-only step.
                block, t = _blocking_ratio(lam_w, r_dir)
                if block < 0:
                    status = INFEASIBLE
                    break
                lam_w -= t * r_dir
                lam_new += t
                ws.drop(block)
                continue

            violation = float(c @ u - d_r)
            t_full = -violation / schur
            block, t_block = _blocking_ratio(lam_w, r_dir)

            t = min(t_full, t_block)
            u = u + t * step_dir
            lam_w -= t * r_dir
            lam_new += t
            if t_full <= t_block:
                ws.add(worst, c, Jc, w_vec, cJc, r_dir, schur, lam_new)
                break
            ws.drop(block)
        if status != OPTIMAL:
            break

    if status == OPTIMAL and ws.size and iterations:
        # Re-solve the final equality system: removes drift accumulated by
        # the incremental primal updates.  With no iterations the warm-start
        # prune above has just solved this very system.
        ws.eq_multipliers(linear, d)
        u = ws.primal(linear)

    lam_full = np.zeros(n_rows)
    if ws.size:
        lam_full[ws.indices] = ws.lam
    return u, lam_full, status, iterations, tuple(ws.indices)


def _kkt_residuals(hessian, linear, C, d, u, lam):
    gradient = hessian @ u + linear
    stationarity = float(np.abs(gradient - C.T @ lam).max()) if lam.size else float(
        np.abs(gradient).max()
    )
    residual = C @ u - d
    feasibility = float(max(0.0, (-residual).max())) if residual.size else 0.0
    complementarity = float(np.abs(lam * residual).max()) if lam.size else 0.0
    dual_negativity = float(max(0.0, -lam.min())) if lam.size else 0.0
    return stationarity, feasibility, max(complementarity, dual_negativity)


def solve(problem: QpProblem, max_iterations: int | None = None, warm_start=None) -> QpSolution:
    """Solve the box-and-rows QP.

    max_iterations caps the dual steps; None means 10 * (variables + stacked
    rows).  warm_start may be a previous QpSolution or an iterable of
    stacked-row indices; it seeds the active set.  A seed whose rows are
    dependent is rejected and the problem solved cold, with the cold
    solve's bits; so is a warm solve that does not end optimal.  Otherwise
    the answer agrees with a cold solve's to about 1e-9, but can differ in
    the last bits: the bulk load forms B in one product, where a cold solve
    grows it row by row.  An answer whose feasibility or KKT residual
    exceeds FEASIBILITY_TOL or STATIONARITY_TOL is reported as
    max-iterations.  Infeasibility is reported through the status, not an
    exception.
    """
    start = time.perf_counter()
    if isinstance(warm_start, QpSolution):
        warm_start = warm_start.active_set
    warm = () if warm_start is None else tuple(warm_start)
    C, d, linear = problem.C, problem.d, problem.linear
    for seed_rows in (warm, ()) if warm else ((),):
        try:
            u, lam, status, iterations, active = _solve_raw(
                problem.prepared.inv_hessian, linear, C, d, max_iterations, seed_rows
            )
        except np.linalg.LinAlgError:
            if not seed_rows:
                raise
            continue
        stationarity, feasibility, complementarity = _kkt_residuals(
            problem.prepared.hessian, linear, C, d, u, lam
        )
        kkt_residual = max(stationarity, complementarity)
        if status == OPTIMAL and (
            feasibility > FEASIBILITY_TOL or kkt_residual > STATIONARITY_TOL
        ):
            status = MAX_ITERATIONS
        if status == OPTIMAL:
            break
    return QpSolution(
        u_star=u,
        status=status,
        kkt_residual=kkt_residual,
        iterations=iterations,
        wall_clock=time.perf_counter() - start,
        multipliers=lam,
        active_set=active,
    )


def solve_with_slack(problem: QpProblem, slack_weight: float) -> QpSolution:
    """Relaxed re-solve for an infeasible problem: every row of A gets its own
    slack s >= 0, penalized by slack_weight * |s|^2, while the box bound
    stays hard.  The rows are [C | S; 0 | I] over (u, s), where S puts an
    identity beside the rows of A.

    u_star holds the original variables only, and active_set is empty.
    """
    start = time.perf_counter()
    m = problem.variables
    n_rows = problem.rows

    hessian = np.zeros((m + n_rows, m + n_rows))
    hessian[:m, :m] = problem.prepared.hessian
    hessian[m:, m:] = 2.0 * slack_weight * np.eye(n_rows)
    linear = np.concatenate([problem.linear, np.zeros(n_rows)])

    stacked = problem.C.shape[0]
    C = np.zeros((stacked + n_rows, m + n_rows))
    C[:stacked, :m] = problem.C
    C[:n_rows, m:] = np.eye(n_rows)
    C[stacked:, m:] = np.eye(n_rows)
    d = np.concatenate([problem.d, np.zeros(n_rows)])

    v, lam, status, iterations, _ = _solve_raw(_invert_spd(hessian), linear, C, d)
    stationarity, _, complementarity = _kkt_residuals(hessian, linear, C, d, v, lam)
    return QpSolution(
        u_star=v[:m],
        status=status,
        kkt_residual=max(stationarity, complementarity),
        iterations=iterations,
        wall_clock=time.perf_counter() - start,
        multipliers=lam,
        active_set=(),
    )


def kkt_check(problem: QpProblem, u, active_tol: float = 1e-6):
    """Independent first-order optimality certificate at a candidate point.

    Multipliers are recovered by nonnegative least squares on the rows active
    at u; returns (stationarity, feasibility, complementarity) residuals.
    """
    from scipy.optimize import nnls

    u = np.asarray(u, dtype=float).reshape(-1)
    if u.size != problem.variables:
        raise ValueError("candidate point has the wrong dimension")
    C, d = problem.C, problem.d
    gradient = problem.prepared.hessian @ u + problem.linear
    residual = C @ u - d
    feasibility = float(max(0.0, (-residual).max())) if residual.size else 0.0
    active = np.flatnonzero(np.abs(residual) <= active_tol * (1.0 + np.abs(d)))
    if active.size == 0:
        return float(np.abs(gradient).max()), feasibility, 0.0
    lam_active, _ = nnls(C[active].T, gradient)
    stationarity = float(np.abs(C[active].T @ lam_active - gradient).max())
    complementarity = float(np.abs(lam_active * residual[active]).max())
    return stationarity, feasibility, complementarity


def objective_value(problem: QpProblem, u) -> float:
    """||weight @ (u_nom - u)||^2 at a candidate point."""
    u = np.asarray(u, dtype=float).reshape(-1)
    r = problem.weight @ (problem.u_nom - u)
    return float(r @ r)

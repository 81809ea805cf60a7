"""Dense solver for strongly convex quadratic programs with inequality rows
and an infinity-norm box bound.

The algorithm is the Goldfarb-Idnani dual active-set method: from a
dual feasible start it adds violated constraints one at a time, farthest
first, with partial dual steps when a blocking multiplier would turn
negative.  For strictly convex problems this terminates finitely, returns
exact multipliers, and detects primal infeasibility when the dual becomes
unbounded.  A warm start bulk-loads the previous active set and prunes it
by LU until its multipliers are nonnegative, which makes the start dual
feasible.  A cold start loads a crash set, the rows farthest violated at
the unconstrained optimum (Bixby, "Implementing the simplex method: the
initial basis", ORSA J. Computing 1992), inverts B once, prunes by
downdates of B^-1 and of the multipliers, which it forms once per prune,
and tops the set up twice from the pruned point.  It keeps B^-1 by
rank-one updates from there, as a set grown from empty does; a crash
attempt that fails is redone from the empty set.  Row norms are computed
once per cold solve, with the crash set.

A QpProblem holds its stacked rows C u >= d and its linear term from
construction on; solve, solve_with_slack and kkt_check only read them.  The
slack re-solve runs the same loop, its slacks eliminated into B's diagonal.
kkt_check certifies a point on its own, by a Lawson-Hanson NNLS in numpy.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import InitVar, dataclass, field

import numpy as np

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
MAX_ITERATIONS = "max-iterations"

# A row is violated, and an optimal answer is accepted, within these;
# kkt_check counts a row as active within KKT_ACTIVE_TOL * (1 + |d|).
FEASIBILITY_TOL = 1e-8
STATIONARITY_TOL = 1e-8
KKT_ACTIVE_TOL = 1e-6

_DEPENDENCE_RTOL = 1e-12
_TIE_RTOL = 1e-12
_TOP_UP_RTOL = 1e-8
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
    inverse = np.linalg.inv(hessian)
    inv_hessian = 0.5 * (inverse + inverse.T)
    for arr in (matrix, hessian, inv_hessian):
        arr.setflags(write=False)
    return PreparedWeight(matrix, hessian, inv_hessian)


def stacked_rows(k: int, m: int, u_max: float):
    """A fresh writable pair C, d for k rows over m variables, with the box
    rows [I; -I] u >= -u_max below k rows left for the caller: C is zero
    above them, d unset.  -I is I negated, so -0.0 sits off its diagonal."""
    C = np.zeros((k + 2 * m, m))
    d = np.empty(k + 2 * m)
    box = C[k:].reshape(2, m * m)
    box[0, :: m + 1] = 1.0
    np.negative(box[0], out=box[1])
    d[k:] = -float(u_max)
    return C, d


@dataclass(frozen=True, eq=False)
class QpProblem:
    """min ||weight @ (u_nom - u)||^2  s.t.  A u >= b  and  |u|_inf <= u_max.

    weight is a PreparedWeight or a plain matrix, which is prepared on the
    spot; the problem's weight attribute is always the matrix and prepared
    holds its Hessian terms.  Construction also builds what every solve and
    check reads: the stacked rows C u >= d of stacked_rows with A and b on
    top, and the linear term -H u_nom of 0.5 u'Hu + linear'u.  A and b are
    views of the top rows of C and d; all arrays are read-only.
    stacked=True takes A and b as C and d themselves, as stacked_rows wrote
    their box rows, with no copy and no check of A: the filter passes the
    rows of assemble_constraints, where a non-finite block makes its row's
    margin, and so b, non-finite.
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
    stacked: InitVar[bool] = field(default=False, kw_only=True)

    def __post_init__(self, stacked: bool) -> None:
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
        k = rhs.size - 2 * m if stacked else rhs.size

        if prepared.matrix.shape != (m, m):
            raise ValueError(f"weight must be {m}x{m}, got {prepared.matrix.shape}")
        if matrix.shape[1] != m:
            raise ValueError(
                f"A has {matrix.shape[1]} columns but the problem has {m} variables"
            )
        if rhs.shape[0] != matrix.shape[0] or k < 0:
            raise ValueError("A and b disagree on the number of rows")
        for name, arr in (("u_nom", u_nom), ("A", None if stacked else matrix), ("b", rhs)):
            if arr is not None and not np.isfinite(arr).all():
                raise ValueError(f"{name} must be finite")
        if not (math.isfinite(self.u_max) and self.u_max > 0.0):
            raise ValueError(f"u_max must be finite and > 0, got {self.u_max!r}")

        u_max = float(self.u_max)
        C, d = matrix, rhs
        if not stacked:
            C, d = stacked_rows(k, m, u_max)
            C[:k], d[:k] = matrix, rhs
        u_nom = u_nom.copy()
        linear = -prepared.hessian @ u_nom
        for arr in (u_nom, C, d, linear):
            arr.setflags(write=False)
        object.__setattr__(self, "weight", prepared.matrix)
        object.__setattr__(self, "prepared", prepared)
        object.__setattr__(self, "u_nom", u_nom)
        object.__setattr__(self, "A", C[:k])
        object.__setattr__(self, "b", d[:k])
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
    is the larger of the stationarity and complementarity residuals.
    Its arrays are read-only, checked at construction and so by
    dataclasses.replace.  u_star and multipliers are 1-D float64 arrays:
    any 1-D sequence of numbers, else ValueError.  active_set is an np.intp
    array: a tuple, list or 1-D array of integers or integral floats >= 0,
    else ValueError.  An array already read-only and of its field's dtype
    is kept; anything else is copied, so a caller's array is never frozen."""

    u_star: np.ndarray
    status: str
    kkt_residual: float
    iterations: int
    multipliers: np.ndarray
    active_set: np.ndarray

    def __post_init__(self) -> None:
        for name in ("u_star", "multipliers"):
            values = getattr(self, name)
            if not (isinstance(values, np.ndarray) and values.dtype == np.float64
                    and values.ndim == 1 and not values.flags.writeable):
                values = np.array(values, dtype=np.float64)
                if values.ndim != 1:
                    raise ValueError(f"{name} must be a 1-D float array, got {values!r}")
                values.setflags(write=False)
                object.__setattr__(self, name, values)
        rows = np.asarray(self.active_set)
        kind = rows.dtype.kind
        valid = rows.ndim == 1 and kind in "iuf"
        if valid and kind == "f":
            valid = (np.isfinite(rows) & (np.trunc(rows) == rows)).all()
        if valid and (rows.dtype != np.intp or rows.flags.writeable):
            rows = rows.astype(np.intp)
            rows.setflags(write=False)
        if not valid or rows.size and rows.min() < 0:
            raise ValueError(f"active_set must list integral row indices >= 0, got {rows!r}")
        object.__setattr__(self, "active_set", rows)


class _WorkingSet:
    """Active rows N (k x m), J N^T (m x k), B = N J N^T, its inverse Binv
    and multipliers lam, used through the leading k = size rows and columns
    of buffers for cap rows; cap doubles when full.  An empty set allocates
    cap = min(rows, variables); a bulk load's arrays are its set's buffers.
    Binv is kept while `inverse` holds: the set grew from empty, or invert
    formed it."""

    def __init__(self, inv_hessian: np.ndarray, C: np.ndarray, rows=()):
        self._J, self._C = inv_hessian, C
        self.indices, self._rows, self.inverse = [], None, True
        if len(rows):
            self.bulk_load(rows)
        else:
            self._allocate(min(C.shape[0], inv_hessian.shape[0]))

    def _allocate(self, cap: int) -> None:
        """Fresh buffers for cap rows that keep the active rows."""
        k, m = self.size, self._J.shape[0]
        binv = self._Binv[:k, :k] if k and self.inverse else 0.0  # no Binv after a bulk load
        kept = (self.N, self.JNt, self._B[:k, :k], binv, self.lam) if k else None
        self._N, self._JNt, self._lam = np.empty((cap, m)), np.empty((m, cap)), np.empty(cap)
        self._B, self._Binv = np.empty((cap, cap)), np.zeros((cap, cap))
        if k:
            (self._N[:k], self._JNt[:, :k], self._B[:k, :k], self._Binv[:k, :k],
             self._lam[:k]) = kept

    @property
    def size(self) -> int:
        return len(self.indices)

    @property
    def rows(self) -> np.ndarray:
        """The active indices as an np.intp array, built once per change."""
        if self._rows is None:
            self._rows = np.array(self.indices, dtype=np.intp)
        return self._rows

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
            # The leading k rows are contiguous, unlike the [:k, :k] view;
            # the zero padding leaves the finite columns past k as they are.
            padded = np.zeros(self._lam.size)
            padded[:k] = scaled
            self._Binv[:k] += np.multiply.outer(r_dir, padded)
            self._Binv[:k, k] = self._Binv[k, :k] = -scaled
            self._Binv[k, k] = 1.0 / schur
        self._N[k], self._JNt[:, k], self._lam[k] = c, Jc, lam
        self.indices.append(idx)
        self._rows = None

    def drop(self, pos: int) -> None:
        k = self.size
        del self.indices[pos]
        self._rows = None
        if self.inverse:  # on the contiguous leading rows, padded as in add
            Binv, row = self._Binv[:k], np.zeros(self._lam.size)
            row[:k] = Binv[pos, :k] / Binv[pos, pos]
            Binv -= np.multiply.outer(Binv[:, pos], row)
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

    def eq_multipliers(self, linear: np.ndarray, d: np.ndarray, lu=True) -> np.ndarray:
        """lam of the equality system on the active rows, by LU on B or else the
        kept inverse.  J N^T is copied out first: BLAS may round (J N^T)^T q
        differently on a strided view, which would change the last bits."""
        k, lam = self.size, self.lam
        if k:
            rhs = d.take(self.rows) + np.ascontiguousarray(self.JNt).T @ linear
            lam[:] = np.linalg.solve(self._B[:k, :k], rhs) if lu else self._Binv[:k, :k] @ rhs
        return lam

    def primal(self, linear: np.ndarray) -> np.ndarray:
        return self.JNt @ self.lam - self._J @ linear

    def invert(self) -> None:
        """Form B^-1 of the (one or more) active rows and keep it from here on.
        While a row depends on the others, its Schur complement 1 / B^-1_ii
        at most _DEPENDENCE_RTOL * B_ii (the loop's test for an entering
        row), the most dependent is dropped and B inverted again.  An
        exactly singular B raises LinAlgError."""
        self.inverse = False
        while True:
            k = self.size
            inverse = np.linalg.inv(self._B[:k, :k])
            scaled = self._B.diagonal()[:k] * inverse.diagonal()
            scaled[~(scaled > 0.0)] = math.inf
            worst = int(scaled.argmax())
            if scaled[worst] < 1.0 / _DEPENDENCE_RTOL:
                break
            self.drop(worst)
        self._Binv = np.zeros((self._lam.size,) * 2)
        self._Binv[:k, :k], self.inverse = inverse, True

    def bulk_load(self, rows: np.ndarray) -> None:
        """Load the rows at once, B in one product, and keep N, J N^T and B
        as they come; lam starts at zero.  Nothing is checked: solve loads
        at most as many rows as variables, and dependent rows are left to
        the LU of the first prune, to invert on a crash set and to solve's
        final optimality check."""
        N = self._C.take(rows, axis=0)
        JNt = self._J @ N.T
        B = N @ JNt
        self.indices, self._rows, self.inverse = rows.tolist(), rows, False
        self._N, self._JNt, self._B, self._lam = N, JNt, B, np.zeros(rows.size)


def _blocking_ratio(lam_w: np.ndarray, r_dir: np.ndarray):
    """Position and step length of the first active multiplier that a step
    along -r_dir drives to zero; (-1, inf) when no entry of r_dir is positive.
    Ties go to the lowest position.  The errstate that keeps an overflow
    quiet costs more than the divide, so only a tiny r_dir pays for it."""
    positive = (r_dir > 0.0).nonzero()[0]
    if not positive.size:
        return -1, math.inf
    r_pos = r_dir[positive]
    if r_pos.min() >= 1e-200:
        ratios = lam_w[positive] / r_pos
    else:  # a denormal r_dir can overflow a ratio to inf, which is kept
        with np.errstate(over="ignore"):
            ratios = lam_w[positive] / r_pos
    block = int(ratios.argmin())
    return int(positive[block]), ratios[block]


def _prune(ws: _WorkingSet, inv_hessian, linear, d) -> np.ndarray:
    """The multipliers, the least dropped while one is < 0; the primal point.
    On a kept inverse they are formed once and each drop of row p downdates
    them by lam -= B^-1[:, p] lam_p / B^-1_pp, exact on the column drop
    uses; on LU they are solved afresh after each drop."""
    lam_w = ws.eq_multipliers(linear, d, lu=not ws.inverse)
    while ws.size:
        if (lam_w >= 0.0).all():
            return ws.primal(linear)
        pos = int(np.argmin(lam_w))
        if ws.inverse:
            column = ws._Binv[: ws.size, pos]
            lam_w -= column * (lam_w[pos] / column[pos])
        ws.drop(pos)
        lam_w = ws.lam if ws.inverse else ws.eq_multipliers(linear, d)
    return -inv_hessian @ linear


def _residual(C, d, u, ws: _WorkingSet, soft) -> np.ndarray:
    """C u - d, plus soft * lam on the active rows when soft is given."""
    residual = C @ u - d
    if soft is not None:
        residual[ws.rows] += soft.take(ws.rows) * ws.lam
    return residual


def _crash_rows(C, d, u0, m, norms) -> np.ndarray:
    """The crash set of a cold start: of the rows violated at u0, the
    m // 2 of least residual / |c|, zero rows left out, in ascending row
    order, |c| read off norms, the row norms of C.  Distances within a
    relative _TIE_RTOL of the cut go to the lower rows, so rounding cannot
    swap the rows of a symmetric start."""
    residual = C @ u0 - d
    violated = (residual < -FEASIBILITY_TOL).nonzero()[0]
    violated = violated[norms[violated] > 0.0]
    if violated.size > m // 2:  # at m // 2 = 0, kth -1 is valid and nothing is kept
        dist = residual[violated] / norms[violated]
        cut = np.partition(dist, m // 2 - 1)[m // 2 - 1]
        rank = (dist >= cut * (1.0 + _TIE_RTOL)).astype(int) + (dist > cut * (1.0 - _TIE_RTOL))
        violated = np.sort(violated[rank.argsort(kind="stable")[: m // 2]])
    return violated


def _top_up(ws: _WorkingSet, inv_hessian, linear, C, d, u, norms) -> np.ndarray:
    """Add the crash rows at u for the variables the set leaves free to the
    kept inverse, each whose Schur complement exceeds _TOP_UP_RTOL * c J c
    (the loop's 1e-12 admits nearly dependent rows, which can spoil the
    start); then prune.  The primal point."""
    for idx in _crash_rows(C, d, u, C.shape[1] - ws.size, norms).tolist():
        Jc = inv_hessian @ C[idx]
        w_vec, cJc = ws.N @ Jc, float(C[idx] @ Jc)
        r_dir = ws.solve_B(w_vec)
        schur = cJc - float(w_vec @ r_dir)
        if schur > _TOP_UP_RTOL * cJc:
            ws.add(idx, C[idx], Jc, w_vec, cJc, r_dir, schur, 0.0)
    return _prune(ws, inv_hessian, linear, d)


def _solve_raw(inv_hessian, linear, C, d, max_iter=None, warm=(), soft=None, crash=False,
               norms=None):
    """Dual active-set loop on min 0.5 u'Hu + q'u s.t. C u >= d, with
    inv_hessian = H^-1 precomputed by the caller.  max_iter defaults to
    10 * (variables + stacked rows).  warm is an np.intp array of at most
    variables row indices in [0, rows), bulk loaded; crash marks it as a
    crash set, inverted before its first prune and then topped up twice.
    norms is None or the row norms of C, which a crash set needs.
    soft, on a start from the empty set, is a per-row diagonal D >= 0 that
    lets row r fall short by s_r = D_r lam_r at the cost s_r^2 / (2 D_r);
    D_r adds to B's diagonal.

    The violated row of least residual / |c| enters by one dual step per
    iteration, the lesser of its full step, which adds it, and the step at
    which an active multiplier blocks, which drops that row.  A row that
    depends on the active rows has an infinite full step and no primal
    move; if nothing blocks, the problem is infeasible.  A cold start, from
    the empty set or a crash set, solves B with its kept inverse, else LU
    does; the final re-solve runs by LU on a crash set and after any
    iteration.  An active row read violated means the kept inverse
    drifted: a crash set is inverted afresh once, which drops the rows that
    became dependent; any other set is re-solved and pruned by LU and stays
    on LU, and one already on LU stops there.  A singular B met by LU or an
    inversion ends max-iterations at the last point reached, a NaN u before
    the first prune: nothing raises.

    Returns (u, full multipliers, status, iterations, the final working
    set, residual C u - d + D lam at that u).
    """
    if max_iter is None:
        max_iter = 10 * (C.shape[1] + C.shape[0])
    ws = _WorkingSet(inv_hessian, C, warm)
    u, iterations, status, refresh = None, 0, OPTIMAL, crash
    try:
        if crash:
            ws.invert()
        u = _prune(ws, inv_hessian, linear, d)
        for _ in range(2 if crash else 0):
            u = _top_up(ws, inv_hessian, linear, C, d, u, norms)
        while status == OPTIMAL:
            residual = _residual(C, d, u, ws, soft)
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
                # Only an ill-conditioned set leaves an active row violated.
                if not ws.inverse:
                    status = MAX_ITERATIONS
                    break
                ws.inverse = False
                if refresh:  # once: the loop has entered a nearly dependent row
                    ws.invert()
                    refresh = False
                u = _prune(ws, inv_hessian, linear, d)
                continue
            c, d_r = C[worst], d[worst]
            soft_r = 0.0 if soft is None else soft[worst]
            Jc = inv_hessian @ c
            cJc = float(c @ Jc) + soft_r
            lam_new = 0.0
            while True:
                iterations += 1
                if iterations > max_iter:
                    status = MAX_ITERATIONS
                    break
                lam_w = ws.lam
                w_vec = ws.N @ Jc
                r_dir = ws.solve_B(w_vec)
                schur = cJc - float(w_vec @ r_dir)
                block, t = _blocking_ratio(lam_w, r_dir)
                enter = False
                if schur <= _DEPENDENCE_RTOL * max(cJc, 1e-300):
                    # Dependent row: infinite full step, no primal move.
                    if block < 0:
                        status = INFEASIBLE
                        break
                else:
                    violation = float(c @ u - d_r)
                    if soft_r:
                        violation += soft_r * lam_new
                    t_full = -violation / schur
                    enter = t_full <= t  # NaN compares false
                    t = min(t_full, t)
                    u = u + t * (Jc - ws.JNt @ r_dir)
                lam_w -= t * r_dir
                lam_new += t
                if enter:
                    ws.add(worst, c, Jc, w_vec, cJc, r_dir, schur, lam_new)
                    break
                ws.drop(block)

        if status == OPTIMAL and ws.size and (iterations or crash):
            # Re-solve the final equality system against the drift of the
            # updates; a warm set with no iterations has just solved it.
            ws.eq_multipliers(linear, d)
            u = ws.primal(linear)
    except np.linalg.LinAlgError:
        # LU or the inversion met a singular B: stop at the last point reached.
        status = MAX_ITERATIONS
        u = np.full(C.shape[1], math.nan) if u is None else u
    if status != OPTIMAL or ws.size and (iterations or crash):
        residual = _residual(C, d, u, ws, soft)  # u moved since the last one

    lam_full = np.zeros(C.shape[0])
    lam_full[ws.rows] = ws.lam
    return u, lam_full, status, iterations, ws, residual


def _kkt_residuals(hessian, linear, u, residual, ws):
    """(stationarity, feasibility, complementarity) at u.  Only the active
    rows carry multipliers, so only ws.N and ws.lam enter C^T lam."""
    gradient = hessian @ u + linear
    feasibility = float(max(0.0, -residual.min())) if residual.size else 0.0
    if not ws.size:
        return float(np.abs(gradient).max()), feasibility, 0.0
    lam_a = ws.lam
    stationarity = float(np.abs(gradient - ws.N.T @ lam_a).max())
    complementarity = float(np.abs(lam_a * residual.take(ws.rows)).max())
    return stationarity, feasibility, max(complementarity, -float(lam_a.min()))


def _solution(problem: QpProblem, raw, slack=False) -> QpSolution:
    """One _solve_raw run as a QpSolution: arrays frozen, the KKT report
    read off the active rows, and an optimal u that is not finite refused
    as max-iterations.  solve's answers must also meet its tolerances; a
    slack answer keeps the loop's verdict, active_set empty."""
    u, lam, status, iterations, ws, residual = raw
    stationarity, feasibility, complementarity = _kkt_residuals(
        problem.prepared.hessian, problem.linear, u, residual, ws)
    kkt_residual = max(stationarity, complementarity)
    # Written to accept, as NaN fails every comparison; a finite u has
    # finite multipliers and residuals.
    if status == OPTIMAL and not (np.isfinite(u).all() and (slack or (
            feasibility <= FEASIBILITY_TOL and kkt_residual <= STATIONARITY_TOL))):
        status = MAX_ITERATIONS
    for arr in (u, lam, ws.rows):
        arr.setflags(write=False)
    return QpSolution(u_star=u, status=status, kkt_residual=kkt_residual, iterations=iterations,
                      multipliers=lam, active_set=() if slack else ws.rows)


def _seeds(problem: QpProblem, warm):
    """The (rows, crash, norms) seeds solve tries in turn: a warm seed of at
    most as many rows as variables, then the crash set if it is not empty,
    then the empty set.  The crash set, and with it the row norms that the
    later attempts share, is found only when it is tried."""
    if 0 < len(warm) <= problem.variables:
        yield warm, False, None
    u0 = -problem.prepared.inv_hessian @ problem.linear
    norms = np.sqrt(np.einsum("ij,ij->i", problem.C, problem.C))
    crash = _crash_rows(problem.C, problem.d, u0, problem.variables, norms)
    if crash.size:
        yield crash, True, norms
    yield (), False, norms


def solve(problem: QpProblem, max_iterations: int | None = None, warm_start=None) -> QpSolution:
    """Solve the box-and-rows QP.

    max_iterations caps the dual steps; None means 10 * (variables + stacked
    rows).  warm_start is None or a previous QpSolution (else TypeError):
    the rows of its active_set inside this problem's stacked rows seed the
    active set, in their order.  A seed of more rows than variables is
    dependent and skipped before any product, and a warm attempt that does
    not end optimal (an exactly singular or nearly dependent B) is redone
    cold: either way the answer has the cold solve's bits.  Otherwise it
    agrees with a cold solve's to about 1e-9, but can differ in the last
    bits: the bulk load forms B in one product and solves it by LU.

    A cold solve starts from the m // 2 rows farthest violated at the
    unconstrained optimum, inverted, pruned and topped up by _solve_raw.
    That start is dual feasible, so a crash attempt that ends infeasible is
    final; any other that is not optimal is redone from the empty set.  An
    answer is optimal only when u is finite and its feasibility and KKT
    residuals are within FEASIBILITY_TOL and STATIONARITY_TOL; any other is
    reported as max-iterations.  A finite problem never raises:
    infeasibility, the iteration cap and a singular B are reported through
    the status.
    """
    if not (warm_start is None or isinstance(warm_start, QpSolution)):
        raise TypeError(f"warm_start must be a QpSolution or None, got {warm_start!r}")
    C, d, inv_hessian = problem.C, problem.d, problem.prepared.inv_hessian
    seed = () if warm_start is None else warm_start.active_set
    warm = seed[seed < C.shape[0]] if len(seed) else ()
    for rows, crash, norms in _seeds(problem, warm):
        raw = _solve_raw(inv_hessian, problem.linear, C, d, max_iterations, rows, crash=crash,
                         norms=norms)
        solution = _solution(problem, raw)
        if solution.status == OPTIMAL or crash and solution.status == INFEASIBLE:
            break
    return solution


def solve_with_slack(problem: QpProblem, slack_weight: float) -> QpSolution:
    """Relaxed re-solve for an infeasible problem: every row of A gets its own
    slack s >= 0, penalized by slack_weight * |s|^2, while the box bound
    stays hard.  The loop runs over u alone with s = lam / (2 slack_weight)
    eliminated; the dual method keeps lam >= 0, so s >= 0 needs no rows.
    The KKT report covers u, and active_set is empty.  The status is the
    loop's, a non-finite u refused; solve's tolerances do not apply, since
    complementarity grows with |lam|, which is large at large weights."""
    soft = np.zeros(problem.C.shape[0])
    soft[: problem.rows] = 1.0 / (2.0 * slack_weight)
    raw = _solve_raw(problem.prepared.inv_hessian, problem.linear, problem.C, problem.d, soft=soft)
    return _solution(problem, raw, slack=True)


def _passive_lstsq(A: np.ndarray, b: np.ndarray, passive: np.ndarray) -> np.ndarray:
    """Minimum-norm least squares of b on the passive columns of A, zero on
    the others."""
    z = np.zeros(A.shape[1])
    z[passive] = np.linalg.lstsq(A[:, passive], b, rcond=None)[0]
    return z


def _nnls(A: np.ndarray, b: np.ndarray) -> np.ndarray:
    """argmin ||A x - b|| over x >= 0 by Lawson and Hanson's active-set
    method ("Solving Least Squares Problems", 1974), in numpy.

    Every column starts passive: least squares on the passive columns,
    dropping those whose coefficient is not positive, until all are, so a
    positive unconstrained minimiser costs one solve.  The classic loop
    then adds the column of largest gradient A^T (b - A x) above a rounding
    floor, and while a passive coefficient is not positive steps from x
    towards the new solve until the first one reaches zero and drops it.
    A column whose own coefficient is not positive as it enters is left out
    until x moves.  Each solve counts as an iteration; more than 3 * columns
    raise RuntimeError, as scipy.optimize.nnls does.
    """
    n = A.shape[1]
    budget = 3 * n
    floor = 10.0 * max(A.shape) * np.finfo(float).eps
    floor *= float(np.abs(A).max(initial=0.0)) * float(np.abs(b).max(initial=0.0))
    spent = 0

    def solve_passive(passive):
        nonlocal spent
        spent += 1
        if spent > budget:
            raise RuntimeError(f"nonnegative least squares hit its iteration cap of {budget}")
        return _passive_lstsq(A, b, passive)

    x, passive = np.zeros(n), np.ones(n, dtype=bool)
    while passive.any():
        z = solve_passive(passive)
        if (z[passive] > 0.0).all():
            x = z
            break
        passive &= z > 0.0
    left_out = np.zeros(n, dtype=bool)
    while True:
        gain = A.T @ (b - A @ x)
        gain[passive | left_out] = -np.inf
        if not (gain > floor).any():
            return x
        enter = int(gain.argmax())
        passive[enter] = True
        z = solve_passive(passive)
        if z[enter] <= 0.0:
            passive[enter] = False
            left_out[enter] = True
            continue
        left_out[:] = False
        while (z[passive] <= 0.0).any():
            # Passive x is positive here, so no ratio divides by zero.
            blocked = np.flatnonzero(passive & (z <= 0.0))
            ratios = x[blocked] / (x[blocked] - z[blocked])
            first = int(ratios.argmin())
            x = x + ratios[first] * (z - x)
            x[blocked[first]] = 0.0
            passive &= x > 0.0
            x[~passive] = 0.0
            z = solve_passive(passive)
        x = z


def kkt_check(problem: QpProblem, u):
    """Independent first-order optimality certificate at a candidate point.

    Multipliers are recovered by nonnegative least squares (_nnls) on the
    rows active at u within KKT_ACTIVE_TOL; returns (stationarity,
    feasibility, complementarity) residuals.  A candidate of the wrong
    dimension, or not finite, raises ValueError.
    """
    u = np.asarray(u, dtype=float).reshape(-1)
    if u.size != problem.variables:
        raise ValueError("candidate point has the wrong dimension")
    if not np.isfinite(u).all():
        raise ValueError("candidate point must be finite")
    C, d = problem.C, problem.d
    gradient = problem.prepared.hessian @ u + problem.linear
    residual = C @ u - d
    feasibility = float(max(0.0, (-residual).max())) if residual.size else 0.0
    active = np.flatnonzero(np.abs(residual) <= KKT_ACTIVE_TOL * (1.0 + np.abs(d)))
    if active.size == 0:
        return float(np.abs(gradient).max()), feasibility, 0.0
    rows = C[active]
    lam_active = _nnls(rows.T, gradient)
    stationarity = float(np.abs(rows.T @ lam_active - gradient).max())
    complementarity = float(np.abs(lam_active * residual[active]).max())
    return stationarity, feasibility, complementarity

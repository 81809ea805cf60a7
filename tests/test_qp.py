import functools
import itertools
import math
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest

from robustcbf import (
    BarrierParams,
    FilterConfig,
    HullUnion,
    QpProblem,
    QpSolution,
    RobotGeometry,
    assemble_constraints,
    circle_init,
    ensemble_weight,
    filter_step,
    kkt_check,
    nominal_controller,
    output_point,
    solve,
    symmetric_box,
)
from robustcbf import qp, safety_filter
from robustcbf.cli import load_config
from robustcbf.sim import nominal_commands, run_scenario
from robustcbf.qp import (
    INFEASIBLE, MAX_ITERATIONS, OPTIMAL, _blocking_ratio, _solve_raw, _solution, _WorkingSet
)

from .conftest import (
    BASE_LENGTH, DIAMETER, GAMMA, LOOK_AHEAD, SCENARIO_DIR, U_MAX, WHEEL_RADIUS, congested_poses
)
from .oracles import (
    ReallocatingWorkingSet,
    crash_rows,
    decoupled_margin_constraints,
    farthest_violated_row,
    full_row_kkt,
    projected_gradient_qp,
    qp_objective,
    reference_cold_solve,
    reference_dual_active_set,
    reference_kkt_check,
    reference_prune,
    reference_slack_solve,
    slack_system,
    strided_drop,
)


def random_orthogonal(rng, n):
    q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    return q


def random_problem(rng, m=None, rows=None, u_max=25.0):
    """Strongly convex, feasible by construction: b backs off from a point
    strictly inside the box."""
    m = m if m is not None else int(rng.integers(1, 7))
    rows = rows if rows is not None else int(rng.integers(0, 11))
    basis = random_orthogonal(rng, m)
    weight = basis @ np.diag(rng.uniform(0.5, 2.0, size=m)) @ basis.T
    u_nom = rng.uniform(-1.5 * u_max, 1.5 * u_max, size=m)
    A = rng.normal(size=(rows, m))
    interior = rng.uniform(-0.5 * u_max, 0.5 * u_max, size=m)
    b = A @ interior - rng.uniform(0.1, 5.0, size=rows)
    return QpProblem(weight, u_nom, A, b, u_max)


def congested_problem(radius):
    """The cold QP of 22 circle22 robots on a start circle of the given
    radius, each driving toward its antipodal goal; radius 0.6 is the
    scenario's own first step."""
    cfg = load_config(SCENARIO_DIR / "circle22.yaml").filter_config()
    geom = cfg.geometry
    states = circle_init(22, radius, geom, cfg.barrier)
    nominal = [
        nominal_controller(s, -output_point(s, geom), 1.0, geom, cfg.u_max) for s in states
    ]
    cs = assemble_constraints(states, geom, cfg.barrier, cfg.disturbance, cfg.u_max)
    u_nom = np.array([[c.omega_r, c.omega_l] for c in nominal]).reshape(-1)
    return QpProblem(cfg.plan(22).weight, u_nom, cs.A, cs.b, cfg.u_max)


def infeasible_problems():
    """The problems of TestInfeasible: no point meets every row."""
    one = np.eye(1)
    return [
        QpProblem(one, np.zeros(1), np.array([[1.0], [-1.0]]), np.array([1.0, 1.0]), 25.0),
        QpProblem(one, np.zeros(1), np.array([[1.0]]), np.array([30.0]), 25.0),
        QpProblem(
            np.eye(2), np.zeros(2), np.array([[1.0, 1.0], [-1.0, -1.0]]), np.full(2, 2.0), 25.0
        ),
    ]


def parallel_row_problem(rng, m=4, rows=5):
    """A random problem whose rows each come with a half-scale copy that is
    tighter but less violated: once the original row is active, its copy
    is dependent on the active set."""
    base = random_problem(rng, m=m, rows=rows)
    A = np.vstack([base.A, 0.5 * base.A])
    b = np.concatenate([base.b, 0.5 * base.b + 0.01])
    return QpProblem(base.weight, base.u_nom, A, b, base.u_max)


def summed_row_problem(rng, m=4, rows=5):
    """A random problem with one extra row per base row: the sum of two
    base rows, a little tighter than their sum.  Once both parts are
    active, the sum is dependent on the active set."""
    base = random_problem(rng, m=m, rows=rows)
    pairs = rng.integers(0, rows, size=(rows, 2))
    A = np.vstack([base.A, base.A[pairs[:, 0]] + base.A[pairs[:, 1]]])
    b = np.concatenate([base.b, base.b[pairs[:, 0]] + base.b[pairs[:, 1]] + 0.01])
    return QpProblem(base.weight, base.u_nom, A, b, base.u_max)


def cold_seed(problem):
    """The crash set a cold solve of problem loads, by the oracle."""
    u0 = -problem.prepared.inv_hessian @ problem.linear
    return crash_rows(problem.C, problem.d, u0, problem.variables)


def from_empty(problem):
    """The raw result of the loop from the empty set on problem, which a
    cold solve runs only after its crash attempt; imported, so a patched
    qp._solve_raw does not see it."""
    return _solve_raw(problem.prepared.inv_hessian, problem.linear, problem.C, problem.d,
                      warm=())


def assert_matches_reference(problem, max_iterations=None, warm_start=None):
    """qp.solve takes the steps of the reallocating reference solver with
    the same entering rule and seed: the same status, active set and
    iteration count, with u_star and multipliers within 1e-9.  A warm seed
    that loads seeds the reference; otherwise the oracle's crash set does,
    and a crash run that ends max-iterations is redone from the empty set,
    as solve does.  Uncapped, it also ends in the status of the
    raw-selection reference, and at its u_star when optimal."""
    sol = solve(problem, max_iterations=max_iterations, warm_start=warm_start)
    seed = [] if warm_start is None else warm_start.active_set.tolist()
    seed = [i for i in seed if i < problem.C.shape[0]]
    if 0 < len(seed) <= problem.variables:
        ref = reference_dual_active_set(problem, max_iterations, seed, farthest_violated_row)
    else:
        ref = reference_cold_solve(problem, max_iterations)
    assert sol.status == ref.status
    assert sol.active_set.tolist() == list(ref.active_set)
    assert sol.iterations == ref.iterations
    np.testing.assert_allclose(sol.u_star, ref.u_star, rtol=0.0, atol=1e-9)
    np.testing.assert_allclose(sol.multipliers, ref.multipliers, rtol=0.0, atol=1e-9)
    if max_iterations is None:
        raw = reference_dual_active_set(problem, None, warm_start)
        assert sol.status == raw.status
        if sol.status == OPTIMAL:
            np.testing.assert_allclose(sol.u_star, raw.u_star, rtol=0.0, atol=1e-9)
    return sol, ref


class TestReferenceBitIdentity:
    """The solver against the frozen reference: the same steps under the
    same entering rule, the same answer under the raw rule."""

    def test_random_problems_cold_and_warm(self, rng):
        for _ in range(40):
            problem = random_problem(rng, m=int(rng.integers(1, 8)), rows=int(rng.integers(0, 12)))
            cold, _ = assert_matches_reference(problem)
            assert_matches_reference(problem, warm_start=cold)
            nudged = QpProblem(
                problem.weight, problem.u_nom + 1e-3, problem.A, problem.b, problem.u_max
            )
            assert_matches_reference(problem, warm_start=solve(nudged))
            assert_matches_reference(nudged, warm_start=cold)

    def test_active_sets_of_any_form_warm_start_alike(self, rng):
        problem = random_problem(rng, m=5, rows=9)
        n_rows = problem.rows + 2 * problem.variables
        cold = solve(problem)
        picks = np.array(list(cold.active_set) + [n_rows, n_rows + 3, 2], dtype=np.int64)
        forms = (picks, picks.astype(np.int32), picks.tolist(), tuple(picks.tolist()),
                 [float(i) for i in picks])
        seeds = [replace(cold, active_set=form) for form in forms]
        for seed in seeds:
            assert seed.active_set.dtype == np.intp and not seed.active_set.flags.writeable
            assert seed.active_set.tolist() == picks.tolist()
        first, *others = [assert_matches_reference(problem, warm_start=seed)[0] for seed in seeds]
        for sol in others:
            assert sol.u_star.tobytes() == first.u_star.tobytes()
            assert sol.multipliers.tobytes() == first.multipliers.tobytes()
            assert sol.active_set.tolist() == first.active_set.tolist()
            assert sol.iterations == first.iterations
            assert sol.status == first.status

    def test_congested_22_robot_starts_cold(self):
        # The raw rule takes 110 iterations on both starts from the empty
        # set; the distance rule from the crash start 0 at radius 0.6 and 19
        # at radius 0.5 (24 and 66 from the empty set).
        for radius, share in ((0.6, 1 / 2), (0.5, 2 / 3)):
            problem = congested_problem(radius)
            sol, _ = assert_matches_reference(problem)
            assert sol.status == OPTIMAL
            raw = reference_dual_active_set(problem)
            assert raw.iterations >= 100
            assert sol.iterations <= share * raw.iterations

    def test_congested_22_robot_warm_from_the_other_start(self):
        wide, tight = congested_problem(0.6), congested_problem(0.5)
        assert_matches_reference(tight, warm_start=solve(wide))
        assert_matches_reference(wide, warm_start=solve(tight))

    def test_summed_rows_take_the_dependent_dual_step(self, rng):
        steps = 0
        for _ in range(15):
            problem = summed_row_problem(rng)
            cold, ref = assert_matches_reference(problem)
            assert cold.status == OPTIMAL
            steps += ref.dependent_steps
        assert steps > 0
        # u0 >= 3 enters, then u1 >= 1; u0 + u1 >= 4.1 is then violated and
        # dependent on both, so a dual-only step drops u1 >= 1 before the
        # sum enters.
        problem = QpProblem(
            np.eye(2),
            np.zeros(2),
            np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]),
            np.array([3.0, 1.0, 4.1]),
            25.0,
        )
        sol, ref = assert_matches_reference(problem)
        assert ref.dependent_steps == 1
        assert sol.active_set.tolist() == [0, 2]
        np.testing.assert_allclose(sol.u_star, [3.0, 1.1], rtol=0.0, atol=1e-12)

    def test_dependent_warm_set_solves_cold(self, rng):
        # A repeated row, and a row with its half-scale copy: B is exactly
        # singular, the first prune's LU rejects these seeds, and the answer
        # is the cold solve's bit for bit.
        problem = parallel_row_problem(rng)
        cold, _ = assert_matches_reference(problem)
        for warm in ([0, 0], [0, problem.rows // 2], [1, 1, 2, problem.rows // 2 + 1]):
            sol = solve(problem, warm_start=replace(cold, active_set=warm))
            assert sol.u_star.tobytes() == cold.u_star.tobytes()
            assert sol.multipliers.tobytes() == cold.multipliers.tobytes()
            assert sol.active_set.tolist() == cold.active_set.tolist()
            assert sol.iterations == cold.iterations
            assert sol.status == cold.status

    def test_infeasible_problems(self):
        for problem in infeasible_problems():
            sol, _ = assert_matches_reference(problem)
            assert sol.status == INFEASIBLE
            assert_matches_reference(problem, max_iterations=3)

    def test_max_iteration_cap(self, rng):
        for cap in (0, 1, 2, 5):
            for _ in range(5):
                assert_matches_reference(random_problem(rng, m=6, rows=10), max_iterations=cap)
        sol, _ = assert_matches_reference(congested_problem(0.5), max_iterations=10)
        assert sol.status == MAX_ITERATIONS

    def test_warm_start_from_the_optimum_needs_no_iterations(self, rng):
        problems = [random_problem(rng, m=5, rows=9) for _ in range(10)]
        for problem in problems + [congested_problem(0.6)]:
            cold = solve(problem)
            warm, _ = assert_matches_reference(problem, warm_start=cold)
            assert warm.iterations == 0
            np.testing.assert_allclose(warm.u_star, cold.u_star, rtol=0.0, atol=1e-9)


class TestWorkingSetCapacity:
    def test_every_variable_clamped_fills_the_working_set(self):
        u_nom = np.array([40.0, -40.0, 33.0, -30.0])
        problem = QpProblem(np.eye(4), u_nom, np.zeros((0, 4)), np.zeros(0), 25.0)
        sol, _ = assert_matches_reference(problem)
        assert len(sol.active_set) == problem.variables
        np.testing.assert_array_equal(sol.u_star, np.clip(u_nom, -25.0, 25.0))
        warm, _ = assert_matches_reference(problem, warm_start=sol)
        assert warm.iterations == 0

    def test_growth_past_capacity_keeps_the_rows(self, rng):
        problem = random_problem(rng, m=8, rows=6)
        J, C = problem.prepared.inv_hessian, problem.C
        ws = _WorkingSet(J, C)
        ws._allocate(3)  # seven independent rows against a capacity of three
        ref = ReallocatingWorkingSet(J, C)
        order = [4, 0, 7, 2, 9, 5, 1]
        for lam, idx in enumerate(order):
            c, Jc = C[idx], J @ C[idx]
            w_vec, cJc = ws.N @ Jc, float(c @ Jc)
            r_dir = ws.solve_B(w_vec)
            ws.add(idx, c, Jc, w_vec, cJc, r_dir, cJc - float(w_vec @ r_dir), float(lam))
            ref.add(idx, c, Jc)
        lam = np.arange(len(order), dtype=float)
        for pos in (None, 2, 0, 3):
            if pos is not None:
                ws.drop(pos)
                ref.drop(pos)
                lam = np.delete(lam, pos)
            k = ref.size
            assert ws.indices == ref.indices
            assert ws.N.tobytes() == ref.N.tobytes()
            assert np.ascontiguousarray(ws.JNt).tobytes() == ref.JNt.tobytes()
            assert np.ascontiguousarray(ws._B[:k, :k]).tobytes() == ref._B.tobytes()
            assert ws.lam.tobytes() == lam.tobytes()
            assert ws.inverse
            np.testing.assert_allclose(
                ws._Binv[:k, :k] @ ws._B[:k, :k], np.eye(k), rtol=0.0, atol=1e-10
            )


class TestKeptInverse:
    @staticmethod
    def recorded(monkeypatch, run):
        """run() and the working sets it made, which count their drops."""
        sets = []

        class Recording(_WorkingSet):
            drops = 0

            def __init__(self, *args):
                super().__init__(*args)
                sets.append(self)

            def drop(self, pos):
                self.drops += 1
                super().drop(pos)

        with monkeypatch.context() as patch:
            patch.setattr(qp, "_WorkingSet", Recording)
            out = run()
        return out, sets

    def test_long_cold_solves_keep_it_accurate(self, rng, monkeypatch):
        # The loop from the empty set, which a cold solve runs when its
        # crash set is dependent or fails.
        drops = []
        for _ in range(5):
            problem = summed_row_problem(rng, m=20, rows=60)
            raw, (ws,) = self.recorded(monkeypatch, lambda: from_empty(problem))
            assert raw[2] == OPTIMAL
            assert ws.inverse
            k = ws.size
            np.testing.assert_allclose(
                ws._Binv[:k, :k] @ ws._B[:k, :k], np.eye(k), rtol=0.0, atol=1e-10
            )
            drops.append(ws.drops)
        assert min(drops) >= 5 and sum(drops) >= 50

    def test_a_crash_set_keeps_it_accurate(self, monkeypatch):
        # Loaded and inverted once, pruned by downdates and topped up by
        # rank-one adds, then 19 iterations of them at radius 0.5.
        for radius in (0.6, 0.5):
            problem = congested_problem(radius)
            sol, (ws,) = self.recorded(monkeypatch, lambda: solve(problem))
            assert sol.status == OPTIMAL and ws.inverse
            k = ws.size
            np.testing.assert_allclose(
                ws._Binv[:k, :k] @ ws._B[:k, :k], np.eye(k), rtol=0.0, atol=1e-10
            )

    def test_drop_downdates_as_the_strided_form_did(self, rng):
        # The downdate runs on the contiguous leading rows with a zero-padded
        # row; entry by entry it is the same arithmetic as the old in-place
        # downdate of the strided [:k, :k] view, so the bits stay.
        class Strided(_WorkingSet):
            def drop(self, pos):
                strided_drop(self._Binv, self.size, pos)
                self.inverse = False  # the rest of drop, with B^-1 done above
                super().drop(pos)
                self.inverse = True

        problem = random_problem(rng, m=8, rows=6)
        J, C = problem.prepared.inv_hessian, problem.C
        sets = (_WorkingSet(J, C), Strided(J, C))
        for ws in sets:
            ws._allocate(3)  # grows twice on the way
        script = [("add", 4), ("add", 0), ("add", 7), ("add", 2), ("drop", 1), ("add", 9),
                  ("add", 5), ("drop", 4), ("add", 1), ("drop", 0), ("add", 11), ("add", 3),
                  ("drop", 3), ("drop", 0), ("add", 6), ("add", 13), ("add", 12)]
        for step, arg in script:
            for ws in sets:
                if step == "drop":
                    ws.drop(arg)
                    continue
                c, Jc = C[arg], J @ C[arg]
                w_vec, cJc = ws.N @ Jc, float(c @ Jc)
                r_dir = ws.solve_B(w_vec)
                ws.add(arg, c, Jc, w_vec, cJc, r_dir, cJc - float(w_vec @ r_dir), 1.0)
            k = sets[0].size
            assert sets[0].indices == sets[1].indices and sets[0].inverse
            assert sets[0]._Binv[:k, :k].tobytes() == sets[1]._Binv[:k, :k].tobytes()
        assert k == 7 and sets[0]._lam.size == 12
        np.testing.assert_allclose(sets[0]._Binv[:k, :k] @ sets[0]._B[:k, :k], np.eye(k),
                                   rtol=0.0, atol=1e-10)

    def test_bulk_loaded_warm_set_solves_by_lu(self, monkeypatch):
        problem = congested_problem(0.6)
        cold, (ws,) = self.recorded(monkeypatch, lambda: solve(problem))
        assert ws.inverse
        warm, (ws,) = self.recorded(monkeypatch, lambda: solve(problem, warm_start=cold))
        assert not ws.inverse
        assert warm.iterations == 0


@pytest.fixture(scope="class")
def warm_steps():
    """{iterations: (problem, seed)} of the first circle22 warm step that
    ends optimal after 0 and after 1 iteration; the one of no iteration
    keeps the previous step's active set."""
    cfg = replace(load_config(SCENARIO_DIR / "circle22.yaml"), sim_duration=1.0, iterations=1)
    steps, real = [], qp.solve

    def recording(problem, max_iterations=None, warm_start=None):
        sol = real(problem, max_iterations, warm_start)
        steps.append((problem, warm_start, sol))
        return sol

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(qp, "solve", recording)
        run_scenario(cfg)
    found = {}
    for problem, warm, sol in steps:
        if warm is None or not warm.active_set.size or sol.status != OPTIMAL:
            continue
        if sol.iterations == 0 and np.array_equal(sol.active_set, warm.active_set):
            found.setdefault(0, (problem, warm))
        elif sol.iterations == 1:
            found.setdefault(1, (problem, warm))
    assert set(found) == {0, 1}, "no such warm steps in the first 200 steps"
    return found


class TestZeroIterationWarmStep:
    """A warm step that needs no iteration loads its active set once and
    factorizes it once: one LU multiplier solve, no Cholesky dependence
    test, no inversion and no buffer allocation.  A warm step of one
    iteration also inverts nothing: the inversion is for crash sets."""

    @staticmethod
    def counted(monkeypatch, *targets):
        calls = {}
        for owner, name in targets:
            real = getattr(owner, name)

            def counting(*args, _name=name, _real=real, **kwargs):
                calls[_name] += 1
                return _real(*args, **kwargs)

            calls[name] = 0
            monkeypatch.setattr(owner, name, counting)
        return calls

    def test_one_factorization_each_and_no_allocation(self, monkeypatch, warm_steps):
        problem, seed = warm_steps[0]
        calls = self.counted(
            monkeypatch,
            (np.linalg, "cholesky"),
            (np.linalg, "solve"),
            (np.linalg, "inv"),
            (qp._WorkingSet, "_allocate"),
        )
        warm = solve(problem, warm_start=seed)
        assert (warm.status, warm.iterations) == (OPTIMAL, 0)
        assert warm.active_set.tolist() == seed.active_set.tolist()
        assert calls == {"cholesky": 0, "solve": 1, "inv": 0, "_allocate": 0}
        # The loop from the empty set allocates its buffers up front and
        # factorizes nothing in bulk.
        calls.update(solve=0)
        cold = from_empty(problem)
        assert calls["_allocate"] >= 1 and calls["cholesky"] == 0 and calls["inv"] == 0
        np.testing.assert_allclose(warm.u_star, cold[0], rtol=0.0, atol=1e-9)

    def test_a_one_iteration_warm_step_inverts_nothing(self, monkeypatch, warm_steps):
        problem, seed = warm_steps[1]
        calls = self.counted(monkeypatch, (np.linalg, "solve"), (np.linalg, "inv"))
        warm = solve(problem, warm_start=seed)
        assert (warm.status, warm.iterations) == (OPTIMAL, 1)
        # The prune, the one step's B r = w and the final re-solve, each by LU.
        assert calls == {"solve": 3, "inv": 0}


class TestBlockingRatio:
    def test_no_positive_entry(self):
        for lam, r_dir in (
            (np.zeros(0), np.zeros(0)),
            (np.array([1.0, 2.0]), np.array([-1.0, 0.0])),
            (np.array([0.5]), np.array([-0.0])),
        ):
            assert _blocking_ratio(lam, r_dir) == (-1, math.inf)

    def test_ties_go_to_the_lowest_position(self):
        lam = np.array([3.0, 2.0, 1.0, 4.0])
        r_dir = np.array([-1.0, 1.0, 0.5, 2.0])
        block, t = _blocking_ratio(lam, r_dir)
        assert (block, t) == (1, 2.0)
        assert isinstance(block, int)

    def test_zero_multiplier_blocks_at_once(self):
        block, t = _blocking_ratio(np.array([1.0, 0.0, 0.0]), np.array([1.0, -1.0, 0.25]))
        assert (block, t) == (2, 0.0)

    def test_denormal_direction_overflows_quietly(self):
        # 0.5 / 5e-318 rounds to inf; the suite turns the overflow warning
        # numpy would raise into an error.
        block, t = _blocking_ratio(np.array([0.5, 2.0]), np.array([5e-318, 1.0]))
        assert (block, t) == (1, 2.0)


class TestActiveRowKktReport:
    """solve and solve_with_slack report KKT residuals from the residual
    _solve_raw returns and the rows and multipliers of the working set it
    ends with.  A recomputation over every stacked row (for the slack solve,
    every row of its dense (u, s) embedding) agrees within 1e-12 and gives
    each solve the same status; the report leaves the answer, multipliers
    and counts as the loop made them."""

    @staticmethod
    def recorded(monkeypatch):
        calls = []
        real = qp._solve_raw

        def recording(*args, **kwargs):
            out = real(*args, **kwargs)
            calls.append((args, kwargs, out))
            return out

        monkeypatch.setattr(qp, "_solve_raw", recording)
        return calls

    @staticmethod
    def assert_report(sol, full_kkt, args, out, u_star, downgrade=True, soft=None):
        _, linear, C, d = args[:4]
        u, lam, status, iterations, ws, residual = out
        # The working set's rows and multipliers are the active rows of C
        # and their entries of the full multipliers.
        rows = np.array(ws.indices, dtype=np.intp)
        expected = C @ u - d
        if soft is not None:  # an active soft row reads its slack soft * lam too
            expected[rows] += soft[rows] * lam[rows]
        assert residual.tobytes() == expected.tobytes()
        assert ws.rows.tobytes() == rows.tobytes()
        assert ws.N.tobytes() == C[rows].tobytes()
        assert ws.lam.tobytes() == lam[rows].tobytes()
        stationarity, feasibility, complementarity = full_kkt
        kkt = max(stationarity, complementarity)
        assert abs(sol.kkt_residual - kkt) <= 1e-12
        if downgrade and status == OPTIMAL and (feasibility > 1e-8 or kkt > 1e-8):
            status = MAX_ITERATIONS
        assert sol.status == status
        assert sol.u_star.tobytes() == u_star.tobytes()
        assert sol.multipliers.tobytes() == lam.tobytes()
        # The solution holds the loop's own arrays, frozen, not copies.
        assert sol.u_star is u_star and sol.multipliers is lam
        assert sol.iterations == iterations

    def test_cold_warm_capped_and_infeasible_solves(self, rng, monkeypatch):
        cases = []
        for _ in range(10):
            problem = random_problem(rng, m=6, rows=10)
            cases += [(problem, {}), (problem, {"warm_start": solve(problem)})]
            cases += [(problem, {"max_iterations": cap}) for cap in (0, 1, 2)]
        wide, tight = congested_problem(0.6), congested_problem(0.5)
        cases += [(wide, {}), (tight, {"warm_start": solve(wide)}), (wide, {"max_iterations": 20})]
        cases += [(problem, {}) for problem in infeasible_problems()]
        calls = self.recorded(monkeypatch)
        seen = set()
        for problem, kwargs in cases:
            sol = solve(problem, **kwargs)
            args, _, out = calls[-1]
            full_kkt = full_row_kkt(problem.prepared.hessian, *args[1:4], out[0], out[1])
            self.assert_report(sol, full_kkt, args, out, out[0])
            # solve hands over the working set's own read-only rows.
            assert sol.active_set is out[4].rows and not sol.active_set.flags.writeable
            assert sol.active_set.tolist() == out[4].indices
            seen.add(sol.status)
        assert seen == {OPTIMAL, MAX_ITERATIONS, INFEASIBLE}

    def test_slack_solve(self, monkeypatch):
        calls = self.recorded(monkeypatch)
        for problem in infeasible_problems() + [congested_problem(0.5)]:
            sol = qp.solve_with_slack(problem, 1e6)
            args, kwargs, out = calls[-1]
            # The loop runs on the problem's own rows, with 1 / (2 * 1e6) on
            # the diagonal of each row of A and 0 on the box rows.
            assert args[1] is problem.linear and args[2] is problem.C and args[3] is problem.d
            soft = kwargs["soft"]
            k = problem.rows
            assert soft.tobytes() == np.concatenate(
                [np.full(k, 1.0 / 2e6), np.zeros(2 * problem.variables)]
            ).tobytes()
            # The dense embedding's point is (u, s) with s = soft * lam on
            # the rows of A; the rows s >= 0 carry no multiplier.
            u, lam = out[0], out[1]
            point = np.concatenate([u, soft[:k] * lam[:k]])
            full_kkt = full_row_kkt(
                *slack_system(problem, 1e6), point, np.concatenate([lam, np.zeros(k)])
            )
            # solve_with_slack reports the loop's status as it ends.
            self.assert_report(sol, full_kkt, args, out, u, False, soft)
            assert sol.active_set.dtype == np.intp and sol.active_set.tolist() == []


class TestProblemValidation:
    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            QpProblem(np.eye(2), np.zeros(3), np.zeros((1, 2)), np.zeros(1), 1.0)
        with pytest.raises(ValueError):
            QpProblem(np.eye(2), np.zeros(2), np.zeros((1, 3)), np.zeros(1), 1.0)
        with pytest.raises(ValueError):
            QpProblem(np.eye(2), np.zeros(2), np.zeros((2, 2)), np.zeros(1), 1.0)

    def test_non_finite_data(self):
        with pytest.raises(ValueError):
            QpProblem(np.eye(2), np.array([np.nan, 0.0]), np.zeros((0, 2)), np.zeros(0), 1.0)

    def test_non_finite_rows_rejected(self):
        for A, b, name in ((np.array([[np.inf, 0.0]]), np.zeros(1), "A"),
                           (np.ones((1, 2)), np.array([np.nan]), "b")):
            with pytest.raises(ValueError, match=f"{name} must be finite"):
                QpProblem(np.eye(2), np.zeros(2), A, b, 1.0)

    def test_singular_weight_rejected(self):
        with pytest.raises(ValueError):
            QpProblem(np.zeros((2, 2)), np.zeros(2), np.zeros((0, 2)), np.zeros(0), 1.0)

    @pytest.mark.parametrize("weight, u_max, message", [
        (np.ones((2, 3)), 1.0, "weight must be a square matrix"),
        (np.diag([1.0, np.inf]), 1.0, "weight must be finite"),
        (np.eye(2), 0.0, "u_max must be finite and > 0"),
    ], ids=["non-square-weight", "non-finite-weight", "zero-u_max"])
    def test_weight_and_box_bound_are_checked(self, weight, u_max, message):
        with pytest.raises(ValueError, match=message):
            QpProblem(weight, np.zeros(2), np.zeros((0, 2)), np.zeros(0), u_max)

    def test_ill_conditioned_weight_warns(self):
        weight = np.diag([1.0, 1e-9])
        with pytest.warns(UserWarning):
            QpProblem(weight, np.zeros(2), np.zeros((0, 2)), np.zeros(0), 1.0)

    def test_stacked_rows_are_built_once_and_read_only(self, rng):
        A, b, u_nom = rng.normal(size=(3, 2)), rng.normal(size=3), np.array([1.0, -2.0])
        problem = QpProblem(np.eye(2), u_nom, A, b, 4.0)
        np.testing.assert_array_equal(problem.A, A)
        np.testing.assert_array_equal(problem.b, b)
        np.testing.assert_array_equal(problem.C, np.vstack([A, np.eye(2), -np.eye(2)]))
        np.testing.assert_array_equal(problem.d, np.concatenate([b, np.full(4, -4.0)]))
        np.testing.assert_array_equal(problem.linear, -2.0 * u_nom)
        assert np.shares_memory(problem.A, problem.C)
        assert np.shares_memory(problem.b, problem.d)
        for arr in (problem.C, problem.d, problem.linear, problem.A, problem.b):
            assert not arr.flags.writeable

    def test_problem_does_not_freeze_callers_arrays(self):
        A = np.ones((1, 2))
        QpProblem(np.eye(2), np.zeros(2), A, np.zeros(1), 1.0)
        A[0, 0] = 2.0  # caller's array stays writable


class TestScalarExamples:
    def test_clamped_projection(self):
        # min (u - 2)^2 s.t. u >= 3, |u| <= 25.
        problem = QpProblem(np.eye(1), np.array([2.0]), np.array([[1.0]]), np.array([3.0]), 25.0)
        sol = solve(problem)
        assert sol.status == OPTIMAL
        assert sol.u_star[0] == pytest.approx(3.0, abs=1e-10)

    def test_inactive_constraints_return_u_nom(self, rng):
        for _ in range(20):
            m = int(rng.integers(1, 5))
            weight = np.eye(m)
            u_nom = rng.uniform(-5.0, 5.0, size=m)
            A = rng.normal(size=(4, m))
            b = A @ u_nom - rng.uniform(1.0, 3.0, size=4)
            sol = solve(QpProblem(weight, u_nom, A, b, 25.0))
            assert sol.status == OPTIMAL
            np.testing.assert_allclose(sol.u_star, u_nom, atol=1e-8)

    def test_box_only_clamp(self):
        problem = QpProblem(np.eye(1), np.array([40.0]), np.zeros((0, 1)), np.zeros(0), 25.0)
        sol = solve(problem)
        assert sol.u_star[0] == pytest.approx(25.0, abs=1e-10)


class TestOracleAgreement:
    def test_matches_projected_gradient_oracle(self, rng):
        for _ in range(60):
            problem = random_problem(rng, m=4, rows=int(rng.integers(0, 7)))
            sol = solve(problem)
            assert sol.status == OPTIMAL
            _, oracle_obj = projected_gradient_qp(
                problem.weight, problem.u_nom, problem.A, problem.b, problem.u_max
            )
            assert qp_objective(problem, sol.u_star) == pytest.approx(
                oracle_obj, abs=1e-6
            )

    def test_kkt_residuals_at_oracle_solutions(self, rng):
        for _ in range(20):
            problem = random_problem(rng, m=3, rows=5)
            oracle_u, _ = projected_gradient_qp(
                problem.weight, problem.u_nom, problem.A, problem.b, problem.u_max
            )
            stationarity, feasibility, complementarity = kkt_check(problem, oracle_u)
            assert stationarity <= 1e-5
            assert feasibility <= 1e-5
            assert complementarity <= 1e-5


class TestKktCheck:
    def test_analytic_optimum(self):
        problem = QpProblem(np.eye(1), np.array([2.0]), np.array([[1.0]]), np.array([3.0]), 25.0)
        stationarity, feasibility, complementarity = kkt_check(problem, np.array([3.0]))
        assert stationarity <= 1e-8
        assert feasibility <= 1e-8
        assert complementarity <= 1e-8

    def test_interior_nominal_point(self):
        problem = QpProblem(
            np.eye(2), np.array([1.0, -2.0]), np.array([[1.0, 0.0]]), np.array([-10.0]), 25.0
        )
        stationarity, feasibility, complementarity = kkt_check(problem, problem.u_nom)
        assert stationarity == 0.0
        assert feasibility == 0.0
        assert complementarity == 0.0

    def test_solver_solutions_certify(self, rng):
        for _ in range(30):
            problem = random_problem(rng)
            sol = solve(problem)
            assert sol.status == OPTIMAL
            stationarity, feasibility, complementarity = kkt_check(problem, sol.u_star)
            assert stationarity <= 1e-6
            assert feasibility <= 1e-8
            assert complementarity <= 1e-6

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_a_non_finite_candidate_is_refused(self, bad):
        # max(0.0, nan) is 0.0: a NaN point used to read feasible.
        problem = QpProblem(
            np.eye(2), np.zeros(2), np.array([[1.0, 0.0]]), np.array([-1.0]), 25.0
        )
        with pytest.raises(ValueError, match="finite"):
            kkt_check(problem, [bad, 0.0])

    def test_a_candidate_of_the_wrong_dimension_is_refused(self):
        problem = QpProblem(np.eye(2), np.zeros(2), np.zeros((0, 2)), np.zeros(0), 25.0)
        with pytest.raises(ValueError, match="wrong dimension"):
            kkt_check(problem, [0.0, 0.0, 0.0])

    def test_matches_the_scipy_reference_on_congested_snapshots(self, geom, params):
        # A psi = 5 box leaves 27-34 rows active at the optimum, one NNLS
        # solve; psi = 10 makes most snapshots infeasible, and their slack
        # answer, far from stationary, takes the Lawson-Hanson loop.
        weight = qp.prepare_weight(ensemble_weight(22, geom))
        rng = np.random.default_rng(3)
        for psi in np.repeat([5.0, 10.0], 6):
            box = HullUnion((symmetric_box(psi),))
            cs = assemble_constraints(congested_poses(rng, geom), geom, params, box, U_MAX)
            problem = QpProblem(weight, rng.uniform(-U_MAX, U_MAX, size=44), cs.A, cs.b, U_MAX)
            sol = solve(problem)
            if sol.status != OPTIMAL:
                sol = qp.solve_with_slack(problem, 1e6)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                got = kkt_check(problem, sol.u_star)
            ref = reference_kkt_check(problem, sol.u_star)
            assert abs(got[0] - ref[0]) <= 1e-10 and abs(got[1] - ref[1]) <= 1e-10

    @staticmethod
    def near_copy_case():
        """A seeded 6-variable problem plus a copy of its first active row
        of A perturbed at 1e-9 relative and 1e-6 slack at the optimum, and
        its solve: the copy is inactive, yet within KKT_ACTIVE_TOL."""
        rng = np.random.default_rng(3)
        base = random_problem(rng, m=6)
        optimum = solve(base)
        row = base.A[[i for i in optimum.active_set.tolist() if i < base.rows][0]]
        copy = row + 1e-9 * np.abs(row).max() * rng.normal(size=row.size)
        problem = QpProblem(base.weight, base.u_nom, np.vstack([base.A, copy]),
                            np.append(base.b, copy @ optimum.u_star - 1e-6), base.u_max)
        return problem, solve(problem)

    def test_the_near_copy_case_is_solved(self):
        problem, sol = self.near_copy_case()
        assert sol.status == OPTIMAL and sol.kkt_residual <= 1e-11
        assert problem.rows not in sol.active_set.tolist()

    @pytest.mark.xfail(strict=True, reason="kkt_check splits a multiplier between a row and "
                       "its near copy, whose 1e-6 residual then reads as complementarity")
    def test_a_near_copy_of_an_active_row_leaves_the_certificate(self):
        # It reads 3.6e-5 here, where the answer's own KKT residual is 3.8e-12.
        problem, sol = self.near_copy_case()
        assert max(kkt_check(problem, sol.u_star)) <= 1e-8


def nnls_cases():
    """(A, b) problems for qp._nnls, keyed by what they exercise."""
    rng = np.random.default_rng(11)
    A = rng.normal(size=(6, 4))
    summed, zero = A.copy(), A.copy()
    summed[:, 3] = summed[:, 0] + summed[:, 1]
    zero[:, 2] = 0.0
    return {
        "full-rank": (A, rng.normal(size=6)),
        "summed-column": (summed, rng.normal(size=6)),
        "zero-column": (zero, rng.normal(size=6)),
        "b-inside-the-cone": (A, A @ np.array([0.5, 1.0, 2.0, 0.25])),
        "b-zero": (A, np.zeros(6)),
        # The second column is orthogonal to b: its least-squares
        # coefficient is exactly 0, and at x = 0 a step ratio x / (x - z)
        # would read 0/0.
        "zero-coefficient-at-zero": (np.eye(3)[:, :2], np.array([2.0, 0.0, 1.0])),
        "more-columns-than-rows": (rng.normal(size=(3, 5)), rng.normal(size=3)),
        # b lies in the span of the passive columns, so an entering column's
        # gain is rounding and its coefficient comes out negative: taken in,
        # it would be dropped at once and picked again until the cap.
        "column-refused-on-entry": (
            np.array([[3.0, -2.0, -2.0, -3.0], [1.0, -1.0, -1.0, 1.0], [2.0, -2.0, 1.0, 1.0]]),
            np.array([1.0, 1.0, -2.0]),
        ),
        "summed-column-many-rows": (np.hstack([summed, rng.normal(size=(6, 2))]),
                                    rng.normal(size=6)),
    }


class TestNnls:
    """qp._nnls against scipy.optimize.nnls, the solver kkt_check used before."""

    @pytest.mark.parametrize("case", list(nnls_cases()))
    def test_matches_scipys_residual(self, case):
        from scipy.optimize import nnls

        A, b = nnls_cases()[case]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            x = qp._nnls(A, b)
        scipy_x, _ = nnls(A, b)
        assert x.shape == (A.shape[1],) and (x >= 0.0).all()
        assert np.linalg.norm(A @ x - b) <= np.linalg.norm(A @ scipy_x - b) + 1e-10

    def test_matches_scipy_on_random_problems(self, rng):
        from scipy.optimize import nnls

        for trial in range(300):
            A = rng.normal(size=(int(rng.integers(1, 9)), int(rng.integers(1, 9))))
            if trial % 3 == 0 and A.shape[1] >= 3:
                A[:, 0] = A[:, 1] + A[:, 2]
            b = rng.normal(size=A.shape[0])
            x = qp._nnls(A, b)
            assert (x >= 0.0).all()
            assert np.linalg.norm(A @ x - b) <= np.linalg.norm(A @ nnls(A, b)[0] - b) + 1e-10

    def test_a_positive_minimiser_costs_one_solve(self, monkeypatch):
        calls, real = [], qp._passive_lstsq
        monkeypatch.setattr(qp, "_passive_lstsq", lambda *args: calls.append(1) or real(*args))
        A, b = nnls_cases()["b-inside-the-cone"]
        np.testing.assert_allclose(qp._nnls(A, b), [0.5, 1.0, 2.0, 0.25], rtol=1e-12)
        assert len(calls) == 1

    def test_the_iteration_cap_raises(self, monkeypatch):
        # A least squares that puts +1 on the entering column and -1 on the
        # one passive before it swaps the two columns forever; the seventh
        # solve passes the cap of 3 * 2.
        previous = [1]

        def cycling(A, b, passive):
            z = np.zeros(A.shape[1])
            z[passive] = 1.0
            if passive.all():
                z[previous[0]] = -1.0
            else:
                previous[0] = int(np.flatnonzero(passive)[0])
            return z

        monkeypatch.setattr(qp, "_passive_lstsq", cycling)
        with pytest.raises(RuntimeError, match="iteration cap of 6$"):
            qp._nnls(np.eye(2), np.ones(2))


class TestSolutionInvariants:
    def test_feasibility_of_optimal_answers(self, rng):
        for _ in range(50):
            problem = random_problem(rng)
            sol = solve(problem)
            assert sol.status == OPTIMAL
            if problem.rows:
                assert np.all(problem.A @ sol.u_star - problem.b >= -1e-8)
            assert np.abs(sol.u_star).max() <= problem.u_max + 1e-10
            assert sol.kkt_residual <= 1e-8

    def test_row_order_does_not_change_the_answer(self, rng):
        for _ in range(20):
            problem = random_problem(rng, m=4, rows=8)
            base = solve(problem).u_star
            perm = rng.permutation(8)
            shuffled = QpProblem(
                problem.weight, problem.u_nom, problem.A[perm], problem.b[perm], problem.u_max
            )
            np.testing.assert_allclose(solve(shuffled).u_star, base, atol=1e-6)

    def test_objective_scaling_leaves_argmin(self, rng):
        for scale in (1e-3, 1.0, 1e3):
            rng_local = np.random.default_rng(7)
            problem = random_problem(rng_local, m=4, rows=6)
            scaled = QpProblem(
                np.sqrt(scale) * problem.weight,
                problem.u_nom,
                problem.A,
                problem.b,
                problem.u_max,
            )
            np.testing.assert_allclose(
                solve(scaled).u_star, solve(problem).u_star, atol=1e-8
            )

    def test_warm_start_consistency(self, rng):
        for _ in range(25):
            problem = random_problem(rng, m=5, rows=9)
            cold = solve(problem)
            warm = solve(problem, warm_start=cold)
            np.testing.assert_allclose(warm.u_star, cold.u_star, atol=1e-6)
            assert warm.status == OPTIMAL
            # A perturbed problem warm-started from the old active set
            # still reaches its own optimum.
            nudged = QpProblem(
                problem.weight,
                problem.u_nom + 1e-3,
                problem.A,
                problem.b,
                problem.u_max,
            )
            np.testing.assert_allclose(
                solve(nudged, warm_start=cold).u_star, solve(nudged).u_star, atol=1e-6
            )

    def test_iteration_and_multiplier_bookkeeping(self, rng):
        problem = random_problem(rng, m=4, rows=6)
        sol = solve(problem)
        assert sol.iterations >= 0
        assert sol.multipliers.shape == (6 + 8,)
        assert np.all(sol.multipliers >= -1e-12)
        for idx in sol.active_set:
            assert 0 <= idx < 14


def crossing_snapshots(seed, cfg):
    """Endless seeded (poses, commands) of 22 robots packed in a disc of
    radius 0.5, each driving toward its antipodal goal on the circle22
    start circle."""
    geom = cfg.geometry
    angles = 2.0 * math.pi * np.arange(22) / 22
    goals = -(0.6 - geom.look_ahead) * np.stack([np.cos(angles), np.sin(angles)], axis=1)
    rng = np.random.default_rng(seed)
    while True:
        poses = congested_poses(rng, geom, radius=0.5)
        yield poses, nominal_commands(poses, goals, 1.0, geom, cfg.u_max)


class TestWarmStartFromViolatedRows:
    """Seeding the active set with every row violated at u_nom gives about
    45 rows for 44 variables: more rows than variables, which solve skips
    before any product, so the problem is solved cold, bit for bit.  A seed
    of at most 44 rows loads and agrees with the cold answer to 1e-9.  If
    its rows are dependent, the warm attempt ends max-iterations, with a
    NaN point when the first prune's LU meets an exactly singular B (19 of
    the 277 seeds that load here), or fails the final optimality check, and
    solve redoes it cold.  Such a warm solve used to end infeasible or at
    the iteration cap where the cold solve is optimal, and once raised
    LinAlgError after entering an active row a second time."""

    def test_congested_snapshots_end_optimal_at_the_cold_answer(self, monkeypatch):
        cfg = load_config(SCENARIO_DIR / "circle22.yaml").filter_config()
        geom, plan = cfg.geometry, cfg.plan(22)
        real, fallbacks = qp._solve_raw, []

        def recording(*args, **kwargs):
            out = real(*args, **kwargs)
            if len(args[5]) and not kwargs["crash"] and out[2] != OPTIMAL:
                fallbacks.append(out[2])
            return out

        monkeypatch.setattr(qp, "_solve_raw", recording)
        worst, seeded = 0.0, []
        for seed in (1, 2):
            snapshots = crossing_snapshots(seed, cfg)
            solved = 0
            while solved < 300:
                poses, commands = next(snapshots)
                cs = assemble_constraints(
                    poses, geom, cfg.barrier, plan.margin_union, cfg.u_max, plan.pairs
                )
                problem = QpProblem(plan.weight, commands.reshape(-1), cs.A, cs.b, cfg.u_max)
                cold = solve(problem)
                if cold.status != OPTIMAL:
                    continue  # the disc can wedge robots into an infeasible set
                solved += 1
                violated = np.flatnonzero(cs.A @ problem.u_nom < cs.b)
                seeded.append(violated.size)
                retried = len(fallbacks)
                warm = solve(problem, warm_start=replace(cold, active_set=violated))
                assert warm.status == OPTIMAL
                if len(fallbacks) > retried:
                    # A rejected seed is solved cold: the cold solve's bits.
                    assert warm.u_star.tobytes() == cold.u_star.tobytes()
                else:
                    worst = max(worst, float(np.abs(warm.u_star - cold.u_star).max()))
        assert worst <= 1e-9
        assert max(seeded) > problem.variables
        assert len(fallbacks) >= 10 and set(fallbacks) == {MAX_ITERATIONS}


class TestDecoupledMarginSnapshots:
    """With the decoupled margin of tests/oracles.py, most congested
    crossing snapshots are infeasible, and a few solves from the empty set
    drift until an active row reads violated.  The LU re-solve of that set
    then meets a singular B (condition about 1e18): seed 1's snapshot 189
    and seed 2's 18 and 50 once raised LinAlgError out of solve and
    filter_step, so the slack fallback never ran.  A cold solve now starts
    from its crash set and proves those three infeasible; the loop from the
    empty set, run on every problem beside it, still meets the singular B
    and must still return."""

    def test_every_filter_step_returns_and_falls_back(self, monkeypatch):
        cfg = load_config(SCENARIO_DIR / "circle22.yaml").filter_config()
        monkeypatch.setattr(safety_filter, "assemble_constraints", decoupled_margin_constraints)
        real, statuses, empty = qp.solve, [], []

        def recording(problem, max_iterations=None, warm_start=None):
            sol = real(problem, max_iterations, warm_start)
            statuses.append(sol.status)
            empty.append(from_empty(problem)[2])
            return sol

        monkeypatch.setattr(qp, "solve", recording)
        for seed in (1, 2):
            snapshots = crossing_snapshots(seed, cfg)
            for _ in range(200):
                result = filter_step(*next(snapshots), cfg)
                assert result.fallback_applied == (None if statuses[-1] == OPTIMAL else "slack")
                assert result.solver.status == OPTIMAL
                assert np.isfinite(result.solver.u_star).all()
        assert len(statuses) == 400
        assert empty.count(MAX_ITERATIONS) >= 3 and OPTIMAL in statuses


class TestCrashStart:
    """A cold solve loads the crash set of tests/oracles.py::crash_rows,
    inverts its B once, prunes it by downdates of the inverse and of the
    multipliers and tops it up twice (tests/oracles.py::crash_start).  Against the loop from the empty
    set on congested crossing snapshots, with the shipped and with the
    decoupled margin, it never raises, reaches the same optimum within 1e-9
    in fewer iterations, and calls a problem infeasible only where the loop
    from the empty set finds no optimum.  A crash attempt that ends
    infeasible is final: its pruned start is dual feasible."""

    @staticmethod
    def snapshot_problems(assemble, count=100):
        cfg = load_config(SCENARIO_DIR / "circle22.yaml").filter_config()
        geom, plan = cfg.geometry, cfg.plan(22)
        for seed in (1, 2):
            snapshots = crossing_snapshots(seed, cfg)
            for _ in range(count):
                poses, commands = next(snapshots)
                cs = assemble(poses, geom, cfg.barrier, plan.margin_union, cfg.u_max, plan.pairs)
                yield QpProblem(plan.weight, commands.reshape(-1), cs.A, cs.b, cfg.u_max)

    @staticmethod
    def recorded_attempts(monkeypatch):
        """(rows, crash, status) of each _solve_raw run that solve makes."""
        attempts, real = [], qp._solve_raw

        def recording(*args, **kwargs):
            out = real(*args, **kwargs)
            attempts.append((args[5], kwargs["crash"], out[2]))
            return out

        monkeypatch.setattr(qp, "_solve_raw", recording)
        return attempts

    # Mean iterations from the crash start over those from the empty set
    # read 0.315 on the 199 of 200 shipped-margin snapshots that are
    # feasible, and 0.465 on the 20 of 200 decoupled-margin ones.
    @pytest.mark.parametrize("assemble, share", [(assemble_constraints, 0.35),
                                                 (decoupled_margin_constraints, 0.5)])
    def test_same_optimum_in_fewer_iterations(self, monkeypatch, assemble, share):
        attempts = self.recorded_attempts(monkeypatch)
        crash_iterations, empty_iterations, loaded = [], [], 0
        for problem in self.snapshot_problems(assemble):
            del attempts[:]
            sol = solve(problem)
            rows, crash, _ = attempts[0]
            assert crash and rows.tolist() == cold_seed(problem)
            loaded += 1
            empty = _solution(problem, from_empty(problem))
            if empty.status != OPTIMAL:
                assert sol.status != OPTIMAL or max(kkt_check(problem, sol.u_star)) <= 1e-8
                continue
            assert sol.status == OPTIMAL
            np.testing.assert_allclose(sol.u_star, empty.u_star, rtol=0.0, atol=1e-9)
            assert max(kkt_check(problem, sol.u_star)) <= 1e-8
            crash_iterations.append(sol.iterations)
            empty_iterations.append(empty.iterations)
        assert loaded == 200 and len(empty_iterations) >= 10
        assert np.mean(crash_iterations) <= share * np.mean(empty_iterations)

    def test_the_only_lu_solve_is_the_final_one(self, monkeypatch):
        # Inverted once, pruned by downdates and topped up by rank-one adds:
        # no LU solve runs before the loop, which runs on the kept inverse,
        # and the final re-solve is one LU solve on the final active rows.
        problems = [congested_problem(0.5), *itertools.islice(
            self.snapshot_problems(assemble_constraints), 20)]
        calls, real_solve, real_inv = [], np.linalg.solve, np.linalg.inv
        monkeypatch.setattr(np.linalg, "solve",
                            lambda a, b: calls.append(("solve", len(a))) or real_solve(a, b))
        monkeypatch.setattr(np.linalg, "inv", lambda a: calls.append(("inv", len(a))) or real_inv(a))
        attempts = self.recorded_attempts(monkeypatch)
        for problem in problems:
            del calls[:], attempts[:]
            sol = solve(problem)
            assert [crash for _, crash, _ in attempts] == [True]
            assert sol.status == OPTIMAL and sol.iterations > 0
            assert calls[-1] == ("solve", len(sol.active_set))
            assert {name for name, _ in calls[:-1]} == {"inv"}

    # A crash set whose B is exactly singular when loaded, or turns so after
    # a dependent-row drop in invert, or whose attempt ends max-iterations,
    # is redone from the empty set.  The bounds are the counts measured
    # when this guard was added; they may fall, not rise.
    @pytest.mark.parametrize("assemble, most", [(assemble_constraints, 2),
                                                (decoupled_margin_constraints, 3)])
    def test_few_crash_attempts_are_redone_from_empty(self, monkeypatch, assemble, most):
        attempts = self.recorded_attempts(monkeypatch)
        redone = 0
        for problem in self.snapshot_problems(assemble):
            del attempts[:]
            solve(problem)
            redone += attempts[0][1] and len(attempts) > 1
        assert redone <= most

    def test_a_kept_inverse_prune_drops_as_the_reference(self, monkeypatch):
        # Each prune on the kept inverse (after the inversion and after each
        # top-up) forms its multipliers once and downdates them on each
        # drop; the reference solves them by LU after each drop.  The kept
        # inverse of a badly conditioned start carries its error past the
        # drops: 586 of the 596 prunes agree within 1e-10 relative, the worst
        # reads 6.4e-9, and multiplying by the kept inverse afresh after
        # each drop reads the same 586 and 4.2e-9.
        prunes, forms, drops = [], [], []
        real_prune, real_eq, real_drop = qp._prune, _WorkingSet.eq_multipliers, _WorkingSet.drop

        def prune(ws, inv_hessian, linear, d):
            start, inverse = list(ws.indices), ws.inverse
            del forms[:], drops[:]
            u = real_prune(ws, inv_hessian, linear, d)
            if inverse:
                prunes.append((start, list(drops), len(forms), ws.lam.copy(),
                               (inv_hessian, linear, ws._C, d)))
            return u

        class Recording(ReallocatingWorkingSet):
            def drop(self, pos):
                drops.append(self.indices[pos])
                super().drop(pos)

        with monkeypatch.context() as patch:
            patch.setattr(qp, "_prune", prune)
            patch.setattr(_WorkingSet, "eq_multipliers",
                          lambda ws, *args, **kw: forms.append(1) or real_eq(ws, *args, **kw))
            patch.setattr(_WorkingSet, "drop",
                          lambda ws, pos: drops.append(ws.indices[pos]) or real_drop(ws, pos))
            for problem in self.snapshot_problems(assemble_constraints):
                solve(problem)
        dropped, errors = 0, []
        for start, rows, formed, lam, (inv_hessian, linear, C, d) in prunes:
            ref = Recording(inv_hessian, C)
            ref.bulk_load(start)
            del drops[:]
            ref_lam, _ = reference_prune(ref, inv_hessian, linear, d)
            assert formed == 1
            assert rows == drops
            scale = np.abs(ref_lam).max(initial=0.0)
            errors.append(np.abs(lam - ref_lam).max(initial=0.0) / (scale or 1.0))
            dropped += len(rows)
        assert len(prunes) >= 590 and dropped >= 2000
        assert max(errors) <= 1e-8 and np.mean(np.array(errors) <= 1e-10) >= 0.95

    def test_an_infeasible_problem_costs_one_hard_attempt(self, monkeypatch, geom, params):
        problems = infeasible_problems()
        cfg = FilterConfig(geom, params, HullUnion((symmetric_box(10.0),)), u_max=U_MAX)
        rng = np.random.default_rng(10)  # the psi = 10 pins of test_trajectory_digests.py
        real_solve = qp.solve

        def capturing(problem, max_iterations=None, warm_start=None):
            problems.append(problem)
            return real_solve(problem, max_iterations, warm_start)

        with monkeypatch.context() as patch:
            patch.setattr(qp, "solve", capturing)
            for _ in range(10):
                filter_step(congested_poses(rng, geom), rng.uniform(-U_MAX, U_MAX, size=(22, 2)),
                            cfg)
        assert len(problems) == 13
        attempts = self.recorded_attempts(monkeypatch)
        crashed = 0
        for problem in problems:
            empty = from_empty(problem)
            del attempts[:]
            sol = solve(problem)
            assert empty[2] == sol.status == INFEASIBLE
            assert len(attempts) == 1
            crashed += attempts[0][1]
        assert crashed >= 10


    def test_a_drifted_crash_set_is_inverted_afresh(self, monkeypatch, geom, params):
        # On these psi = 10 snapshots the loop enters a row nearly dependent
        # on the active rows (B of condition 1e16 to 1e18), and an active row
        # then reads violated.  Inverting B afresh drops the rows that have
        # become dependent, and the attempt still proves the problem
        # infeasible; going on by LU instead ends each max-iterations.
        cfg = FilterConfig(geom, params, HullUnion((symmetric_box(10.0),)), u_max=U_MAX)
        problems, real_solve = [], qp.solve

        def capturing(problem, max_iterations=None, warm_start=None):
            problems.append(problem)
            return real_solve(problem, max_iterations, warm_start)

        picked = []
        with monkeypatch.context() as patch:
            patch.setattr(qp, "solve", capturing)
            for seed, index in ((11, 1), (15, 0), (22, 2), (24, 8)):
                rng = np.random.default_rng(seed)
                for _ in range(index + 1):
                    poses, commands = congested_poses(rng, geom), rng.uniform(-U_MAX, U_MAX, (22, 2))
                del problems[:]
                filter_step(poses, commands, cfg)
                picked.append(problems[0])
        inversions, real_invert = [], qp._WorkingSet.invert
        monkeypatch.setattr(qp._WorkingSet, "invert",
                            lambda ws: inversions.append(ws.size) or real_invert(ws))
        attempts = self.recorded_attempts(monkeypatch)
        for problem in picked:
            del attempts[:], inversions[:]
            assert solve(problem).status == INFEASIBLE
            assert [(crash, status) for _, crash, status in attempts] == [(True, INFEASIBLE)]
            assert len(inversions) == 2


class TestSeedDependence:
    """solve skips only a seed of more rows than variables, before any
    product; any other seed is loaded as it comes, and its dependence shows
    in the first prune's LU, which ends the warm attempt max-iterations, or
    in solve's final optimality check."""

    def test_more_rows_than_variables_are_refused_before_any_product(self, rng, monkeypatch):
        problem = random_problem(rng, m=4, rows=8)
        cold = solve(problem)
        rows = np.arange(problem.variables + 1, dtype=np.intp)
        loaded, real = [], qp._WorkingSet.bulk_load

        def recording(ws, rows):
            loaded.append(rows.tolist())
            real(ws, rows)

        monkeypatch.setattr(qp._WorkingSet, "bulk_load", recording)
        solve(problem)
        crash = loaded[:]  # a cold solve loads its crash set, if any
        loaded.clear()
        sol = solve(problem, warm_start=replace(cold, active_set=rows))
        assert loaded == crash
        assert sol.u_star.tobytes() == cold.u_star.tobytes()
        assert sol.multipliers.tobytes() == cold.multipliers.tobytes()
        assert sol.active_set.tolist() == cold.active_set.tolist()
        assert (sol.status, sol.iterations) == (cold.status, cold.iterations)
        # As many rows as variables do load.
        loaded.clear()
        solve(problem, warm_start=replace(cold, active_set=rows[:-1]))
        assert loaded[0] == rows[:-1].tolist()

    def test_an_exactly_singular_seed_ends_with_no_point(self, rng):
        # A repeated row: the first prune's LU meets an exactly singular B.
        problem = parallel_row_problem(rng)
        u, lam, status, iterations, ws, residual = qp._solve_raw(
            problem.prepared.inv_hessian, problem.linear, problem.C, problem.d, None,
            np.array([0, 0], dtype=np.intp),
        )
        assert (status, iterations) == (MAX_ITERATIONS, 0)
        assert np.isnan(u).all() and np.isnan(residual).all()

    @pytest.mark.parametrize("radius", [0.6, 0.5])
    def test_a_nearly_repeated_row_ends_at_the_cold_answer(self, radius, monkeypatch):
        # The cold optimum's active rows and a copy of one of them perturbed
        # at 1e-9 relative: B has condition about 1e16, which no pivot of
        # its LU reveals, so the seed loads and the warm attempt ends
        # optimal, with no cold attempt after it.  The copy is 1e-6 slack at the
        # optimum: were it active too, u would be fixed only to about 1e-7
        # along the perturbation, by warm and cold solves alike.
        base = congested_problem(radius)
        optimum = solve(base)
        active = optimum.active_set
        row = base.A[active[0]]
        noise = np.random.default_rng(5).normal(size=row.size)
        copy = row + 1e-9 * np.abs(row).max() * noise
        problem = QpProblem(base.weight, base.u_nom, np.vstack([base.A, copy]),
                            np.append(base.b, copy @ optimum.u_star - 1e-6), base.u_max)
        k = base.rows
        seed = [i + (i >= k) for i in active.tolist()] + [k]
        assert len(seed) <= problem.variables
        cold = solve(problem)
        attempts = []
        monkeypatch.setattr(
            qp, "_solve_raw", lambda *args, **kw: attempts.append(args[5]) or _solve_raw(*args, **kw)
        )
        warm = solve(problem, warm_start=replace(cold, active_set=seed))
        assert warm.status == OPTIMAL
        assert [rows.tolist() for rows in attempts] == [seed]
        assert max(kkt_check(problem, warm.u_star)) <= 1e-8
        np.testing.assert_allclose(warm.u_star, cold.u_star, rtol=0.0, atol=1e-9)


class TestInfeasible:
    def test_contradictory_rows(self):
        # u >= 1 and u <= -1 cannot both hold.
        problem = QpProblem(
            np.eye(1),
            np.array([0.0]),
            np.array([[1.0], [-1.0]]),
            np.array([1.0, 1.0]),
            25.0,
        )
        sol = solve(problem)
        assert sol.status == INFEASIBLE

    def test_row_outside_the_box(self):
        # u >= 30 conflicts with |u| <= 25.
        problem = QpProblem(
            np.eye(1), np.array([0.0]), np.array([[1.0]]), np.array([30.0]), 25.0
        )
        sol = solve(problem)
        assert sol.status == INFEASIBLE

    def test_multidimensional_conflict(self, rng):
        A = np.array([[1.0, 1.0], [-1.0, -1.0]])
        b = np.array([2.0, 2.0])
        problem = QpProblem(np.eye(2), np.zeros(2), A, b, 25.0)
        assert solve(problem).status == INFEASIBLE

    def test_infeasibility_is_status_not_exception(self):
        problem = QpProblem(
            np.eye(1), np.array([0.0]), np.array([[1.0]]), np.array([30.0]), 25.0
        )
        sol = solve(problem, max_iterations=3)
        assert sol.status in (INFEASIBLE, "max-iterations")


@functools.cache
def slack_snapshots(n=22, count=6):
    """count seeded congested snapshots of n robots with a psi = 10 box and
    uniform commands in +-25 whose QP solve does not solve optimal: the
    problems that take the slack fallback."""
    geom = RobotGeometry(WHEEL_RADIUS, BASE_LENGTH, LOOK_AHEAD)
    params = BarrierParams(DIAMETER, GAMMA)
    weight = qp.prepare_weight(ensemble_weight(n, geom))
    box = HullUnion((symmetric_box(10.0),))
    rng = np.random.default_rng(20240817)
    problems = []
    while len(problems) < count:
        cs = assemble_constraints(congested_poses(rng, geom, n=n), geom, params, box, U_MAX)
        problem = QpProblem(weight, rng.uniform(-U_MAX, U_MAX, size=2 * n), cs.A, cs.b, U_MAX)
        if solve(problem).status != OPTIMAL:
            problems.append(problem)
    return tuple(problems)


class TestSlackElimination:
    """solve_with_slack runs the dual loop over u alone, its slacks
    eliminated as s = lam / (2 slack_weight), on congested 22-robot
    snapshots that take the slack fallback; the dense (u, s) embedding of
    tests/oracles.py::slack_system is the reference."""

    @pytest.mark.parametrize("slack_weight", [1e2, 1e4])
    def test_matches_the_dense_embedding(self, slack_weight):
        for problem in slack_snapshots():
            sol = qp.solve_with_slack(problem, slack_weight)
            ref = reference_slack_solve(problem, slack_weight)
            assert sol.status == ref.status == OPTIMAL
            assert np.abs(sol.u_star - ref.u_star[: problem.variables]).max() <= 1e-9

    def test_default_weight_ends_optimal_inside_the_box(self, monkeypatch):
        calls, real = [], qp._solve_raw

        def recording(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(qp, "_solve_raw", recording)
        for problem in slack_snapshots():
            sol = qp.solve_with_slack(problem, 1e6)
            # The loop reads the problem's own rows: no (u, s) matrix is built.
            assert calls[-1][2] is problem.C and calls[-1][3] is problem.d
            assert sol.status == OPTIMAL
            assert np.abs(sol.u_star).max() <= problem.u_max + 1e-9
            # The full (u, s) KKT system of the embedding at s = lam_A / 2e6.
            k, lam = problem.rows, sol.multipliers
            point = np.concatenate([sol.u_star, lam[:k] / 2e6])
            stationarity, feasibility, complementarity = full_row_kkt(
                *slack_system(problem, 1e6), point, np.concatenate([lam, np.zeros(k)])
            )
            assert stationarity <= 1e-8 and feasibility <= 1e-8
            assert complementarity <= 1e-8 * max(1.0, float(np.abs(lam).max()))
            # The status is the loop's, not solve's tolerance rule: at
            # |lam| near 5e4, kkt_residual reads up to about 1e-6, but at
            # most 1.7e-11 per unit of |lam|.
            assert sol.kkt_residual <= 1e-10 * max(1.0, float(np.abs(lam).max()))

    def test_a_slack_solve_allocates_no_embedding(self):
        # At n = 44 the embedding's (88 + 946)^2 Hessian alone is 8.6 MB.
        problem = slack_snapshots(n=44, count=1)[0]
        tracemalloc.start()
        try:
            sol = qp.solve_with_slack(problem, 1e6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8e6
        assert sol.status == OPTIMAL


class TestTolerances:
    def test_max_iteration_cap_reports(self, rng):
        problem = random_problem(rng, m=6, rows=10)
        sol = solve(problem, max_iterations=1)
        assert sol.status in (OPTIMAL, "max-iterations")

    def test_a_nan_point_is_not_optimal(self, rng, monkeypatch):
        # NaN compares False against every tolerance: the check must accept,
        # not reject, on comparison.
        real = qp._solve_raw

        def nan_point(inv_hessian, linear, C, d, *args, **kwargs):
            u, lam, status, iterations, ws, _ = real(inv_hessian, linear, C, d, *args, **kwargs)
            u = np.full_like(u, np.nan)
            return u, lam, status, iterations, ws, C @ u - d

        problem = random_problem(rng, m=4, rows=6)
        seed = solve(problem)
        assert qp.solve_with_slack(problem, 1e6).status == OPTIMAL
        monkeypatch.setattr(qp, "_solve_raw", nan_point)
        for warm_start in (None, seed):
            assert solve(problem, warm_start=warm_start).status == MAX_ITERATIONS
        # The slack re-solve keeps the loop's verdict, but not on a NaN point.
        assert qp.solve_with_slack(problem, 1e6).status == MAX_ITERATIONS


class TestWarmStartRefusals:
    def test_a_larger_problems_solution_drops_its_rows_past_the_end(self, rng, monkeypatch):
        # u_nom clamps every variable: rows 7 (u2 >= -25), 8 and 9 (u0, u1 <= 25).
        A, u_nom = rng.normal(size=(5, 3)), np.array([50.0, 50.0, -50.0])
        seed = solve(QpProblem(np.eye(3), u_nom, A, np.full(5, -1e3), 25.0))
        assert sorted(seed.active_set.tolist()) == [7, 8, 9]
        small = QpProblem(np.eye(3), u_nom, A[:2], np.full(2, -1e3), 25.0)
        kept = [row for row in seed.active_set.tolist() if row < small.rows + 2 * small.variables]
        assert kept == [7]
        loaded, real = [], qp._WorkingSet.bulk_load

        def recording(ws, rows):
            loaded.append(rows.tolist())
            real(ws, rows)

        monkeypatch.setattr(qp._WorkingSet, "bulk_load", recording)
        warm = solve(small, warm_start=seed)
        listed = solve(small, warm_start=replace(seed, active_set=kept))
        assert loaded == [kept, kept]
        assert warm.status == OPTIMAL
        assert warm.u_star.tobytes() == listed.u_star.tobytes()
        assert warm.active_set.tolist() == listed.active_set.tolist()

    def test_a_rebuilt_solution_is_checked_again(self, rng):
        problem = random_problem(rng, m=5, rows=9)
        cold = solve(problem)
        with pytest.raises(ValueError, match="integral row indices"):
            replace(cold, active_set=(0, 2.5))
        again = solve(problem, warm_start=replace(cold, active_set=[*cold.active_set, 10**6]))
        assert again.u_star.tobytes() == solve(problem, warm_start=cold).u_star.tobytes()

    def test_only_a_solution_warm_starts(self, rng):
        problem = random_problem(rng, m=5, rows=9)
        for warm in ([0, 1], (0, 1), np.array([0, 1]), solve(problem).active_set):
            with pytest.raises(TypeError, match="QpSolution or None"):
                solve(problem, warm_start=warm)


class TestStackedRows:
    """qp.stacked_rows is the one writer of the box rows [I; -I] u >= -u_max."""

    @pytest.mark.parametrize("k, m", [(0, 1), (0, 4), (3, 1), (5, 4)])
    def test_zero_rows_above_the_box_rows(self, k, m):
        C, d = qp.stacked_rows(k, m, 25)
        assert C.shape == (k + 2 * m, m) and d.shape == (k + 2 * m,)
        assert C.dtype == d.dtype == np.float64
        # int64 views tell -0.0 from 0.0: -I is I negated, -0.0 off its diagonal.
        assert (C[:k].view(np.int64) == 0).all()
        box = np.vstack([np.eye(m), -np.eye(m)])
        assert C[k:].view(np.int64).tolist() == box.view(np.int64).tolist()
        assert d[k:].tolist() == [-25.0] * (2 * m)
        assert C.flags.writeable and d.flags.writeable

    def test_every_call_is_fresh(self):
        first, second = qp.stacked_rows(3, 4, 1.0), qp.stacked_rows(3, 4, 1.0)
        for a in first:
            for b in second:
                assert not np.shares_memory(a, b)

    def test_the_public_problem_stacks_a_and_b_over_them(self, rng):
        problem = random_problem(rng, m=4, rows=6)
        C, d = qp.stacked_rows(6, 4, problem.u_max)
        box = np.vstack([np.eye(4), -np.eye(4)])
        assert problem.C.tobytes() == np.concatenate([problem.A, box]).tobytes()
        assert problem.C[6:].tobytes() == C[6:].tobytes()
        assert problem.d.tobytes() == np.concatenate([problem.b, d[6:]]).tobytes()


def solution_with(active_set, u_star=(0.0, 0.0), multipliers=(0.0,) * 6) -> QpSolution:
    return QpSolution(u_star=u_star, status=OPTIMAL, kkt_residual=0.0, iterations=0,
                      multipliers=multipliers, active_set=active_set)


class TestSolutionArrays:
    """QpSolution keeps u_star and multipliers as read-only 1-D float64
    arrays, checked at construction and so through dataclasses.replace."""

    def test_solved_slack_and_replaced_solutions_are_read_only(self, rng):
        solved = solve(random_problem(rng, m=4, rows=6))
        slack = qp.solve_with_slack(infeasible_problems()[0], 1e4)
        # The zero-input fallback of filter_step.
        replaced = replace(solved, u_star=np.zeros(4), active_set=())
        for sol in (solved, slack, replaced):
            for arr in (sol.u_star, sol.multipliers, sol.active_set):
                with pytest.raises(ValueError, match="read-only"):
                    arr[...] = 1.0
        assert replaced.u_star.tolist() == [0.0] * 4

    def test_read_only_float_arrays_are_kept(self, rng):
        solved = solve(random_problem(rng, m=4, rows=6))
        again = replace(solved, status=MAX_ITERATIONS)
        assert again.u_star is solved.u_star and again.multipliers is solved.multipliers

    def test_other_forms_are_copied_and_frozen(self):
        mine = np.array([1.0, 2.0])
        sol = solution_with((), u_star=mine, multipliers=[0, 1, 2])
        mine[0] = 9.0  # the caller's array is copied, never frozen
        assert mine.flags.writeable and sol.u_star.tolist() == [1.0, 2.0]
        assert sol.multipliers.dtype == np.float64 and sol.multipliers.tolist() == [0.0, 1.0, 2.0]
        assert not (sol.u_star.flags.writeable or sol.multipliers.flags.writeable)

    @pytest.mark.parametrize("bad", [np.zeros((2, 2)), 1.0, np.zeros((1, 2))], ids=repr)
    def test_arrays_that_are_not_1d_are_refused(self, bad):
        with pytest.raises(ValueError, match="u_star must be a 1-D"):
            solution_with((), u_star=bad)
        with pytest.raises(ValueError, match="multipliers must be a 1-D"):
            replace(solution_with(()), multipliers=bad)


class TestSolutionActiveSet:
    """QpSolution checks its active set once, at construction and so
    through dataclasses.replace, and keeps it as a read-only np.intp array."""

    @pytest.mark.parametrize("form", [(4, 0, 2), [4, 0, 2], np.array([4, 0, 2], dtype=np.int32),
                                      [4.0, 0.0, 2.0], np.array([4, 0, 2], dtype=np.uint8)])
    def test_integral_forms_become_read_only_intp_arrays(self, form):
        for sol in (solution_with(form), replace(solution_with(()), active_set=form)):
            rows = sol.active_set
            assert rows.dtype == np.intp and rows.ndim == 1 and not rows.flags.writeable
            assert rows.tolist() == [4, 0, 2]
        writable = np.array([4, 0, 2], dtype=np.intp)
        kept = solution_with(writable).active_set
        writable[0] = 9  # the caller's array is copied, never frozen
        assert writable.flags.writeable and kept.tolist() == [4, 0, 2]

    def test_an_empty_set_is_an_empty_intp_array(self):
        for form in ((), [], np.zeros(0)):
            rows = solution_with(form).active_set
            assert rows.dtype == np.intp and rows.shape == (0,)

    @pytest.mark.parametrize("bad", [[2.5], [0, 1.0, math.nan], [0, math.inf], ["1"], "1",
                                     np.array([[0, 1]]), [0, -1], np.array([3, -2]), [True]],
                             ids=repr)
    def test_bad_entries_are_refused_at_construction_and_through_replace(self, bad):
        with pytest.raises(ValueError, match="row indices"):
            solution_with(bad)
        with pytest.raises(ValueError, match="row indices"):
            replace(solution_with((0, 1)), active_set=bad)

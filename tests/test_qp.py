import math

import numpy as np
import pytest

from robustcbf import (
    QpProblem,
    assemble_constraints,
    circle_init,
    kkt_check,
    nominal_controller,
    objective_value,
    output_point,
    solve,
)
from robustcbf import qp
from robustcbf.cli import load_config
from robustcbf.sim import nominal_commands
from robustcbf.qp import INFEASIBLE, MAX_ITERATIONS, OPTIMAL, _blocking_ratio, _WorkingSet

from .conftest import SCENARIO_DIR, congested_poses
from .oracles import (
    ReallocatingWorkingSet,
    farthest_violated_row,
    projected_gradient_qp,
    reference_dual_active_set,
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


def assert_matches_reference(problem, max_iterations=None, warm_start=None):
    """qp.solve takes the steps of the reallocating reference solver with
    the same entering rule: the same status, active set and iteration
    count, with u_star and multipliers within 1e-9.  Uncapped, it also ends
    in the status of the raw-selection reference, and at its u_star when
    optimal."""
    sol = solve(problem, max_iterations=max_iterations, warm_start=warm_start)
    ref = reference_dual_active_set(problem, max_iterations, warm_start, farthest_violated_row)
    assert sol.status == ref.status
    assert sol.active_set == ref.active_set
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

    def test_warm_start_indices_of_any_form(self, rng):
        problem = random_problem(rng, m=5, rows=9)
        n_rows = problem.rows + 2 * problem.variables
        cold = solve(problem)
        picks = np.array(list(cold.active_set) + [-1, n_rows, n_rows + 3, 2], dtype=np.int64)
        for warm in (picks, picks.tolist(), [float(i) for i in picks]):
            assert_matches_reference(problem, warm_start=warm)

    def test_congested_22_robot_starts_cold(self):
        # The raw rule takes 110 iterations on both starts, the distance
        # rule 24 at radius 0.6 and 66 at radius 0.5.
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
        assert sol.active_set == (0, 2)
        np.testing.assert_allclose(sol.u_star, [3.0, 1.1], rtol=0.0, atol=1e-12)

    def test_dependent_warm_set_solves_cold(self, rng):
        # A repeated row, and a row with its half-scale copy: the bulk load
        # rejects these seeds, and the answer is the cold solve's bit for bit.
        problem = parallel_row_problem(rng)
        cold, _ = assert_matches_reference(problem)
        for warm in ([0, 0], [0, problem.rows // 2], [1, 1, 2, problem.rows // 2 + 1]):
            sol = solve(problem, warm_start=warm)
            assert sol.u_star.tobytes() == cold.u_star.tobytes()
            assert sol.multipliers.tobytes() == cold.multipliers.tobytes()
            assert sol.active_set == cold.active_set
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
        sol, _ = assert_matches_reference(congested_problem(0.6), max_iterations=20)
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
    def recorded_solve(self, monkeypatch, problem, warm_start=None):
        """solve(problem) and the working set it ended with, which counts
        its drops."""
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
            sol = solve(problem, warm_start=warm_start)
        (ws,) = sets
        return sol, ws

    def test_long_cold_solves_keep_it_accurate(self, rng, monkeypatch):
        drops = []
        for _ in range(5):
            problem = summed_row_problem(rng, m=20, rows=60)
            sol, ws = self.recorded_solve(monkeypatch, problem)
            assert sol.status == OPTIMAL
            assert ws.inverse
            k = ws.size
            np.testing.assert_allclose(
                ws._Binv[:k, :k] @ ws._B[:k, :k], np.eye(k), rtol=0.0, atol=1e-10
            )
            drops.append(ws.drops)
        assert min(drops) >= 5 and sum(drops) >= 50

    def test_bulk_loaded_warm_set_solves_by_lu(self, monkeypatch):
        problem = congested_problem(0.6)
        cold, ws = self.recorded_solve(monkeypatch, problem)
        assert ws.inverse
        warm, ws = self.recorded_solve(monkeypatch, problem, warm_start=cold)
        assert not ws.inverse
        assert warm.iterations == 0

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

    def test_singular_weight_rejected(self):
        with pytest.raises(ValueError):
            QpProblem(np.zeros((2, 2)), np.zeros(2), np.zeros((0, 2)), np.zeros(0), 1.0)

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
            assert objective_value(problem, sol.u_star) == pytest.approx(
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
            assert sol.wall_clock >= 0.0

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


class TestWarmStartFromViolatedRows:
    """Seeding the active set with every row violated at u_nom gives about
    45 rows for 44 variables: a dependent set, which bulk_load rejects, so
    the problem is solved cold, bit for bit.  An independent seed loads and
    agrees with the cold answer to 1e-9.  Such a warm solve used to end
    infeasible or at the iteration cap where the cold solve is optimal, and
    once raised LinAlgError after entering an active row a second time."""

    def test_congested_snapshots_end_optimal_at_the_cold_answer(self, monkeypatch, geom):
        cfg = load_config(SCENARIO_DIR / "circle22.yaml").filter_config()
        plan = cfg.plan(22)
        angles = 2.0 * math.pi * np.arange(22) / 22
        goals = -(0.6 - geom.look_ahead) * np.stack([np.cos(angles), np.sin(angles)], axis=1)
        real, fallbacks = qp._solve_raw, []

        def recording(*args):
            try:
                out = real(*args)
            except np.linalg.LinAlgError:
                fallbacks.append("raised")
                raise
            if len(args[-1]) and out[2] != OPTIMAL:
                fallbacks.append(out[2])
            return out

        monkeypatch.setattr(qp, "_solve_raw", recording)
        worst, seeded = 0.0, []
        for seed in (1, 2):
            rng = np.random.default_rng(seed)
            solved = 0
            while solved < 300:
                poses = congested_poses(rng, geom, radius=0.5)
                commands = nominal_commands(poses, goals, 1.0, geom, cfg.u_max)
                cs = assemble_constraints(
                    poses, geom, cfg.barrier, plan.margin_union, cfg.u_max, plan.pair_index
                )
                problem = QpProblem(plan.weight, commands.reshape(-1), cs.A, cs.b, cfg.u_max)
                cold = solve(problem)
                if cold.status != OPTIMAL:
                    continue  # the disc can wedge robots into an infeasible set
                solved += 1
                violated = np.flatnonzero(cs.A @ problem.u_nom < cs.b)
                seeded.append(violated.size)
                retried = len(fallbacks)
                warm = solve(problem, warm_start=violated)
                assert warm.status == OPTIMAL
                if len(fallbacks) > retried:
                    # A rejected seed is solved cold: the cold solve's bits.
                    assert warm.u_star.tobytes() == cold.u_star.tobytes()
                else:
                    worst = max(worst, float(np.abs(warm.u_star - cold.u_star).max()))
        assert worst <= 1e-9
        assert max(seeded) > problem.variables
        assert len(fallbacks) >= 10


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


class TestTolerances:
    def test_max_iteration_cap_reports(self, rng):
        problem = random_problem(rng, m=6, rows=10)
        sol = solve(problem, max_iterations=1)
        assert sol.status in (OPTIMAL, "max-iterations")

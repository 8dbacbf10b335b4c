import numpy as np
import pytest

from lorentzqp import (
    CERT_GLOBAL,
    CERT_HARD,
    EXIT_CERTIFIED,
    EXIT_HARD_CASE,
    EXIT_NO_SOLUTION,
    EXIT_UNCERTIFIED,
    ProblemInstance,
    solve_problem,
    sweep_table,
)
from lorentzqp import dual
from lorentzqp.fileio import GEN_KINDS, as_dense, gen_instance
from lorentzqp.linalg import pencil_singular_sigmas
from lorentzqp.model import shifted_hessian


def _metamorphic_corpus():
    """4 kinds x n in {2, 3, 5} x generator seeds 7000-7029."""
    for kind in GEN_KINDS:
        for n in (2, 3, 5):
            for seed in range(7000, 7030):
                yield (kind, n, seed), as_dense(gen_instance(kind, n, seed))


def _assert_same_verdict(rep, scaled, case, sigma_scale, x_scale):
    """scaled solves a transformed problem whose solution is (sigma_scale *
    sigma, x_scale * x) for the solution (sigma, x) of rep."""
    assert scaled.exit_code == rep.exit_code, case
    if rep.solution is None:
        assert scaled.solution is None
        return
    assert scaled.solution.sigma == pytest.approx(
        sigma_scale * rep.solution.sigma, rel=1e-8, abs=1e-12 * sigma_scale), case
    np.testing.assert_allclose(
        scaled.solution.x, x_scale * rep.solution.x,
        rtol=1e-7, atol=1e-9 * x_scale * np.abs(rep.solution.x).max(), err_msg=str(case))


class TestSolveSelection:
    def test_certified_fixture(self, dense_2d):
        rep = solve_problem(dense_2d)
        assert rep.exit_code == EXIT_CERTIFIED
        assert rep.solution.certificate == CERT_GLOBAL
        assert rep.residuals.max_residual <= 1e-10

    def test_uncertified_fixture_picks_best_feasible(self, dense_3d):
        rep = solve_problem(dense_3d)
        assert rep.exit_code == EXIT_UNCERTIFIED
        assert rep.solution.sigma == pytest.approx(0.4509, abs=1e-3)
        # the interior stationary point at sigma=0 is also reported, but is worse
        sigmas = [cp.sigma for cp in rep.critical_points]
        assert any(s == 0.0 for s in sigmas)
        assert any("certificate unavailable" in w for w in rep.warnings)

    def test_hard_case_fixture(self, hardcase_2d):
        rep = solve_problem(hardcase_2d)
        assert rep.exit_code == EXIT_HARD_CASE
        assert rep.solution.certificate == CERT_HARD
        assert any("hard case" in w for w in rep.warnings)

    def test_saddle_fixture_keeps_rejected_points(self, diag_saddle):
        rep = solve_problem(diag_saddle.to_dense())
        assert rep.exit_code == EXIT_UNCERTIFIED
        assert rep.solution.sigma == 0.0  # the feasible interior saddle
        assert sum(not cp.nappe_ok for cp in rep.critical_points) == 2
        assert any("negative-nappe" in w for w in rep.warnings)

    def test_no_feasible_kkt_point(self):
        # unconstrained minimizer deep in the mirror nappe, vertex is optimal:
        # the multiplier system has no cone-feasible solution at all
        p = ProblemInstance(Q=np.eye(2), c=[-1.0, 0.0])
        rep = solve_problem(p)
        assert rep.solution is None
        assert rep.exit_code == EXIT_NO_SOLUTION
        assert any("no cone-feasible KKT point" in w for w in rep.warnings)

    @pytest.mark.parametrize("seed, sigma", [(9021, 48.718), (9050, 60.979)])
    def test_strictly_convex_tail_multiplier(self, seed, sigma):
        # the only cone-feasible multiplier lies far beyond the last pole
        rep = solve_problem(as_dense(gen_instance("convex", 2, seed)))
        assert rep.exit_code == EXIT_UNCERTIFIED
        assert rep.solution.sigma == pytest.approx(sigma, abs=1e-3)
        assert rep.residuals.max_residual <= 1e-7

    def test_certified_root_in_narrow_cell(self):
        # |g| at the root is above an absolute 1e-8 but tiny relative to ||x||^2
        rep = solve_problem(as_dense(gen_instance("diagonal", 5, 5038)))
        assert rep.exit_code == EXIT_CERTIFIED
        assert rep.solution.sigma == pytest.approx(1.78516, abs=1e-5)
        assert rep.solution.primal_value == pytest.approx(-74.249, abs=1e-3)

    @pytest.mark.parametrize("beta", [1e-4, 1e4])
    def test_scaling_c_scales_x_only(self, beta):
        for kind in ("convex", "indefinite", "diagonal"):
            for seed in range(7000, 7060):
                p = as_dense(gen_instance(kind, 3, seed))
                rep = solve_problem(p)
                scaled = solve_problem(ProblemInstance(Q=p.Q, c=beta * p.c))
                _assert_same_verdict(rep, scaled, (kind, seed), 1.0, beta)

    @pytest.mark.parametrize("alpha", [1e-4, 1e4])
    def test_scaling_q_and_c_scales_sigma_only(self, alpha):
        for case, p in _metamorphic_corpus():
            rep = solve_problem(p)
            scaled = solve_problem(ProblemInstance(Q=alpha * p.Q, c=alpha * p.c))
            _assert_same_verdict(rep, scaled, case, alpha, 1.0)

    def test_tail_rotation_keeps_verdict(self):
        # x -> (x0, R x_tail) with R orthogonal maps the cone onto itself
        rng = np.random.default_rng(7)
        for case, p in _metamorphic_corpus():
            T = np.eye(p.n)
            T[1:, 1:] = np.linalg.qr(rng.standard_normal((p.n - 1, p.n - 1)))[0]
            rep = solve_problem(p)
            rotated = solve_problem(ProblemInstance(Q=T.T @ p.Q @ T, c=T.T @ p.c))
            assert rotated.exit_code == rep.exit_code, case
            if rep.solution is not None:
                assert rotated.solution.primal_value == pytest.approx(
                    rep.solution.primal_value, rel=1e-8, abs=1e-12), case

    def test_poles_computed_once_per_solve(self, monkeypatch, hardcase_2d, dense_2d, dense_3d):
        # The hard case and the window-less dense_3d select without a
        # multiplier in the window; the window comes from the enumeration's cells.
        calls = []

        def counted(p, *args, **kwargs):
            calls.append(p)
            return pencil_singular_sigmas(p, *args, **kwargs)

        monkeypatch.setattr(dual, "pencil_singular_sigmas", counted)
        for p in (hardcase_2d, dense_2d, dense_3d):
            calls.clear()
            solve_problem(p)
            assert len(calls) == 1
            calls.clear()
            dual.maximize_dual(p)
            assert len(calls) == 1

    def test_oracle_block(self, dense_2d):
        rep = solve_problem(dense_2d, oracle=True, oracle_resolution=64)
        assert rep.oracle is not None
        assert rep.oracle.best_value >= rep.solution.primal_value - 1e-6
        assert not any("better feasible point" in w for w in rep.warnings)

    def test_oracle_flags_unbounded(self, dense_3d):
        rep = solve_problem(dense_3d, oracle=True, oracle_radius=5.0, oracle_resolution=64)
        assert rep.oracle.unbounded_direction is not None
        assert any("unbounded" in w for w in rep.warnings)


class TestSweepTable:
    def test_singular_row_is_empty(self):
        p = ProblemInstance(Q=np.eye(2), c=[1.0, 0.0])
        rows = sweep_table(p, 0.0, 2.0, 3)
        assert rows[1][0] == 1.0
        assert rows[1][1] is None and rows[1][2] is None
        assert rows[1][4] is False

    def test_pd_rows_have_nonincreasing_derivative(self, dense_2d):
        rows = sweep_table(dense_2d, 0.0, 2.0, 201)
        dd = [r[2] for r in rows if r[4]]
        assert all(a >= b - 1e-9 for a, b in zip(dd, dd[1:]))

    def test_convex_axis_instance_decreases_from_half(self):
        p = ProblemInstance(Q=np.eye(2), c=[1.0, 0.0])
        rows = sweep_table(p, 0.0, 0.9, 10)
        values = [r[1] for r in rows]
        assert values[0] == pytest.approx(-0.5, abs=1e-14)
        assert all(a > b for a, b in zip(values, values[1:]))
        assert all(r[2] < 0 for r in rows)

    def test_step_validation(self, dense_2d):
        with pytest.raises(ValueError):
            sweep_table(dense_2d, 0.0, 1.0, 1)

    def test_columns_match_an_independent_eigensolver(self):
        # random rows, plus rows placed exactly at the poles
        rng = np.random.default_rng(11)
        singular_rows = 0
        for _ in range(40):
            n = int(rng.integers(2, 7))
            A = rng.uniform(-2, 2, (n, n))
            p = ProblemInstance(Q=0.5 * (A + A.T), c=rng.uniform(-1, 1, n))
            rows = sweep_table(p, 0.0, 3.0, 31)
            for pole in pencil_singular_sigmas(p):
                rows += sweep_table(p, pole, pole + 1.0, 2)
            for sigma, dv, dd, lam, is_pd in rows:
                G = shifted_hessian(p, sigma)
                w = np.linalg.eigvalsh(G)
                norm = max(1.0, np.abs(G).sum(axis=1).max())
                band = 1e-10 * norm
                assert lam == pytest.approx(w[0], abs=1e-13 * norm)
                assert is_pd == bool(np.all(w > band))
                singular = bool(np.any(np.abs(w) <= band))
                assert (dv is None) == singular and (dd is None) == singular
                singular_rows += singular
        assert singular_rows > 40

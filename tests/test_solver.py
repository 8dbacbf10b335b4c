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
from lorentzqp.fileio import as_dense, gen_instance


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
                assert scaled.exit_code == rep.exit_code, (kind, seed)
                if rep.solution is None:
                    assert scaled.solution is None
                    continue
                assert scaled.solution.sigma == pytest.approx(
                    rep.solution.sigma, rel=1e-8, abs=1e-12)
                np.testing.assert_allclose(
                    scaled.solution.x, beta * rep.solution.x,
                    rtol=1e-7, atol=1e-9 * beta * np.abs(rep.solution.x).max())

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

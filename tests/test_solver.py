import dataclasses
import functools
import itertools
import sys
import warnings

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
    Tolerances,
    default_oracle_radius,
    dual_derivative,
    dual_value,
    duality_gap,
    kkt_check,
    recover_primal,
    solve_problem,
    sweep_table,
)
from lorentzqp import dual
from lorentzqp.dual import NAPPE_TOL
from lorentzqp.fileio import GEN_KINDS, as_dense, gen_instance, load_problem
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

    @pytest.mark.parametrize("alpha", [1e-100, 1e-12, 1e-8, 1e8, 1e12])
    def test_scaling_q_scales_sigma_and_x(self, alpha):
        # G(alpha*sigma) = alpha*(Q + sigma*L) for alpha*Q, so the solution
        # moves to (alpha*sigma, x/alpha); the nappe test is relative to max|x|,
        # and every solve runs in natural units, so that a small Q meets no
        # absolute floor
        for case, p in _metamorphic_corpus():
            rep = solve_problem(p)
            scaled = solve_problem(ProblemInstance(Q=alpha * p.Q, c=p.c))
            _assert_same_verdict(rep, scaled, case, alpha, 1.0 / alpha)

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

    def test_tail_rotation_keeps_verdict_near_light_like_c(self):
        # c just outside K next to its boundary, c'Lc = 1e-12 ||c||^2 with
        # c[0] > 0: multipliers near sigma ~ 1e12 recover x ~ Lc/sigma, on the
        # mirror nappe with |x[0]| far below any absolute nappe tolerance (with
        # c[0] < 0 they lie on the true nappe, where ROADMAP item 3b is open)
        rng = np.random.default_rng(12)
        eps = 1e-12
        for k in range(150):
            n = int(rng.integers(2, 6))
            A = rng.standard_normal((n, n))
            t = rng.standard_normal(n - 1)
            c = np.concatenate(([np.sqrt((1.0 - eps) / (1.0 + eps))], t / np.linalg.norm(t)))
            T = np.eye(n)
            T[1:, 1:] = np.linalg.qr(rng.standard_normal((n - 1, n - 1)))[0]
            p = ProblemInstance(Q=0.5 * (A + A.T), c=c)
            rotated = ProblemInstance(Q=T.T @ p.Q @ T, c=T.T @ c)
            assert solve_problem(rotated).exit_code == solve_problem(p).exit_code, k

    def test_poles_computed_once_per_solve(self, monkeypatch, hardcase_2d, dense_2d, dense_3d):
        # One eigh of the tail block gives the arrowhead: the poles, the
        # window's cells, the secular form of the multipliers, x and the
        # inertia at every shift, and the hard case's null space.  No
        # nonsymmetric eigensolve, no eigvalsh, and exactly one eigh, of size
        # n-1, per solve, also for the hard case and the window-less
        # dense_3d, which select without a multiplier in the window, and for
        # a solve with the oracle, whose default radius reads the minimum
        # eigenvalue at a certified multiplier from the same pencil.
        calls = {"eig": [], "eigvals": [], "eigh": [], "eigvalsh": []}
        for name in calls:
            def counted(*args, _solve=getattr(np.linalg, name), _name=name, **kwargs):
                calls[_name].append(np.shape(args[0])[0])
                return _solve(*args, **kwargs)
            monkeypatch.setattr(np.linalg, name, counted)
        for p in (hardcase_2d, dense_2d, dense_3d):
            for run in (solve_problem, dual.maximize_dual,
                        functools.partial(solve_problem, oracle=True, oracle_resolution=16)):
                for seen in calls.values():
                    seen.clear()
                run(p)
                assert calls["eig"] == calls["eigvals"] == calls["eigvalsh"] == []
                assert calls["eigh"] == [p.n - 1]

    @pytest.mark.parametrize("scale", [1.0, 3.0])
    def test_natural_units_once_per_hard_case_solve(self, monkeypatch, hardcase_2d, scale):
        # the selection's hard case runs on the enumeration's pencil, whose
        # problem in natural units is a copy at scale 3 and the problem
        # itself at scale 1; the binding is patched in every module
        from lorentzqp import model
        calls = []

        def counted(p, _natural_units=model.natural_units):
            calls.append(p)
            return _natural_units(p)

        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "lorentzqp" or name.startswith("lorentzqp.")]
        assert {"lorentzqp.arrowhead", "lorentzqp.verify"} <= {m.__name__ for m in modules}
        for module in modules:
            monkeypatch.setattr(module, "natural_units", counted, raising=False)
        rep = solve_problem(ProblemInstance(Q=scale * hardcase_2d.Q, c=scale * hardcase_2d.c))
        assert rep.exit_code == EXIT_HARD_CASE
        assert len(calls) == 1
        np.testing.assert_allclose(rep.solution.x, [0.5, 0.5], atol=1e-12)

    def test_boosted_hard_case_polishes_without_warnings(self):
        # the secular form returns a root exactly at the hard-case pole of
        # this Lorentz-boosted instance; its polish divides by zero there,
        # silently
        p = ProblemInstance(Q=[[1.7325916096809704, 0.39747457759220184],
                               [0.39747457759220184, 0.5661926142018127]],
                            c=[0.29026432991588413, 1.6269503731403128])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            quiet = solve_problem(p)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rep = solve_problem(p)
        assert rep.exit_code == EXIT_HARD_CASE
        assert rep.solution.x.tobytes() == quiet.solution.x.tobytes()
        np.testing.assert_allclose(rep.solution.x, [0.6197090919432331, 0.6197090919432333],
                                   rtol=1e-12)

    def test_oracle_block(self, dense_2d):
        rep = solve_problem(dense_2d, oracle=True, oracle_resolution=64)
        assert rep.oracle is not None
        assert rep.oracle.best_value >= rep.solution.primal_value - 1e-6
        assert not any("better feasible point" in w for w in rep.warnings)

    def test_oracle_above_n_4_is_rejected_before_enumerating(self, monkeypatch):
        from lorentzqp import solver
        from lorentzqp.verify import ORACLE_MAX_N

        def must_not_run(*args, **kwargs):
            raise AssertionError("enumerated past the dimension check")

        monkeypatch.setattr(solver, "enumerate_kkt", must_not_run)
        p = as_dense(gen_instance("convex", ORACLE_MAX_N + 1, 0))
        with pytest.raises(ValueError, match=f"n <= {ORACLE_MAX_N}"):
            solve_problem(p, oracle=True)

    def test_oracle_flags_unbounded(self, dense_3d):
        rep = solve_problem(dense_3d, oracle=True, oracle_radius=5.0, oracle_resolution=64)
        assert rep.oracle.unbounded_direction is not None
        assert any("unbounded" in w for w in rep.warnings)

    def test_oracle_flags_unbounded_at_any_scale_of_q(self, dense_3d):
        # the x1e-12 copy has the same direction of negative curvature
        p = ProblemInstance(Q=1e-12 * dense_3d.Q, c=dense_3d.c)
        rep = solve_problem(p, oracle=True, oracle_radius=5.0, oracle_resolution=64)
        assert rep.oracle.unbounded_direction is not None
        assert any("unbounded" in w for w in rep.warnings)


def test_integer_census_solves_to_kkt_points():
    # every symmetric Q in {-1,0,1}^{3x3} with six c, and every symmetric Q
    # in {-2,-1,1,2}^{3x3} with c = (1.0001, 0.6, 0.8): exactly singular Q,
    # defective poles at 0 that round-off moves off 0, and G(sigma)
    # proportional to (sigma - pole), where the Newton slope vanishes
    def sym(e):
        return [[e[0], e[1], e[2]], [e[1], e[3], e[4]], [e[2], e[4], e[5]]]

    cs = [(1, 0.3, -0.2), (0.5, 1, 0), (1, 1, 0), (2, -1, 0.5), (1, 0, 0), (0, 1, 0)]
    census = [(sym(e), c) for e in itertools.product((-1.0, 0.0, 1.0), repeat=6) for c in cs]
    census += [(sym(e), (1.0001, 0.6, 0.8))
               for e in itertools.product((-2.0, -1.0, 1.0, 2.0), repeat=6)]
    assert len(census) == 8470
    points = 0
    for Q, c in census:
        p = ProblemInstance(Q=Q, c=c)
        rep = solve_problem(p)
        for cp in rep.critical_points:
            points += 1
            assert kkt_check(p, cp.x, cp.sigma).max_residual <= 1e-7, (Q, c, cp.sigma)
        if rep.solution is not None:  # never a point of the mirror nappe
            x = rep.solution.x
            assert x[0] >= -NAPPE_TOL * np.abs(x).max(), (Q, c, rep.solution.sigma)
    assert points > 8000


# gen_instance("diagonal", 2 + k % 4, 777000 + k) for these k, with q * 1e200,
# raised ZeroDivisionError in both enumerations: the pole bound squared a
# cell width in t = 1/(sigma + lam) that underflowed, and the secular polish
# divided two underflowed squares; with q * 1e-200 both listed fewer points,
# as the absolute floors of the pole merge and the Newton starts swamped
# sigma ~ 1e-200
LARGE_Q_SEEDS = {1: EXIT_CERTIFIED, 3: EXIT_UNCERTIFIED, 4: EXIT_NO_SOLUTION, 10: EXIT_UNCERTIFIED}


def _large_q_cases():
    cases = [(np.diag([-1e200, 1e200]), np.diag([-1.0, 1.0]), [1.0, 1.0], EXIT_NO_SOLUTION),
             (-1e155 * np.eye(2), -np.eye(2), [1.0, 1.0], EXIT_NO_SOLUTION)]
    for scale in (1e200, 1e-200):
        for k, exit_code in LARGE_Q_SEEDS.items():
            d = gen_instance("diagonal", 2 + k % 4, 777000 + k)
            cases.append((np.diag(scale * d.q), np.diag(d.q), d.c, exit_code))
    return cases


@pytest.mark.parametrize("Q, unit, c, exit_code", _large_q_cases(),
                         ids=["Q0-unit0", "Q1-unit1"]
                         + [f"diagonal-{777000 + k}{tag}" for tag in ("", "-small") for k in LARGE_Q_SEEDS])
def test_large_q_exits_as_its_unit_scale_copy(Q, unit, c, exit_code):
    # the gate read x'Lx in units whose square underflowed (1e-200^2), and
    # the pole terms of the secular form squared 1e155 on Python floats
    big = solve_problem(ProblemInstance(Q=Q, c=c))
    small = solve_problem(ProblemInstance(Q=unit, c=c))
    assert big.exit_code == small.exit_code == exit_code
    scale = float(np.abs(Q).max() / np.abs(unit).max())
    np.testing.assert_allclose([cp.sigma for cp in big.critical_points],
                               [scale * cp.sigma for cp in small.critical_points], rtol=1e-12)


def test_tolerances_are_the_one_that_defines_a_verdict():
    assert [f.name for f in dataclasses.fields(Tolerances)] == ["tol_kkt"]


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

    @pytest.mark.parametrize("scale", [1e-12, 1e12])
    @pytest.mark.parametrize("name", ["dense_2d_certified", "dense_3d_uncertified",
                                      "diagonal_2d_certified", "diagonal_2d_saddle",
                                      "hardcase_2d"])
    def test_scaling_q_scales_the_rows(self, problem_dir, name, scale):
        # the zero band applies to the problem in natural units, so it scales
        # with Q: a band fixed in the problem's own units blanks every row at
        # Q * 1e-12
        p = as_dense(load_problem(problem_dir / f"{name}.json"))
        unit = sweep_table(p, 0.0, 2.0, 11)
        scaled = sweep_table(ProblemInstance(Q=scale * p.Q, c=p.c), 0.0, 2.0 * scale, 11)
        assert [(r[1] is None, r[4]) for r in scaled] == [(r[1] is None, r[4]) for r in unit]
        assert sum(r[1] is not None for r in unit) >= 9
        # sigma, dual_value, dual_derivative, min_eigenvalue, each to 1e-12
        # of its column's largest entry (a root of g reads as round-off)
        for col, power in enumerate((1, -1, -2, 1)):
            want = np.array([np.nan if r[col] is None else r[col] for r in unit])
            got = np.array([np.nan if r[col] is None else r[col] for r in scaled])
            want = want * scale**power
            np.testing.assert_allclose(got, want, rtol=1e-12,
                                       atol=1e-12 * np.nanmax(np.abs(want)))

    def test_one_eigh_for_any_number_of_rows(self, monkeypatch):
        # every row is read from one arrowhead: its eigh of the tail block
        p = gen_instance("indefinite", 6, 20000)
        calls = []

        def counted(G, *args, _eigh=np.linalg.eigh, **kwargs):
            calls.append(np.shape(G)[0])
            return _eigh(G, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", counted)
        monkeypatch.setattr(np.linalg, "eigvalsh", None)
        rows = sweep_table(p, 0.0, 10.0, 201)
        assert len(rows) == 201 and calls == [p.n - 1]

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


@pytest.mark.parametrize("path", ["dual_value", "dual_derivative", "recover_primal",
                                  "duality_gap", "sweep_table", "default_oracle_radius"])
def test_per_shift_paths_compute_no_roots(roots_and_eighs, path):
    # a solve at one shift needs the rotation of the arrowhead, not the
    # roots of its secular function or its poles
    p = gen_instance("convex", 6, 20002)
    cp = solve_problem(p).solution
    assert cp.certified
    run = {
        "dual_value": lambda: dual_value(p, cp.sigma),
        "dual_derivative": lambda: dual_derivative(p, cp.sigma),
        "recover_primal": lambda: recover_primal(p, cp.sigma),
        "duality_gap": lambda: duality_gap(p, cp.x, cp.sigma),
        "sweep_table": lambda: sweep_table(p, 0.0, 10.0, 201),
        "default_oracle_radius": lambda: default_oracle_radius(p, cp),
    }[path]
    roots_and_eighs.update(roots=0, eigh=0)
    run()
    assert roots_and_eighs == {"roots": 0, "eigh": 1}

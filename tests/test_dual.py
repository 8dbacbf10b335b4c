import itertools
import math
import warnings

import numpy as np
import pytest

from lorentzqp import dual, pontryagin
from lorentzqp import (
    CERT_GLOBAL,
    CERT_HARD,
    CERT_KKT,
    HardCaseError,
    ProblemInstance,
    SingularMatrixError,
    cone_quadratic,
    dual_derivative,
    dual_value,
    enumerate_kkt,
    hard_case_solve,
    kkt_check,
    maximize_dual,
    pd_interval,
    pencil_singular_sigmas,
    recover_primal,
    solve_problem,
)
from lorentzqp.arrowhead import Arrowhead, Pencil
from lorentzqp.fileio import as_dense, gen_instance
from lorentzqp.model import lorentz_signs, natural_units
from conftest import (census_720, integer_census, light_like_family, random_orthogonal,
                      repeated_entry_instances)
import referee


class TestDualValue:
    def test_unconstrained_convex(self):
        p = ProblemInstance(Q=np.eye(2), c=[1.0, 0.0])
        assert dual_value(p, 0.0) == pytest.approx(-0.5, abs=1e-14)

    def test_dense_2d_fixture(self, dense_2d):
        assert dual_value(dense_2d, 1.290909) == pytest.approx(-0.3025, abs=1e-4)

    def test_diagonal_by_hand(self, diag_certified):
        # -0.5 * (0.25/0.25 + 0.09/0.15)
        assert dual_value(diag_certified.to_dense(), 0.45) == pytest.approx(-0.8, abs=1e-12)

    def test_singular_shift_raises(self):
        p = ProblemInstance(Q=np.eye(2), c=[1.0, 0.0])
        with pytest.raises(SingularMatrixError) as err:
            dual_value(p, 1.0)
        assert err.value.sigma == 1.0


class TestDualDerivative:
    def test_unconstrained_convex(self):
        p = ProblemInstance(Q=np.eye(2), c=[1.0, 0.0])
        assert dual_derivative(p, 0.0) == pytest.approx(-0.5, abs=1e-14)

    def test_stationary_at_fixture_optimum(self, dense_2d):
        g = dual_derivative(dense_2d, 1.290909)
        assert abs(g) <= 1e-6
        h = 1e-6
        fd = (dual_value(dense_2d, 1.290909 + h) - dual_value(dense_2d, 1.290909 - h)) / (2 * h)
        assert g == pytest.approx(fd, abs=1e-6)

    def test_closed_form_axis_instance(self):
        p = ProblemInstance(Q=np.eye(2), c=[0.0, 1.0])
        assert dual_derivative(p, 0.5) == pytest.approx(0.5 * (1 / 1.5) ** 2, abs=1e-10)

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(6)
        checked = 0
        seed = 0
        while checked < 30:
            seed += 1
            p = as_dense(gen_instance("convex", int(rng.integers(2, 6)), 700 + seed))
            w = pd_interval(p)
            if w is None or w.hi - w.lo < 0.05:
                continue
            checked += 1
            for t in (0.2, 0.5, 0.8):
                s = w.lo + t * (w.hi - w.lo)
                h = 1e-5 * (1.0 + s)
                fd = (dual_value(p, s + h) - dual_value(p, s - h)) / (2 * h)
                g = dual_derivative(p, s)
                assert abs(fd - g) <= 1e-5 * (1.0 + abs(g))


class TestPdInterval:
    def test_identity(self):
        w = pd_interval(ProblemInstance(Q=np.eye(3), c=[1, 0, 0]))
        assert w.lo == 0.0 and not w.lo_singular
        assert w.hi == pytest.approx(1.0, abs=1e-9)
        assert w.hi_singular

    def test_diagonal_window(self, diag_certified):
        w = pd_interval(diag_certified.to_dense())
        assert w.lo == pytest.approx(0.3, abs=1e-9)
        assert w.hi == pytest.approx(0.7, abs=1e-9)
        assert w.lo_singular and w.hi_singular

    def test_dense_3d_has_no_window(self, dense_3d):
        # G[1,1] = -2 + sigma > 0 needs sigma > 2 while G[0,0] = 2 - sigma > 0
        # needs sigma < 2
        assert pd_interval(dense_3d) is None

    def test_defective_light_like_pole(self):
        # G(0.2) is singular with the light-like null vector u = (1, 1), so
        # u'G(sigma)u = 0 for every sigma and no window exists; round-off
        # splits the double pole into a sliver whose midpoint is PSD-singular
        p = ProblemInstance(Q=[[0.8, -0.6], [-0.6, 0.4]], c=[1.0, 0.3])
        assert pd_interval(p) is None
        assert solve_problem(p).exit_code == 4

    def test_negative_leading_entry(self):
        assert pd_interval(ProblemInstance(Q=[[-1.0, 0.0], [0.0, 1.0]], c=[1, 1])) is None

    def test_interior_is_positive_definite(self):
        rng = np.random.default_rng(7)
        from lorentzqp import min_eigenvalue, shifted_hessian
        for seed in range(40):
            p = as_dense(gen_instance("convex", int(rng.integers(2, 6)), 800 + seed))
            w = pd_interval(p)
            assert w is not None  # convex kind is PD at sigma = 0
            for t in (0.1, 0.5, 0.9):
                s = w.lo + t * (w.hi - w.lo)
                assert min_eigenvalue(shifted_hessian(p, s)) > 0


class TestMaximizeDual:
    def test_interior_optimum(self):
        p = ProblemInstance(Q=np.eye(2), c=[1.0, 0.0])
        cp = maximize_dual(p)
        assert cp.certificate == CERT_GLOBAL
        assert cp.sigma == 0.0
        np.testing.assert_allclose(cp.x, [1.0, 0.0], atol=1e-14)
        assert cp.primal_value == pytest.approx(-0.5, abs=1e-14)

    def test_dense_2d_fixture(self, dense_2d):
        cp = maximize_dual(dense_2d)
        assert cp.certificate == CERT_GLOBAL
        assert cp.sigma == pytest.approx(1.2909, abs=1e-3)
        np.testing.assert_allclose(cp.x, [0.55, 0.55], atol=1e-3)
        assert cp.primal_value == pytest.approx(-0.3025, abs=1e-4)
        assert cp.dual_value == pytest.approx(-0.3025, abs=1e-4)

    def test_hard_case_fixture(self, hardcase_2d):
        cp = maximize_dual(hardcase_2d)
        assert cp.certificate == CERT_HARD
        assert cp.sigma == pytest.approx(1.0, abs=1e-9)
        np.testing.assert_allclose(cp.x, [0.5, 0.5], atol=1e-9)
        assert cp.primal_value == pytest.approx(-0.25, abs=1e-12)

    def test_window_without_certified_point(self, dense_3d):
        assert maximize_dual(dense_3d) is None

    def test_negative_nappe_root_not_certified(self):
        # PD window root recovering a mirror-nappe point must not be certified
        p = ProblemInstance(Q=np.eye(2), c=[-0.5, 1.5])
        cp = maximize_dual(p)
        assert cp is not None
        assert cp.sigma == pytest.approx(0.5, abs=1e-9)
        assert not cp.nappe_ok
        assert cp.certificate == CERT_KKT

    def test_argmax_invariant_under_tail_rotation(self):
        rng = np.random.default_rng(8)
        for seed in range(20):
            p = as_dense(gen_instance("convex", 3, 900 + seed))
            cp = maximize_dual(p)
            if cp is None:
                continue
            R = np.eye(3)
            R[1:, 1:] = random_orthogonal(rng, 2)
            p_rot = ProblemInstance(Q=R.T @ p.Q @ R, c=R.T @ p.c)
            cp_rot = maximize_dual(p_rot)
            assert cp_rot is not None
            assert cp_rot.sigma == pytest.approx(cp.sigma, abs=1e-8)
            assert cp_rot.primal_value == pytest.approx(cp.primal_value, rel=1e-8, abs=1e-10)
            if cp.certificate != CERT_HARD:
                np.testing.assert_allclose(cp_rot.x, R.T @ cp.x, atol=1e-7)


class TestEnumerate:
    def test_saddle_fixture_roots(self, diag_saddle):
        pts = enumerate_kkt(diag_saddle.to_dense())
        positive = [cp for cp in pts if cp.sigma > 0]
        assert [round(cp.sigma, 9) for cp in positive] == [0.225, 0.6]
        assert all(not cp.nappe_ok for cp in positive)
        assert all(cp.certificate != CERT_GLOBAL for cp in pts)

    def test_certified_fixture_root(self, diag_certified):
        pts = enumerate_kkt(diag_certified.to_dense())
        assert len(pts) == 1
        cp = pts[0]
        assert cp.sigma == pytest.approx(0.45, abs=1e-9)
        np.testing.assert_allclose(cp.x, [2.0, -2.0], atol=1e-8)
        assert cp.dual_value == pytest.approx(-0.8, abs=1e-10)
        assert cp.certificate == CERT_GLOBAL

    def test_trivial_convex_instance(self):
        pts = enumerate_kkt(ProblemInstance(Q=np.eye(2), c=[1.0, 0.0]))
        assert len(pts) == 1
        assert pts[0].sigma == 0.0

    def test_tolerances_after_tol_are_keyword_only(self, dense_2d):
        # a call that still passes samples_per_interval third must fail, not
        # run with tol_eig = 64
        with pytest.raises(TypeError):
            enumerate_kkt(dense_2d, 1e-8, 64)
        # the Newton stopping rule and cap are pontryagin.TOL_ROOT and MAX_ITER
        with pytest.raises(TypeError):
            enumerate_kkt(dense_2d, tol_root=1e-10)
        with pytest.raises(TypeError):
            enumerate_kkt(dense_2d, max_iter=5)

    @pytest.mark.parametrize("q, c, poles", [
        ([1.0, -1.0], [1.0, 1.0], [1.0]),
        ([1.0, -1.0, -3.0], [1.0, 1.0, 0.0], [1.0, 3.0]),
    ])
    def test_critical_family_one_point_per_cell(self, q, c, poles):
        # g vanishes for every nonsingular sigma, so the pencil is singular and
        # its eigenvalues are arbitrary; a tail rotation keeps the family
        R = np.eye(len(q))
        if len(q) > 2:
            R[1:3, 1:3] = [[np.cos(0.3), -np.sin(0.3)], [np.sin(0.3), np.cos(0.3)]]
        p = ProblemInstance(Q=R.T @ np.diag(q) @ R, c=R.T @ np.array(c))
        pts = enumerate_kkt(p)
        edges = [0.0] + poles + [np.inf]
        assert len(pts) == len(edges) - 1
        for cp, lo, hi in zip(pts, edges[:-1], edges[1:]):
            assert lo <= cp.sigma < hi
            assert lo == 0.0 or cp.sigma - lo > 1e-6  # clear of the pole
            assert kkt_check(p, cp.x, cp.sigma).max_residual <= 1e-7
        assert solve_problem(p).solution is not None

    def test_light_like_poles_return_only_kkt_points(self):
        # Q = M - s*L with M u = 0 for a light-like u: G(s) = M is singular
        # with a defective pole, where ||x(sigma)|| outgrows x'Lx and the
        # relative gap tends to 0 although g does not vanish
        rng = np.random.default_rng(2)
        points = 0
        for k in range(400):
            n = int(rng.integers(2, 5))
            u = np.ones(n)
            t = rng.standard_normal(n - 1)
            u[1:] = t / np.linalg.norm(t)
            B = rng.standard_normal((n, n))
            P = np.eye(n) - np.outer(u, u) / (u @ u)
            M = P @ (B + B.T) @ P
            s = rng.uniform(0.1, 3.0)
            c = rng.uniform(-2.0, 2.0, n)
            if k % 3 == 0:  # c nearly orthogonal to the null vector
                c = c - (c @ u) / (u @ u) * u + 10.0 ** rng.uniform(-14, -6) * u
            p = ProblemInstance(Q=M - s * np.diag(lorentz_signs(n)), c=c)
            rep = solve_problem(p)
            for cp in rep.critical_points:
                points += 1
                assert kkt_check(p, cp.x, cp.sigma).max_residual <= 1e-7, (k, cp.sigma)
        assert points > 200

    def test_primal_dual_equality_and_kkt_closure(self):
        kinds = ("convex", "indefinite", "diagonal")
        for seed in range(60):
            inst = gen_instance(kinds[seed % 3], (2, 3, 5)[seed % 3], 1000 + seed)
            p = as_dense(inst)
            for cp in enumerate_kkt(p):
                gap = abs(cp.primal_value - cp.dual_value)
                assert gap <= 1e-8 * (1.0 + abs(cp.dual_value))
                assert kkt_check(p, cp.x, cp.sigma).max_residual <= 1e-7

    def test_certified_point_dominates_feasible_points(self):
        for seed in range(60):
            p = as_dense(gen_instance("indefinite", 2, 1100 + seed))
            best = maximize_dual(p)
            if best is None or best.certificate != CERT_GLOBAL:
                continue
            for cp in enumerate_kkt(p):
                if cp.nappe_ok:
                    assert best.primal_value <= cp.primal_value + 1e-9 * (1 + abs(cp.primal_value))

    def test_concavity_inside_pd_window(self):
        for seed in range(20):
            p = as_dense(gen_instance("convex", 3, 1200 + seed))
            w = pd_interval(p)
            if w is None or w.hi - w.lo < 0.05:
                continue
            grid = np.linspace(w.lo + 0.05 * (w.hi - w.lo), w.hi - 0.05 * (w.hi - w.lo), 9)
            vals = np.array([dual_value(p, float(s)) for s in grid])
            for i in range(grid.size - 2):
                a, b, c = grid[i], grid[i + 1], grid[i + 2]
                second = ((vals[i + 2] - vals[i + 1]) / (c - b)
                          - (vals[i + 1] - vals[i]) / (b - a)) / (c - a)
                assert second <= 1e-8


class TestRecoverPrimal:
    def test_identity(self):
        p = ProblemInstance(Q=np.eye(2), c=[0.3, -0.7])
        np.testing.assert_allclose(recover_primal(p, 0.0), p.c, atol=1e-15)

    def test_fixtures(self, dense_2d, dense_3d):
        np.testing.assert_allclose(recover_primal(dense_2d, 1.290909), [0.55, 0.55], atol=1e-3)
        np.testing.assert_allclose(
            recover_primal(dense_3d, 0.4509), [0.4355, 0.0416, 0.4335], atol=1e-3)

    def test_singular_raises(self, hardcase_2d):
        with pytest.raises(SingularMatrixError):
            recover_primal(hardcase_2d, 1.0)


class TestHardCase:
    def test_two_dimensional(self, hardcase_2d):
        cp = hard_case_solve(hardcase_2d, 1.0)
        np.testing.assert_allclose(cp.x, [0.5, 0.5], atol=1e-12)
        assert cp.primal_value == pytest.approx(-0.25, abs=1e-12)
        assert cp.certificate == CERT_HARD

    def test_three_dimensional_embedding(self):
        p = ProblemInstance(Q=np.eye(3), c=[0.0, 1.0, 0.0])
        cp = hard_case_solve(p, 1.0)
        np.testing.assert_allclose(cp.x, [0.5, 0.5, 0.0], atol=1e-12)
        assert cp.primal_value == pytest.approx(-0.25, abs=1e-12)

    def test_non_orthogonal_rhs_raises(self):
        p = ProblemInstance(Q=np.eye(2), c=[1.0, 0.0])
        with pytest.raises(HardCaseError, match="null space"):
            hard_case_solve(p, 1.0)

    def test_kkt_residuals_at_boundary_point(self, hardcase_2d):
        cp = hard_case_solve(hardcase_2d, 1.0)
        assert kkt_check(hardcase_2d, cp.x, cp.sigma).max_residual <= 1e-10

    def test_limit_of_dual_values(self, hardcase_2d):
        cp = hard_case_solve(hardcase_2d, 1.0)
        for eps in (1e-4, 1e-6):
            assert dual_value(hardcase_2d, 1.0 - eps) == pytest.approx(cp.dual_value, abs=1e-3)
        assert cone_quadratic(cp.x) == pytest.approx(0.0, abs=1e-12)

    def test_boundary_only_on_the_mirror_nappe_raises(self):
        # G(2) = diag(-3, 0): c is orthogonal to the null vector e1, but both
        # boundary points x_p +- e1/3 = (-1/3, +-1/3) lie on the mirror nappe
        p = ProblemInstance(Q=np.diag([-1.0, -2.0]), c=[1.0, 0.0])
        with pytest.raises(HardCaseError, match=r"no boundary point with x\[0\] >= 0"):
            hard_case_solve(p, 2.0)

    def test_selection_notes_a_hard_case_without_boundary_solution(self, hardcase_2d,
                                                                     monkeypatch):
        def no_boundary(*args, **kwargs):
            raise HardCaseError("no boundary point")

        monkeypatch.setattr(dual, "hard_case_solve", no_boundary)
        pencil = Pencil(hardcase_2d)
        point, notes = dual._maximize_with_notes(pencil, enumerate_kkt(pencil), 1e-8)
        assert point is None
        assert notes == ["hard case without boundary solution: no boundary point; "
                         "no certificate, see oracle"]


def qz_pencil_eigenvalues(p: ProblemInstance) -> np.ndarray:
    """Real positive eigenvalues of B(sigma) = [[G L G, c], [c', 0]] from
    scipy's QZ on the generalized linearization of size 2(n+1), an
    independent reference for the multipliers.  Eigenvalues with
    |beta| <= 1e-10 |alpha| are the pencil's infinite ones."""
    scipy_linalg = pytest.importorskip("scipy.linalg")
    n, m = p.n, p.n + 1
    scale = float(np.max(np.abs(p.Q))) or 1.0
    Q = p.Q / scale
    c = p.c / float(np.linalg.norm(p.c))
    signs = lorentz_signs(n)
    A = np.zeros((2 * m, 2 * m))
    A[:m, m:] = np.eye(m)
    A[m:m + n, :n] = -(Q @ (signs[:, None] * Q))
    A[m:m + n, n] = A[m + n, :n] = -c
    A[m:m + n, m:m + n] = -2.0 * Q
    B = np.eye(2 * m)
    B[m:, m:] = np.diag(np.append(signs, 0.0))
    alpha, beta = scipy_linalg.eigvals(A, B, homogeneous_eigvals=True)
    finite = np.abs(beta) > 1e-10 * np.abs(alpha)
    w = alpha[finite] / beta[finite]
    real = w[np.abs(w.imag) <= 1e-6 * (1.0 + np.abs(w.real))].real
    return scale * real[real > 0.0]


def qz_roots(p: ProblemInstance) -> np.ndarray:
    """The QZ eigenvalues, sorted, less the poles where c is orthogonal to
    the null space of G: det B vanishes there although g has no root (as
    for Q = I, c[0] = 0)."""
    ref = np.sort(qz_pencil_eigenvalues(p))
    singular = np.array(pencil_singular_sigmas(p))
    return ref[[np.min(np.abs(singular - s), initial=np.inf) > 1e-8 * (1.0 + s) for s in ref]]


def exact_multipliers(p: ProblemInstance) -> list[float]:
    """The exact multipliers sigma > 0 off the poles (``referee``), as the
    lower ends of their isolating intervals."""
    return [float(m.lo) for m in referee.judge(p.Q, p.c).multipliers]


def multipliers(p: ProblemInstance) -> list[float]:
    return [cp.sigma for cp in enumerate_kkt(p) if cp.sigma > 0.0]


class TestPencilEigenvalues:
    def test_matches_qz_reference(self):
        # every multiplier is an eigenvalue of the bordered pencil B, and
        # every such eigenvalue off the poles is listed, on the secular
        # route's reference set; for n <= 5 the listed values are the exact
        # ones of the rational data
        for p in secular_reference_set():
            got = multipliers(p)
            assert got == pytest.approx(qz_roots(p), rel=1e-6)
            if p.n <= 5:
                assert got == pytest.approx(exact_multipliers(p), rel=1e-9)

    def test_nearly_light_like_c_keeps_its_large_multiplier(self):
        # c'Lc = -(2e-4 + 1e-8): one multiplier near sigma = 5e4.  For n = 2,
        # x(sigma) is light-like when c is parallel to G(sigma)(1, s), s = +-1,
        # which is linear in sigma.  Shift-invert on the 2(n+1) pencil, whose
        # four infinite eigenvalues spread to O(eps^(1/4)), loses this one.
        q00, q01, q11 = 1.0225087906176649, -3.7203227421757443, 1.499412988801198
        c0, c1 = 1.0 + 1e-4, -1.0
        p = ProblemInstance(Q=[[q00, q01], [q01, q11]], c=[c0, c1])
        roots = [(c1 * (q00 + q01 * s) - c0 * (q01 + q11 * s)) / (c1 + c0 * s) for s in (1.0, -1.0)]
        expected = sorted(r for r in roots if r >= 0.0)
        assert expected[-1] > 1e4
        got = [cp.sigma for cp in enumerate_kkt(p) if cp.sigma > 0.0]
        assert got == pytest.approx(expected, rel=1e-9)

    @pytest.mark.parametrize("Q, c", [
        ([[-2.0, -1.0], [-1.0, -2.0]], [1.0, 1.0]),
        ([[1.0, 1.0], [1.0, -2.0]], [1.0, 1.0]),
        ([[-2.0, -2.0, -2.0], [-2.0, -2.0, 1.0], [-2.0, 1.0, -2.0]], [5.0, 3.0, 4.0]),
        (np.diag([-2.0, 1.0, -2.0, 1.0, 0.5]), [1.0, 0.5, 0.5, 0.5, 0.5]),
    ])
    def test_light_like_c_adds_no_multiplier(self, Q, c):
        # c'Lc = 0 exactly: in the secular form g has a root at
        # t = 1/(sigma + lam_k) = 0 that Newton from the last pole reaches,
        # and would become a "multiplier" near 1e16, where x(sigma) ~
        # Lc/sigma passes every scale-free gate; the bordered pencil's
        # eigenvalue at sigma = inf comes back from QZ finite, so the exact
        # multipliers are the reference
        p = ProblemInstance(Q=Q, c=c)
        assert cone_quadratic(p.c) == 0.0
        got = multipliers(p)
        assert got == pytest.approx(exact_multipliers(p), rel=1e-9)
        assert max(got, default=0.0) < 1e3

    @pytest.mark.parametrize("case", ["pole", "pole_orthogonal_to_c", "root", "root_dense"])
    def test_pole_or_root_at_the_default_shift(self, case):
        # a pole, or a root of g, at the irrational negative shift s0: the
        # multipliers are still the exact ones
        s0 = -0.5 * (math.sqrt(5.0) - 1.0)  # in units of max|Q|, 1 in every case
        if case == "pole":
            p = ProblemInstance(Q=np.diag([1.0, -s0]), c=[0.3, 1.0])
        elif case == "pole_orthogonal_to_c":
            p = ProblemInstance(Q=np.diag([1.0, -s0, 0.5]), c=[1.0, 0.0, 0.7])
        else:  # g(s0) = 0: c = G(s0) x for a light-like x
            Q = np.diag([1.0, 0.5]) if case == "root" else np.array(
                [[1.0, 0.2, 0.0], [0.2, 0.5, 0.1], [0.0, 0.1, -0.3]])
            x = np.array([1.0, 1.0] if case == "root" else [1.0, 0.6, 0.8])
            p = ProblemInstance(Q=Q, c=(Q + s0 * np.diag(lorentz_signs(len(x)))) @ x)
        got = multipliers(p)
        assert got == pytest.approx(exact_multipliers(p), rel=1e-9)
        assert got == pytest.approx(qz_roots(p), rel=1e-9)


def coercive_instance(n: int, seed: int) -> ProblemInstance:
    """Q = P - mu L with P positive definite and mu in [0.2, 3] max|P|:
    indefinite, with a positive-definite window and multipliers."""
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, n))
    P = X @ X.T / n + 0.1 * np.eye(n)
    mu = rng.uniform(0.2, 3.0) * float(np.max(np.abs(P)))
    return ProblemInstance(Q=P - mu * np.diag(lorentz_signs(n)), c=rng.uniform(-2.0, 2.0, n))


def secular_reference_set():
    """gen_instance of four kinds at n in {2, 3, 5, 8} and coercive
    instances at n in {2, 3, 100}."""
    for kind in ("convex", "indefinite", "diagonal", "hardcase"):
        for n in (2, 3, 5, 8):
            for seed in range(10):
                yield as_dense(gen_instance(kind, n, 40_000 + seed))
    for n, count in ((2, 10), (3, 10), (100, 1)):
        for seed in range(count):
            yield coercive_instance(n, 500 + seed)


def secular_form(p: ProblemInstance):
    return pontryagin.secular_form(Arrowhead(p), dual.DEFAULT_TOL_KKT)


def light_like(p: ProblemInstance) -> bool:
    return abs(cone_quadratic(p.c / np.linalg.norm(p.c))) <= p.n * pontryagin.EPS


class TestSecularRoute:
    def test_multipliers_match_qz_reference(self):
        for p in secular_reference_set():
            assert secular_form(p).block is None
            assert multipliers(p) == pytest.approx(qz_roots(p), rel=1e-6)

    def test_cells_hold_at_most_two_roots_and_the_bound_keeps_them(self, monkeypatch):
        # the cells lie between the poles with nonzero weight; every root of
        # g is a QZ eigenvalue, and skipping cells by the closed-form bound
        # drops none of them
        starts = {"bound": 0, "none": 0}

        def counting(key):
            def spy(*args):
                starts[key] += 1
                return descend(*args)
            return spy

        descend = pontryagin._descend
        for p in secular_reference_set():
            form = secular_form(p)
            ref = qz_roots(p)
            poles = np.sort(-form.lam[form.lam < 0.0])
            counts = np.histogram(ref, np.r_[0.0, poles, np.inf])[0]
            assert counts.max(initial=0) <= 2
            with monkeypatch.context() as m:
                m.setattr(pontryagin, "_descend", counting("bound"))
                kept = np.sort(form.roots(light_like(p)))
                m.setattr(pontryagin, "_pole_bound", lambda *args: 0.0)
                m.setattr(pontryagin, "_descend", counting("none"))
                every = np.sort(form.roots(light_like(p)))
            np.testing.assert_array_equal(kept, every)
            np.testing.assert_allclose(kept, ref, rtol=1e-6)
        assert starts["bound"] < 0.5 * starts["none"]

    def test_light_like_poles_take_the_secular_route(self):
        # the light-like-pole generator: every instance has a secular form
        # with an exceptional block (#240's is its split double pole, a
        # complex pair of f 2.4e-10 from the real axis).  Exit codes and point
        # counts of the first 60; next to the pole, the two roots of g that
        # straddle it at about 3e-3 relative are both listed, each an exact
        # multiplier
        exits = [2, 2, 4, 2, 4, 2, 4, 4, 4, 4, 4, 2, 4, 2, 4, 4, 4, 2, 4, 2,
                 2, 4, 4, 2, 4, 2, 4, 2, 4, 4, 2, 2, 4, 4, 2, 2, 2, 2, 4, 4,
                 4, 2, 4, 2, 2, 4, 4, 4, 4, 4, 4, 4, 4, 2, 4, 4, 4, 2, 2, 2]
        counts = [2, 2, 1, 2, 1, 1, 0, 1, 1, 0, 1, 1, 0, 3, 1, 0, 1, 1, 0, 3,
                  3, 0, 1, 3, 0, 1, 1, 2, 1, 1, 1, 1, 0, 0, 1, 1, 2, 1, 2, 0,
                  0, 3, 0, 1, 3, 0, 1, 0, 0, 1, 1, 0, 1, 3, 0, 1, 1, 2, 2, 2]
        straddling = {27: (0.88736953, 0.8938264), 36: (1.76217863, 1.76649258),
                      195: (0.62519909, 0.62986993), 219: (1.8331715, 1.84182607)}
        blocks = 0
        for k, p in enumerate(light_like_family("rng3", 600)):
            form = secular_form(p)
            assert form is not None, k
            blocks += form.block is not None
            if k < 60:
                rep = solve_problem(p)
                assert (rep.exit_code, len(rep.critical_points)) == (exits[k], counts[k]), k
            if k in straddling:
                got = multipliers(p)
                exact = exact_multipliers(p)
                assert got == pytest.approx(straddling[k], rel=1e-7), k
                assert got == pytest.approx([exact[0], exact[-1]], rel=1e-7), k
        assert blocks == 600


def test_one_eigensolve_per_enumeration(monkeypatch):
    # every enumeration makes one symmetric eigensolve, of size n - 1, and
    # no general eigensolve (numpy.roots included) or dense solve, on every
    # corpus with nearly defective poles and the regular 720 census
    sizes = []

    def eigh(a, *args, _eigh=np.linalg.eigh, **kwargs):
        sizes.append(len(a))
        return _eigh(a, *args, **kwargs)

    def forbidden(*args, **kwargs):
        raise AssertionError("a general eigensolve or a dense solve")

    monkeypatch.setattr(np.linalg, "eigh", eigh)
    monkeypatch.setattr(np.linalg, "eigvals", forbidden)
    monkeypatch.setattr(np.linalg, "solve", forbidden)
    corpora = [census_720(), integer_census(), light_like_family("rng2", 400),
               light_like_family("rng3", 60), repeated_entry_instances()]
    count = 0
    for p in itertools.chain(*corpora):
        del sizes[:]
        enumerate_kkt(p)
        assert sizes == [p.n - 1]
        count += 1
    assert count == 720 + 8470 + 400 + 60 + 800


def test_descents_take_at_most_50_steps(monkeypatch):
    # every Newton descent of the root isolation ends within 50 steps
    steps = []

    def counting(F, *args, _descend=pontryagin._descend):
        calls = [0]

        def G(u):
            calls[0] += 1
            return F(u)
        try:
            return _descend(G, *args)
        finally:
            steps.append(calls[0] - 1)

    monkeypatch.setattr(pontryagin, "_descend", counting)
    for p in itertools.chain(repeated_entry_instances(), integer_census()):
        pencil = Pencil(p)
        form = pontryagin.secular_form(pencil.arrow, dual.DEFAULT_TOL_KKT)
        if not form.vanishes:
            form.roots(light_like(pencil.q))
    assert 0 < max(steps) <= 50


def test_a_lone_nearly_defective_root_joins_its_nearest_root():
    # on the x1e-6 copy of light-like instance 240 one root of a nearly
    # double pair has |v'Lv| / ||v||^2 = 9.4e-7 and its partner 1.01e-6; the
    # partner joins the block, so that its cancelling weight stays out of
    # psi, and the verdict is the unit copy's
    p = list(light_like_family("rng3", 241))[240]
    small = ProblemInstance(Q=1e-6 * p.Q, c=p.c)
    arrow = Pencil(small).arrow
    assert np.count_nonzero(np.abs(arrow.eta) / arrow.vv.real <= 1e-6) == 1
    block = pontryagin.secular_form(arrow, dual.DEFAULT_TOL_KKT).block
    assert len(block.S) == 3  # a pair: S = (0, P_1, P_0)
    unit, scaled = solve_problem(p), solve_problem(small)
    assert (scaled.exit_code, len(scaled.critical_points)) == (unit.exit_code, len(unit.critical_points))


@pytest.mark.parametrize("c0", [1e-6, 1e-8])
def test_polish_stops_relative_to_the_nearest_pole(c0):
    # the roots (1 -+ c0)/(1 +- c0) straddle the pole sigma = 1; plain Newton
    # from next to a root must not stop while its error, not its step, is
    # still larger than TOL_ROOT times the distance to that pole
    p = ProblemInstance(Q=np.eye(2), c=[c0, 1.0])
    form = secular_form(p)
    for root in ((1.0 - c0) / (1.0 + c0), (1.0 + c0) / (1.0 - c0)):
        for start in (root * (1.0 - 1e-9), root * (1.0 + 1e-9)):
            sigma = form.polish(start)
            assert abs(sigma - root) <= 1e-14


def test_root_rounded_onto_its_pole_has_a_finite_weight():
    # a tail coupling just above DEFLATION (d = -4.0e-15 in natural units)
    # puts a root of f d^2/gap away from its pole, below the rounding of
    # sigma: its null vector is e_j in the limit, with type 1 and weight
    # c_j^2 as for a decoupled coordinate, where inf/inf made a NaN weight
    p = ProblemInstance(
        Q=[[1.022770851062848e-06, -1.2913982301677691e-07, 1.5893312203629177e-07,
            6.421357033225277e-08],
           [-1.2913982301677691e-07, 1.008244677779513e-06, -1.0146772305170476e-08,
            -4.0995889888492695e-09],
           [1.5893312203629177e-07, -1.0146772305170476e-08, 1.0124876909645648e-06,
            5.045387718850853e-09],
           [6.421357033225277e-08, -4.0995889888492695e-09, 5.045387718850853e-09,
            1.0020384823187702e-06]],
        c=[0.14562135794235934, -0.1230466139048966, 1.540939588996783, 0.5257779667480181])
    q, _, _ = natural_units(p)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        arrow = Arrowhead(q)
        form = pontryagin.secular_form(arrow, dual.DEFAULT_TOL_KKT)
        points = [cp.sigma for cp in enumerate_kkt(p)]
        rep = solve_problem(p)
    assert list(arrow.eta).count(1.0) == 1  # the root on its pole
    assert all(np.isfinite(a).all() for a in (arrow.eta, arrow.vc, arrow.vv))
    assert form is not None and np.isfinite(form.beta).all()
    # the two exact multipliers lie within 1e-18 of the pole at 1e-6, in the
    # zero band, where the inertia filter drops them
    verdict = referee.judge(p.Q, p.c)
    assert [s for s in points if s > 0.0] == []
    assert len(verdict.multipliers) == 2
    assert all(verdict.near_pole(float(m.lo), 1e-9) for m in verdict.multipliers)
    assert rep.exit_code == 3

"""The arrowhead form of the pencil against dense references: the poles
against the eigenvalues of L Q, x(sigma) and g against a dense solve, the
inertia against ``factorize``, and the deflation of decoupled and repeated
tail coordinates."""

import sys
import threading

import numpy as np
import pytest

from lorentzqp import (ProblemInstance, arrowhead, cone_quadratic, dual, linalg, pontryagin,
                       solve_problem)
from lorentzqp.arrowhead import Arrowhead
from lorentzqp.fileio import as_dense, gen_instance
from lorentzqp.linalg import factorize
from lorentzqp.model import shifted_hessian


def lq_eigenvalues(p: ProblemInstance) -> np.ndarray:
    """Eigenvalues of L Q; the poles are their negatives."""
    LQ = p.Q.copy()
    LQ[0, :] = -LQ[0, :]
    return np.linalg.eigvals(LQ)


def arrow_poles(a: Arrowhead) -> np.ndarray:
    """Every singular shift of the arrowhead, complex ones included."""
    return np.concatenate([a.roots.astype(complex), (-a.nu[~a.coupled]).astype(complex)])


def assert_same_poles(p: ProblemInstance, rtol: float = 1e-12):
    got = arrow_poles(Arrowhead(p))
    ref = list(-lq_eigenvalues(p))
    scale = max(1.0, float(np.abs(p.Q).max()))
    assert got.size == len(ref)
    for z in got:  # match each pole with the nearest unused eigenvalue
        j = int(np.argmin([abs(z - w) for w in ref]))
        assert abs(z - ref.pop(j)) <= rtol * scale, (z, got)


def with_tail(alpha: float, d, nu, c, seed: int) -> ProblemInstance:
    """The problem whose arrowhead is (alpha, d, nu), tail rotated at random."""
    m = len(nu)
    U = np.linalg.qr(np.random.default_rng(seed).standard_normal((m, m)))[0]
    Q = np.zeros((m + 1, m + 1))
    Q[0, 0] = alpha
    Q[1:, 0] = Q[0, 1:] = U @ np.asarray(d, dtype=float)
    Q[1:, 1:] = U @ np.diag(nu) @ U.T
    return ProblemInstance(Q=0.5 * (Q + Q.T), c=c)


def instances():
    for n in (2, 3, 5, 20, 100):
        for kind in ("convex", "indefinite", "diagonal", "hardcase"):
            for seed in range(3 if n < 100 else 1):
                yield as_dense(gen_instance(kind, n, 50_000 + seed))


class TestPoles:
    @pytest.mark.parametrize("p", list(instances()), ids=lambda p: p.name)
    def test_equal_the_eigenvalues_of_lq(self, p):
        assert_same_poles(p)

    def test_complex_pair(self):
        # f(sigma) = -sigma - 1/(sigma - 1) - 1/(sigma + 1) has the roots 0, +-i
        p = with_tail(0.0, [1.0, 1.0], [-1.0, 1.0], [1.0, 0.5, 0.5], seed=1)
        a = Arrowhead(p)
        assert np.iscomplexobj(a.roots)
        np.testing.assert_allclose(a.roots[np.argsort(a.roots.imag)], [-1j, 0.0, 1j], atol=1e-12)
        assert_same_poles(p)

    def test_three_roots_in_one_bracket(self):
        # small couplings leave f ~ -sigma inside the bracket (-2, 2): a root
        # next to each pole and one at 0
        p = with_tail(0.0, [0.1, 0.1, 0.3], [-2.0, 2.0, 3.0], [1.0, 0.2, -0.3, 0.4], seed=2)
        a = Arrowhead(p)
        inside = [r for r in a.roots.real if -2.0 < r < 2.0]
        assert len(inside) == 3
        assert_same_poles(p)

    def test_random_instances(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            n = int(rng.integers(2, 9))
            A = rng.standard_normal((n, n))
            assert_same_poles(ProblemInstance(Q=A + A.T, c=rng.standard_normal(n)))


class TestPerShift:
    def test_x_and_g_equal_the_dense_solve(self):
        rng = np.random.default_rng(3)
        checked = 0
        for p in instances():
            a = Arrowhead(p)
            for sigma in rng.uniform(0.0, 3.0, 4):
                G = shifted_hessian(p, sigma)
                w = np.linalg.eigvalsh(G)
                if np.abs(w).min() < 1e-2 * np.abs(w).max():
                    continue  # ill-conditioned: no 1e-12 reference
                x = np.linalg.solve(G, p.c)
                got = a.x(sigma)
                assert np.abs(got - x).max() <= 1e-12 * np.abs(x).max()
                assert abs(a.g(sigma) - cone_quadratic(x)) <= 1e-12 * float(x @ x)
                checked += 1
        assert checked > 100

    def test_x_next_to_a_coupled_pole(self):
        # sigma = -nu_j with d_j != 0: G is regular there, and the pivoted
        # solve is exact where N/f would divide infinities
        p = ProblemInstance(Q=[[-1.0, -1.0, -1.0], [-1.0, -1.0, 1.0], [-1.0, 1.0, -1.0]],
                            c=[0.5, 1.0, 0.0])
        a = Arrowhead(p)
        assert 0.0 in list(a.nu[a.coupled])
        np.testing.assert_allclose(a.x(0.0), np.linalg.solve(p.Q, p.c), rtol=1e-14)

    def test_inertia_equals_factorize(self):
        rng = np.random.default_rng(4)
        compared = 0
        for p in instances():
            a = Arrowhead(p)
            for sigma in list(rng.uniform(0.0, 3.0, 4)) + a.poles:
                f = factorize(shifted_hessian(p, sigma))
                near_edge = np.abs(np.abs(f.w) - f.band) <= 0.9 * f.band + 1e-13 * np.abs(f.w).max()
                if near_edge.any():
                    continue  # an eigenvalue at the band's edge: either count is right
                assert a.inertia(sigma) == f.inertia, (p.name, sigma)
                compared += 1
        assert compared > 200

    @pytest.mark.parametrize("Q, sigma, tol_eig, inertia", [
        # decoupled: the repeated nu = -0.5 (a tie in the count of nu) at
        # -band, at +band, and the single nu = 0.125 at +band
        (np.diag([0.25, -0.5, -0.5, 0.125]), 0.375, 0.125, (1, 3, 0)),
        (np.diag([0.25, -0.5, -0.5, 0.125]), 0.625, 0.125, (1, 2, 1)),
        (np.diag([0.25, -0.5, -0.5, 0.125]), 0.0, 0.125, (1, 1, 2)),
        # coupled: G = [[0.75, 0.25], [0.25, 0.75]] has the eigenvalue 0.5 at
        # +band, and G = [[-0.75, 0.25], [0.25, -0.75]] the eigenvalue -0.5
        # at -band (||G||_inf = 1, so band = tol_eig), f = 0 there
        ([[1.0, 0.25], [0.25, 0.5]], 0.25, 0.5, (1, 1, 0)),
        ([[-0.5, 0.25], [0.25, -1.0]], 0.25, 0.5, (0, 1, 1)),
    ])
    def test_inertia_on_the_edges_of_the_band(self, monkeypatch, Q, sigma, tol_eig, inertia):
        # every entry is dyadic, so nu + sigma and f land exactly on the
        # band; the band is closed on both sides, as in ``factorize``.  The
        # band is widened to tol_eig in each module that reads TOL_EIG.
        monkeypatch.setattr(arrowhead, "TOL_EIG", tol_eig)
        monkeypatch.setattr(linalg, "TOL_EIG", tol_eig)
        p = ProblemInstance(Q=Q, c=np.linspace(1.0, 0.5, len(Q)))
        f = factorize(shifted_hessian(p, sigma))
        assert f.band == tol_eig
        assert Arrowhead(p).inertia(sigma) == f.inertia == inertia

    def test_inertia_at_a_nan_shift_counts_everything_positive(self):
        # every comparison with NaN is false: no eigenvalue counts as below
        # -band or up to +band
        for p in (ProblemInstance(Q=np.diag([0.25, -0.5, -0.5, 0.125]), c=np.ones(4)),
                  gen_instance("indefinite", 5, 3)):
            assert Arrowhead(p).inertia(float("nan")) == (p.n, 0, 0)


class TestDeflation:
    def test_zero_coupling_decouples(self):
        # a diagonal Q with its tail rotated: d = 0, every tail coordinate a
        # pole of its own with eta = 1, and f = alpha - sigma needs no Newton
        rng = np.random.default_rng(5)
        T = np.eye(4)
        T[1:, 1:] = np.linalg.qr(rng.standard_normal((3, 3)))[0]
        p = ProblemInstance(Q=T.T @ np.diag([0.5, -1.0, 1.0, 2.0]) @ T,
                            c=T.T @ [1.0, 0.5, 0.2, -0.3])
        a = Arrowhead(p)
        assert not a.coupled.any()
        np.testing.assert_array_equal(a.roots, [0.5])
        np.testing.assert_allclose(np.sort(-a.nu), [-2.0, -1.0, 1.0], atol=1e-14)
        assert a.poles == pytest.approx([0.5, 1.0])

    def test_repeated_nu_keeps_one_coupled_coordinate(self):
        p = with_tail(0.3, [0.4, -0.7, 0.2, 0.5], [1.0, 1.0, 1.0, 2.0], [1.0, 0.3, -0.2, 0.6, 0.1],
                      seed=6)
        a = Arrowhead(p)
        assert np.count_nonzero(a.coupled) == 2
        repeated = np.abs(a.nu - 1.0) <= 1e-12
        assert np.count_nonzero(repeated & a.coupled) == 1
        assert_same_poles(p)
        # the rotation within the repeated block keeps U orthogonal and the
        # arrowhead equal to the rotated Q
        np.testing.assert_allclose(a.U.T @ a.U, np.eye(4), atol=1e-14)
        np.testing.assert_allclose(a.U.T @ p.Q[1:, 1:] @ a.U, np.diag(a.nu), atol=1e-14)
        np.testing.assert_allclose(a.U.T @ p.Q[1:, 0], a.d, atol=1e-14)


def test_small_coupling_keeps_the_weights_next_to_a_pole(monkeypatch):
    # d ~ 1e-13 is above the deflation tolerance, so each root of f sits
    # within d^2 ~ 1e-26 of a pole, far below the rounding of sigma: the
    # weights N^2/f' must be read relative to that pole, or the roots of g
    # move (here to none).  The companion route, which does not use the
    # weights, is the reference.
    p = with_tail(1.3, [1e-13, -8e-13, 9e-13], [-1.0, 1.0, 2.0], [-0.5, 1.2, -1.9, -0.3], seed=8)
    assert Arrowhead(p).coupled.all()
    got = [cp.sigma for cp in solve_problem(p).critical_points]
    with monkeypatch.context() as m:
        m.setattr(dual, "secular_form", lambda *args: None)
        ref = [cp.sigma for cp in solve_problem(p).critical_points]
    assert len(ref) == 2
    assert got == pytest.approx(ref, rel=1e-12)


@pytest.mark.parametrize("Q, c", [
    ([[1, 1, -1], [1, 1, 0], [-1, 0, -1]], [1, 1, 0]),
    ([[1, 1, -1], [1, 1, 0], [-1, 0, 1]], [1, 1, 0]),
    ([[1, 1, 1], [1, 1, 0], [1, 0, -1]], [1, 1, 0]),
    ([[1, 1, 1], [1, 1, 0], [1, 0, 1]], [1, 1, 0]),
    ([[0, 1, 2], [1, -4, -2], [2, -2, -4]], [1, 0, -1]),
    ([[2, 2, -2], [2, 0, -1], [-2, -1, 2]], [1, 0, -1]),
    ([[0, 1, 2], [1, 4, 1], [2, 1, -4]], [1, 0, -1]),
    ([[-4, -1, -3, 0, -4], [-1, 4, 2, -1, 1], [-3, 2, 4, -2, 3], [0, -1, -2, 4, -4],
      [-4, 1, 3, -4, -4]], [1, 0, 0, 1, 0]),
])
def test_light_like_c_lists_no_image_of_the_root_at_infinity(Q, c):
    # c'Lc = 0 and g vanishes at sigma = inf to second order, so rounding of
    # the weights splits that double root and puts a finite root of order
    # 1/sqrt(eps); g has none (it stays positive beyond sigma = 1e6 in
    # 60-digit arithmetic), yet its near-vertex point passes the KKT gate
    p = ProblemInstance(Q=np.array(Q, dtype=float), c=np.array(c, dtype=float))
    assert [cp.sigma for cp in dual.enumerate_kkt(p) if cp.sigma > 1e6] == []


def repeated_entry_instances():
    """Diagonal entries from {-2, -1, 0.5, 1, 2}, every second instance with
    a random tail rotation: repeated eigenvalues of L Q throughout."""
    rng = np.random.default_rng(11)
    for k in range(800):
        n = int(rng.integers(2, 7))
        Q = np.diag(rng.choice([-2.0, -1.0, 0.5, 1.0, 2.0], n))
        c = rng.choice([-1.0, 0.0, 0.5, 1.0], n)
        c[0] = c[0] or 1.0
        if k % 2:
            T = np.eye(n)
            T[1:, 1:] = np.linalg.qr(rng.standard_normal((n - 1, n - 1)))[0]
            Q, c = T.T @ Q @ T, T.T @ c
        yield ProblemInstance(Q=Q, c=c)


def test_repeated_eigenvalues_stay_on_the_secular_route(monkeypatch):
    # with eig(L Q), 192 of these 800 fell back to the companion eigensolve
    # (eigenvectors of a repeated eigenvalue that are not L-orthogonal); the
    # exit codes are those of that version
    def no_fallback(*args):
        raise AssertionError("companion fallback taken")

    monkeypatch.setattr(dual, "_pencil_eigenvalues", no_fallback)
    exits = {0: 0, 2: 0, 4: 0}
    for p in repeated_entry_instances():
        assert pontryagin.secular_form(Arrowhead(p), dual.DEFAULT_TOL_KKT) is not None
        exits[solve_problem(p).exit_code] += 1
    assert exits == {0: 129, 2: 240, 4: 431}


def test_lazy_roots_and_poles_agree_across_threads():
    # the roots of f and the poles are filled in on first access; threads
    # that race there compute them more than once, always to the same values
    p = as_dense(gen_instance("indefinite", 20, 20000))
    ref = Arrowhead(p)
    want = (ref.poles, ref.roots.tobytes(), ref.eta.tobytes(), ref.vc.tobytes(), ref.vv.tobytes())
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(20):
            a, got = Arrowhead(p), []
            threads = [threading.Thread(target=lambda: got.append(
                (a.poles, a.roots.tobytes(), a.eta.tobytes(), a.vc.tobytes(), a.vv.tobytes())))
                for _ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
            assert not any(t.is_alive() for t in threads)
            assert got == [want] * 8
    finally:
        sys.setswitchinterval(interval)

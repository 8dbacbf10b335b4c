import numpy as np
import pytest

from lorentzqp.model import lorentz_signs

from lorentzqp import (
    DiagonalInstance,
    ProblemInstance,
    SingularMatrixError,
    factorize,
    min_eigenvalue,
    pencil_singular_sigmas,
    shifted_hessian,
    solve_linear,
)
from conftest import light_like_family


def eig_inertia(G, band):
    w = np.linalg.eigvalsh(G)
    return (int(np.sum(w > band)), int(np.sum(np.abs(w) <= band)), int(np.sum(w < -band)))


class TestFactorize:
    def test_identity(self):
        assert factorize(np.eye(3)).inertia == (3, 0, 0)

    def test_dense_3d_shift_is_indefinite(self, dense_3d):
        # leading principal minors 1.5491, -3.3997, +1.2638: two sign changes
        f = factorize(shifted_hessian(dense_3d, 0.4509))
        assert f.inertia == (1, 0, 2)
        band = 1e-10 * max(1.0, np.abs(f.G).sum(axis=1).max())
        assert eig_inertia(f.G, band) == (1, 0, 2)

    def test_singular_hard_case_matrix(self):
        f = factorize(np.diag([0.0, 2.0]))
        assert f.inertia == (1, 1, 0)
        assert f.singular

    def test_matches_eigensolver_on_random_matrices(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            n = int(rng.integers(2, 8))
            A = rng.uniform(-2, 2, (n, n))
            G = 0.5 * (A + A.T)
            f = factorize(G)
            band = 1e-10 * max(1.0, np.abs(G).sum(axis=1).max())
            assert f.inertia == eig_inertia(G, band)


class TestSolveLinear:
    def test_identity(self):
        c = np.array([1.0, 2.0, 3.0])
        np.testing.assert_array_equal(solve_linear(factorize(np.eye(3)), c), c)

    def test_dense_2d_fixture(self, dense_2d):
        x = solve_linear(factorize(shifted_hessian(dense_2d, 1.290909)), dense_2d.c)
        np.testing.assert_allclose(x, [0.55, 0.55], atol=1e-3)

    def test_dense_3d_fixture(self, dense_3d):
        x = solve_linear(factorize(shifted_hessian(dense_3d, 0.4509)), dense_3d.c)
        np.testing.assert_allclose(x, [0.4355, 0.0416, 0.4335], atol=1e-3)

    def test_singular_raises(self):
        with pytest.raises(SingularMatrixError, match="hard-case"):
            solve_linear(factorize(np.diag([0.0, 2.0])), np.array([0.0, 1.0]))

    def test_residual_on_random_systems(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            n = int(rng.integers(2, 9))
            A = rng.standard_normal((n, n))
            G = 0.5 * (A + A.T) + n * np.eye(n)  # well conditioned
            rhs = rng.standard_normal(n)
            x = solve_linear(factorize(G), rhs)
            assert np.max(np.abs(G @ x - rhs)) <= 1e-10 * (1.0 + np.max(np.abs(rhs)))


class TestMinEigenvalue:
    def test_identity(self):
        assert min_eigenvalue(np.eye(4)) == pytest.approx(1.0, abs=1e-12)

    def test_two_by_two_closed_form(self):
        # characteristic polynomial l^2 - 1.2 l + 0.1919 as the oracle
        G = np.array([[0.51, 0.4], [0.4, 0.69]])
        roots = np.roots([1.0, -1.2, 0.51 * 0.69 - 0.16])
        assert min_eigenvalue(G) == pytest.approx(float(np.min(roots)), abs=1e-12)
        assert min_eigenvalue(G) == pytest.approx(0.19, abs=1e-12)

    def test_dense_3d_shift_negative(self, dense_3d):
        assert min_eigenvalue(shifted_hessian(dense_3d, 0.4509)) < 0


class TestPencilSingularSigmas:
    def test_diagonal_pole_structure(self):
        p = DiagonalInstance(q=[1.5, -0.4, 0.9, 2.0], c=[1, 1, 1, 1]).to_dense()
        np.testing.assert_allclose(pencil_singular_sigmas(p), [0.4, 1.5], atol=1e-9)

    def test_saddle_fixture_poles(self, diag_saddle):
        np.testing.assert_allclose(
            pencil_singular_sigmas(diag_saddle.to_dense()), [0.1, 0.3], atol=1e-9)

    def test_certified_fixture_poles(self, diag_certified):
        np.testing.assert_allclose(
            pencil_singular_sigmas(diag_certified.to_dense()), [0.3, 0.7], atol=1e-9)

    def test_determinant_vanishes_and_flips_sign(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            n = int(rng.integers(2, 6))
            A = rng.uniform(-2, 2, (n, n))
            p = ProblemInstance(Q=0.5 * (A + A.T), c=np.zeros(n))
            poles = pencil_singular_sigmas(p)
            scale = 1.0 + float(np.max(np.abs(p.Q)))
            for i, s in enumerate(poles):
                assert abs(np.linalg.det(shifted_hessian(p, s))) <= 1e-6 * scale
                h = 1e-4 * (1.0 + s)
                isolated = all(abs(s - t) > 3 * h for j, t in enumerate(poles) if j != i)
                if isolated:
                    left = np.linalg.det(shifted_hessian(p, s - h))
                    right = np.linalg.det(shifted_hessian(p, s + h))
                    assert left * right < 0

    def test_defective_pole_split_into_complex_pair(self):
        # Q = M - s*L with M u = 0 for a light-like u (s = 0.8955575446677707):
        # the double eigenvalue of L Q comes back as -0.89555754 +- 4.3e-7i,
        # outside the realness filter, while G is singular at its real part
        Q = np.array([
            [1.5779782471642378, -1.050515395084039, 1.8084960445944924, 0.7907998602116446],
            [-1.050515395084039, 1.3973163320556954, 0.778530531417841, -1.8683033199086712],
            [1.8084960445944924, 0.778530531417841, -0.41002833297825136, 1.6091541768457058],
            [0.7907998602116446, -1.8683033199086712, 1.6091541768457058, 0.2722008177465042],
        ])
        poles = pencil_singular_sigmas(ProblemInstance(Q=Q, c=np.zeros(4)))
        near = [s for s in poles if abs(s - 0.8955575446677707) <= 1e-9]
        assert len(near) == 2
        assert factorize(Q + near[0] * np.diag([-1.0, 1.0, 1.0, 1.0])).singular
        assert any(abs(s - 0.9021687211918277) <= 1e-9 for s in poles)

    @pytest.mark.parametrize("family, ks", [
        ("rng3", (38, 71, 72, 82, 165, 203, 218)),
        ("rng2", (35, 158, 226, 319, 378)),
    ])
    def test_nearly_double_pole_beyond_the_brackets(self, family, ks):
        # the light-like-pole generators (conftest): next to a nearly
        # double pole, Newton on f from the center of the pair beyond the
        # brackets slid onto a bracket root or stopped between roots, so one
        # pole was listed twice and the pair not at all
        for k, p in enumerate(light_like_family(family, max(ks) + 1)):
            if k in ks:
                ev = -np.linalg.eigvals(lorentz_signs(p.n)[:, None] * p.Q)
                ref = ev[np.abs(ev.imag) <= 1e-6 * (1.0 + np.abs(ev.real))].real
                ref = np.sort(np.maximum(ref[ref >= -1e-9], 0.0))
                np.testing.assert_allclose(pencil_singular_sigmas(p), ref, atol=1e-6,
                                           rtol=0.0, err_msg=f"{family} {k}")

import numpy as np
import pytest

from lorentzqp import (
    ProblemInstance,
    cone_quadratic,
    is_feasible,
    lagrangian,
    primal_objective,
    shifted_hessian,
)
from lorentzqp.model import lorentz_signs
from conftest import random_orthogonal


class TestConeQuadratic:
    def test_interior_axis_point(self):
        assert cone_quadratic([1.0, 0.0]) == -0.5

    def test_boundary_point(self):
        assert abs(cone_quadratic([0.55, 0.55])) <= 1e-12

    def test_rounded_boundary_point_3d(self):
        # printed to four decimals, hence the loose tolerance
        assert abs(cone_quadratic([0.4355, 0.0416, 0.4335])) <= 2e-3

    def test_sign_characterizes_nappes(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            x = rng.standard_normal(rng.integers(2, 6))
            inside = abs(x[0]) >= np.linalg.norm(x[1:])
            assert (cone_quadratic(x) <= 0) == inside


class TestPrimalObjective:
    def test_dense_2d_fixture(self, dense_2d):
        assert primal_objective(dense_2d, [0.55, 0.55]) == pytest.approx(-0.3025, abs=1e-4)

    def test_zero_point(self, dense_3d):
        assert primal_objective(dense_3d, np.zeros(3)) == 0.0

    def test_dense_3d_fixture(self, dense_3d):
        assert primal_objective(dense_3d, [0.4355, 0.0416, 0.4335]) == pytest.approx(-0.6413, abs=1e-3)

    def test_rotation_equivariance(self, dense_3d):
        rng = np.random.default_rng(1)
        for _ in range(20):
            R = np.eye(3)
            R[1:, 1:] = random_orthogonal(rng, 2)
            p_rot = ProblemInstance(Q=R.T @ dense_3d.Q @ R, c=R.T @ dense_3d.c)
            x = rng.standard_normal(3)
            assert primal_objective(p_rot, R.T @ x) == pytest.approx(
                primal_objective(dense_3d, x), rel=1e-12, abs=1e-12)


class TestFeasibility:
    def test_interior(self):
        ok, violation = is_feasible([1.0, 0.5])
        assert ok and violation == 0.0

    def test_negative_nappe_rejected(self):
        # arises as a recovered critical point of the 2-D diagonal saddle fixture
        ok, violation = is_feasible([-1.0, -1.0])
        assert not ok
        assert violation == pytest.approx(2.0)  # max(||x2|| - x1, -x1, 0)

    def test_boundary_with_tolerance(self):
        ok, _ = is_feasible([0.55, 0.55], tol=1e-9)
        assert ok

    def test_negative_tol_rejected(self):
        with pytest.raises(ValueError):
            is_feasible([1.0, 0.0], tol=-1.0)


class TestShiftedHessian:
    def test_zero_shift_is_q(self, dense_2d):
        np.testing.assert_array_equal(shifted_hessian(dense_2d, 0.0), dense_2d.Q)

    def test_dense_2d_shift(self, dense_2d):
        np.testing.assert_allclose(
            shifted_hessian(dense_2d, 1.29), [[0.51, 0.4], [0.4, 0.69]], atol=1e-15)

    def test_dense_3d_shift(self, dense_3d):
        np.testing.assert_allclose(
            shifted_hessian(dense_3d, 0.4509),
            [[1.5491, -1.0, 2.0], [-1.0, -1.5491, 0.0], [2.0, 0.0, 1.4509]],
            atol=1e-15)

    def test_equals_the_dense_shift_bit_for_bit(self):
        rng = np.random.default_rng(12)
        for n in (2, 3, 5, 20):
            A = rng.standard_normal((n, n))
            p = ProblemInstance(Q=A + A.T, c=np.ones(n))
            for sigma in rng.uniform(-3.0, 3.0, 5):
                dense = p.Q + sigma * np.diag(lorentz_signs(n))
                np.testing.assert_array_equal(shifted_hessian(p, sigma), dense)
        np.testing.assert_array_equal(p.Q, A + A.T)  # Q itself is not shifted


def test_lorentz_signs_is_one_read_only_array_per_n():
    s = lorentz_signs(3)
    assert s is lorentz_signs(3)
    np.testing.assert_array_equal(s, [-1.0, 1.0, 1.0])
    with pytest.raises(ValueError):
        s[0] = 1.0
    with pytest.raises(ValueError):
        s *= 2.0


class TestLagrangian:
    def test_zero_point(self, dense_2d):
        assert lagrangian(dense_2d, np.zeros(2), 3.0) == 0.0

    def test_dense_2d_critical_pair(self, dense_2d):
        assert lagrangian(dense_2d, [0.55, 0.55], 1.290909) == pytest.approx(-0.3025, abs=1e-4)

    def test_dense_3d_critical_pair(self, dense_3d):
        assert lagrangian(dense_3d, [0.4355, 0.0416, 0.4335], 0.4509) == pytest.approx(-0.6413, abs=1e-3)

    def test_negative_sigma_rejected(self, dense_2d):
        with pytest.raises(ValueError):
            lagrangian(dense_2d, [1.0, 0.0], -0.1)

    def test_penalty_identity(self, dense_3d):
        rng = np.random.default_rng(2)
        for _ in range(50):
            x = rng.standard_normal(3)
            sigma = float(rng.uniform(0, 5))
            expected = primal_objective(dense_3d, x) + sigma * cone_quadratic(x)
            assert lagrangian(dense_3d, x, sigma) == pytest.approx(expected, rel=1e-12, abs=1e-12)


class TestProblemInstance:
    def test_symmetrizes_tiny_asymmetry(self):
        Q = np.array([[1.0, 0.5 + 1e-14], [0.5, 1.0]])
        p = ProblemInstance(Q=Q, c=[0.0, 0.0])
        np.testing.assert_array_equal(p.Q, p.Q.T)

    def test_rejects_asymmetry(self):
        with pytest.raises(ValueError, match="symmetric"):
            ProblemInstance(Q=[[1.0, 0.2], [0.1, 1.0]], c=[0.0, 0.0])

    def test_rejects_small_dimension(self):
        with pytest.raises(ValueError):
            ProblemInstance(Q=[[1.0]], c=[1.0])

    def test_immutable_arrays(self, dense_2d):
        with pytest.raises(ValueError):
            dense_2d.Q[0, 0] = 5.0

import itertools

import numpy as np
import pytest

from lorentzqp import (
    CERT_GLOBAL,
    DiagonalInstance,
    SecularPoleError,
    dual_value,
    enumerate_kkt,
    kkt_check,
    secular_derivative,
    secular_enumerate,
    secular_value,
    solve_problem,
)
from lorentzqp.fileio import gen_instance

# the diagonal instances of the large-Q check in test_solver.py
LARGE_Q_SEEDS = (1, 3, 4, 10)


class TestSecularValue:
    def test_trivial(self):
        assert secular_value(DiagonalInstance(q=[1, 1], c=[1, 0]), 0.0) == -0.5

    def test_certified_fixture(self, diag_certified):
        assert secular_value(diag_certified, 0.45) == pytest.approx(-0.8, abs=1e-12)

    def test_saddle_fixture_inconsistency_evidence(self, diag_saddle):
        # -0.5 * (0.25/(-0.35) + 0.09/0.15) is positive at the claimed multiplier
        assert secular_value(diag_saddle, 0.45) == pytest.approx(0.0571428571, abs=1e-9)

    def test_pole_hit_carries_index(self, diag_saddle):
        with pytest.raises(SecularPoleError) as err:
            secular_value(diag_saddle, 0.1)
        assert err.value.index == 0
        with pytest.raises(SecularPoleError) as err:
            secular_value(diag_saddle, 0.3)
        assert err.value.index == 1

    def test_matches_dense_dual_value(self):
        rng = np.random.default_rng(10)
        for _ in range(100):
            n = int(rng.integers(2, 6))
            d = DiagonalInstance(q=rng.uniform(-2, 2, n), c=rng.uniform(-2, 2, n))
            sigma = float(rng.uniform(0, 3))
            try:
                sv = secular_value(d, sigma)
                dv = dual_value(d.to_dense(), sigma)
            except Exception:
                continue
            assert sv == pytest.approx(dv, rel=1e-12, abs=1e-12)


class TestSecularDerivative:
    def test_trivial(self):
        assert secular_derivative(DiagonalInstance(q=[1, 1], c=[1, 0]), 0.0) == -0.5

    def test_stationary_at_certified_fixture(self, diag_certified):
        assert secular_derivative(diag_certified, 0.45) == pytest.approx(0.0, abs=1e-12)

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(11)
        d = DiagonalInstance(q=[1.7, -0.4, 0.9], c=[0.8, -0.5, 0.3])
        for _ in range(20):
            sigma = float(rng.uniform(0.45, 1.6))  # inside (0.4, 1.7)
            h = 1e-6 * (1.0 + sigma)
            fd = (secular_value(d, sigma + h) - secular_value(d, sigma - h)) / (2 * h)
            g = secular_derivative(d, sigma)
            assert abs(fd - g) <= 1e-6 * (1.0 + abs(g))


class TestSecularEnumerate:
    def test_saddle_fixture(self, diag_saddle):
        pts = secular_enumerate(diag_saddle)
        positive = [cp for cp in pts if cp.sigma > 0]
        assert [round(cp.sigma, 9) for cp in positive] == [0.225, 0.6]
        assert all(not cp.nappe_ok for cp in positive)
        assert all(cp.certificate != CERT_GLOBAL for cp in pts)

    def test_certified_fixture(self, diag_certified):
        pts = secular_enumerate(diag_certified)
        assert len(pts) == 1
        cp = pts[0]
        assert cp.sigma == pytest.approx(0.45, abs=1e-10)
        np.testing.assert_allclose(cp.x, [2.0, -2.0], atol=1e-9)
        assert cp.dual_value == pytest.approx(-0.8, abs=1e-12)
        assert cp.certificate == CERT_GLOBAL

    def test_trivial_instance(self):
        pts = secular_enumerate(DiagonalInstance(q=[1, 1], c=[1, 0]))
        assert len(pts) == 1
        assert pts[0].sigma == 0.0
        np.testing.assert_allclose(pts[0].x, [1.0, 0.0])

    def test_tolerances_after_tol_are_keyword_only(self, diag_saddle):
        with pytest.raises(TypeError):
            secular_enumerate(diag_saddle, 1e-8, 64)
        with pytest.raises(TypeError):
            secular_enumerate(diag_saddle, max_iter=5)
        with pytest.raises(TypeError):
            secular_enumerate(diag_saddle, tol_root=1e-10)

    def test_roots_satisfy_kkt(self, diag_saddle):
        dense = diag_saddle.to_dense()
        for cp in secular_enumerate(diag_saddle):
            if cp.sigma > 0:
                assert abs(secular_derivative(diag_saddle, cp.sigma)) <= 1e-8
            assert kkt_check(dense, cp.x, cp.sigma).max_residual <= 1e-7

    @pytest.mark.parametrize("c0", [1e-6, 1e-8, 3e-9, 1e-9])
    def test_roots_next_to_a_pole(self, c0):
        # c nearly orthogonal to the null vector at the pole sigma = 1 puts a
        # root on each side of it, closer than the eigensolvers can resolve
        d = DiagonalInstance(q=[1.0, 1.0], c=[c0, 1.0])
        expected = [(1.0 - c0) / (1.0 + c0), (1.0 + c0) / (1.0 - c0)]
        for pts in (secular_enumerate(d), enumerate_kkt(d.to_dense())):
            assert [cp.sigma for cp in pts] == pytest.approx(expected, rel=0, abs=1e-14)

    @pytest.mark.parametrize("q, c, sigmas, exit_code", [
        ([1.0, -1.0, -1.0], [1.0, 0.3, -0.2], [0.0], 2),  # Q = -L
        ([1.0, -1.0], [-1.0, 0.5], [0.0], 4),  # Q = -L, sigma = 0 on the mirror nappe
        ([0.0, 0.0], [1.0, 0.5], [], 4),  # Q = 0
    ])
    def test_flat_deflated_derivative_ends_the_polish(self, q, c, sigmas, exit_code):
        # G(sigma) proportional to (sigma - pole) makes (sigma - pole)^2 g
        # flat at every iterate; neither path may divide by its zero slope
        d = DiagonalInstance(q=q, c=c)
        assert [cp.sigma for cp in secular_enumerate(d)] == sigmas
        rep = solve_problem(d.to_dense())
        assert [cp.sigma for cp in rep.critical_points] == sigmas
        assert rep.exit_code == exit_code

    def test_root_on_a_pole_orthogonal_to_c_is_dropped(self):
        # g has a root at the pole sigma = 1 of q = (0, 1, -1), where c is
        # orthogonal to the null space of G: no point can be recovered there,
        # and both paths drop it; so on the whole n = 2 grid
        d = DiagonalInstance(q=[0.0, 1.0, -1.0], c=[0.5, 1.0, 0.0])
        assert [cp.sigma for cp in secular_enumerate(d)] == []
        assert [cp.sigma for cp in enumerate_kkt(d.to_dense())] == []
        for q in itertools.product(range(-2, 3), repeat=2):
            for c in itertools.product((-1.0, 0.0, 0.5, 1.0), repeat=2):
                if not any(c):
                    continue
                d = DiagonalInstance(q=[float(v) for v in q], c=c)
                sec = [(cp.sigma, cp.inertia) for cp in secular_enumerate(d)]
                den = [(cp.sigma, cp.inertia) for cp in enumerate_kkt(d.to_dense())]
                assert [i for _, i in sec] == [i for _, i in den], (q, c)
                assert [s for s, _ in sec] == pytest.approx([s for s, _ in den], rel=1e-6), (q, c)

    def test_root_between_two_close_poles(self):
        # poles at 1.04903 and 1.04968 with a root of g between them: there
        # x ~ 4e3 and x'Lx cancels to within the round-off term of the gate,
        # so x must be read at the polished root to rounding; both paths
        # list all seven points
        d = gen_instance("diagonal", 5, 1462066297)
        sec, den = secular_enumerate(d), enumerate_kkt(d.to_dense())
        assert len(sec) == len(den) == 7
        for a, b in zip(sec, den):
            assert abs(a.sigma - b.sigma) <= 1e-8
            assert (a.certificate, a.inertia) == (b.certificate, b.inertia)
        assert any(abs(cp.sigma - 1.0494305894) <= 1e-9 for cp in sec)

    def test_roots_straddling_a_pole_of_small_weight(self):
        # c0 = 1.7e-3 puts two real roots of g 5e-5 either side of the pole
        # 1.918510, which the polynomial root finder returns as one complex
        # pair 1.91861 +- 2.9e-3i; both paths list both roots
        d = gen_instance("diagonal", 8, 8000449)
        sec, den = secular_enumerate(d), enumerate_kkt(d.to_dense())
        assert [cp.sigma for cp in sec] == pytest.approx([1.918462138544, 1.918556849654],
                                                         rel=1e-10)
        assert [cp.sigma for cp in sec] == pytest.approx([cp.sigma for cp in den], rel=1e-12)
        assert [cp.inertia for cp in sec] == [cp.inertia for cp in den]

    @pytest.mark.parametrize("q, unit, c", [
        ((-1e200, 1e200), (-1.0, 1.0), (1.0, 1.0)),  # the gate's unit ||c|| / max|q| squared underflows
        ((-1e155, -1e155), (-1.0, -1.0), (1.0, 1.0)),  # the unscaled numerator overflows
        # the polish divided g by ||x||^2, both underflowed to 0; at 1e-200
        # the absolute floors of the pole merge and the starts swamped sigma
        *[(scale * d.q, d.q, d.c) for scale in (1e200, 1e-200) for d in
          (gen_instance("diagonal", 2 + k % 4, 777000 + k) for k in LARGE_Q_SEEDS)],
    ], ids=["q0-unit0", "q1-unit1"]
        + [f"diagonal-{777000 + k}{tag}" for tag in ("", "-small") for k in LARGE_Q_SEEDS])
    def test_large_q_lists_the_points_of_its_unit_scale_copy(self, q, unit, c):
        big = secular_enumerate(DiagonalInstance(q=q, c=c))
        small = secular_enumerate(DiagonalInstance(q=unit, c=c))
        assert len(small) > 0
        scale = abs(q[0]) / abs(unit[0])
        np.testing.assert_allclose([cp.sigma for cp in big],
                                   [scale * cp.sigma for cp in small], rtol=1e-12)
        assert [cp.inertia for cp in big] == [cp.inertia for cp in small]

    def test_agrees_with_dense_enumeration(self):
        for seed in range(40):
            d = gen_instance("diagonal", (2, 3, 4)[seed % 3], 1300 + seed)
            sec = secular_enumerate(d)
            den = enumerate_kkt(d.to_dense())
            assert len(sec) == len(den)
            for a, b in zip(sec, den):
                assert abs(a.sigma - b.sigma) <= 1e-8
                assert a.certificate == b.certificate
                assert a.inertia == b.inertia
                np.testing.assert_allclose(a.x, b.x, atol=1e-7)
                assert abs(a.dual_value - b.dual_value) <= 1e-7
                assert abs(a.primal_value - b.primal_value) <= 1e-7


@pytest.mark.parametrize("scale", [1.0, 1e-12])
@pytest.mark.parametrize("q, first_pole, inertia, exit_code", [
    ((1.0, 2.0), None, (2, 0, 0), 0),            # Q positive definite: certified vertex
    ((-1.0, 1.0), None, (1, 0, 1), 2),           # Q indefinite
    ((0.0, -1.0), 1.0, (0, 0, 2), 2),            # 0 is a pole: half the first pole above it
    ((0.0, 1.0), np.inf, (1, 0, 1), 2),          # 0 is the only pole
], ids=["definite", "indefinite", "zero-pole", "zero-only-pole"])
def test_zero_c_lists_the_vertex(q, first_pole, inertia, exit_code, scale):
    # c = 0: x(sigma) = 0 at every nonsingular shift, and both paths list the
    # one stationary point, the vertex, at sigma = 0 or, where 0 is a pole,
    # inside the first cell; the same at Q * 1e-12, where a pole at 1e-12
    # fell below the absolute merge floor and the zero band swallowed G
    d = DiagonalInstance(q=scale * np.array(q), c=(0.0, 0.0))
    sec, den = secular_enumerate(d), enumerate_kkt(d.to_dense())
    assert len(sec) == len(den) == 1
    for cp in (sec[0], den[0]):
        assert not cp.x.any() and cp.inertia == inertia
        if first_pole is None:
            assert cp.sigma == 0.0
        elif first_pole == np.inf:
            assert cp.sigma > 0.0
        else:
            assert cp.sigma == pytest.approx(0.5 * scale * first_pole, rel=1e-12)
    assert sec[0].sigma == pytest.approx(den[0].sigma, rel=1e-12)
    assert sec[0].certificate == den[0].certificate
    assert solve_problem(d.to_dense()).exit_code == exit_code

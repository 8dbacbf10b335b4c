import numpy as np
import pytest

from lorentzqp import (
    ProblemInstance,
    brute_force_min,
    duality_gap,
    kkt_check,
    primal_objective,
    projection_lorentz,
)
from lorentzqp.fileio import as_dense, gen_instance
from lorentzqp.verify import POLISH_STEPS, POLISH_STOP, _project_cols, _slice_grid


class TestKKTCheck:
    def test_dense_2d_at_printed_precision(self, dense_2d):
        res = kkt_check(dense_2d, [0.5500, 0.5500], 1.290909)
        assert res.max_residual <= 1e-3
        assert res.nappe_violation == 0.0

    def test_dense_2d_after_resolving(self, dense_2d):
        from lorentzqp import maximize_dual
        cp = maximize_dual(dense_2d)
        res = kkt_check(dense_2d, cp.x, cp.sigma)
        assert res.max_residual <= 1e-10

    def test_dense_3d_at_printed_precision(self, dense_3d):
        res = kkt_check(dense_3d, [0.4355, 0.0416, 0.4335], 0.4509)
        assert res.stationarity <= 2e-3

    def test_saddle_fixture_claim_fails_stationarity(self, diag_saddle):
        # the claimed pair (x=(2,-2), sigma=0.45) does not solve this instance
        res = kkt_check(diag_saddle.to_dense(), [2.0, -2.0], 0.45)
        assert res.stationarity > 0.1


class TestDualityGap:
    def test_dense_2d(self, dense_2d):
        assert duality_gap(dense_2d, [0.55, 0.55], 1.290909) <= 1e-4

    def test_dense_3d(self, dense_3d):
        assert duality_gap(dense_3d, [0.4355, 0.0416, 0.4335], 0.4509) <= 1e-3

    def test_generic_pair_has_gap(self, dense_2d):
        rng = np.random.default_rng(12)
        hits = 0
        for _ in range(20):
            x = rng.standard_normal(2)
            sigma = float(rng.uniform(0, 0.6))
            if duality_gap(dense_2d, x, sigma) > 1e-6:
                hits += 1
        assert hits == 20


class TestProjection:
    def test_already_feasible(self):
        np.testing.assert_array_equal(projection_lorentz([1.0, 0.5]), [1.0, 0.5])

    def test_polar_region_maps_to_vertex(self):
        np.testing.assert_array_equal(projection_lorentz([-2.0, 1.0]), [0.0, 0.0])

    def test_midpoint_formula(self):
        np.testing.assert_allclose(projection_lorentz([0.0, 1.0]), [0.5, 0.5], atol=1e-15)

    def test_idempotent_and_nonexpansive(self):
        rng = np.random.default_rng(13)
        for _ in range(200):
            n = int(rng.integers(2, 6))
            x = 3 * rng.standard_normal(n)
            y = 3 * rng.standard_normal(n)
            px, py = projection_lorentz(x), projection_lorentz(y)
            np.testing.assert_allclose(projection_lorentz(px), px, atol=1e-12)
            assert np.linalg.norm(px - py) <= np.linalg.norm(x - y) + 1e-12

    def test_is_nearest_on_boundary_grid(self):
        # independent check of the closed form via a fine boundary sweep
        x = np.array([0.2, 1.3])
        px = projection_lorentz(x)
        best = np.inf
        for t in np.linspace(0, 3, 20001):
            for s in (-1.0, 1.0):
                cand = np.array([t, s * t])
                best = min(best, float(np.linalg.norm(cand - x)))
        assert np.linalg.norm(px - x) <= best + 1e-4


    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_column_projection_matches_closed_form(self, n):
        rng = np.random.default_rng(14 + n)
        cols = [3.0 * rng.standard_normal(n) for _ in range(300)]
        cols += [1e9 * rng.standard_normal(n) for _ in range(50)]   # beyond the oracle cap
        u = rng.standard_normal(n - 1)
        u /= np.linalg.norm(u)
        for t in (0.0, 1e-300, 0.7, 2.0, 1e12):
            cols.append(np.concatenate(([t], t * u)))               # tail == x1
            cols.append(np.concatenate(([-t], t * u)))              # x1 == -tail
        for x1 in (-2.0, 0.0, 2.0):
            cols.append(np.concatenate(([x1], np.zeros(n - 1))))    # zero tail
        X = np.array(cols)
        out = _project_cols(np.ascontiguousarray(X.T)).T
        for x, y in zip(X, out):
            ref = projection_lorentz(x)
            np.testing.assert_allclose(y, ref, rtol=1e-15, atol=1e-15 * np.abs(x).max())


def _reference_grid(n, radius, resolution):
    """The documented grid, one row per point, coincident samples included."""
    rad = np.linspace(0.0, 1.0, max(4, resolution // 16) + 1)
    if n == 2:
        tails = [[t] for t in np.linspace(-1.0, 1.0, resolution)]
    elif n == 3:
        theta = np.linspace(0.0, 2.0 * np.pi, max(16, resolution // 4), endpoint=False)
        tails = [[r * np.cos(a), r * np.sin(a)] for r in rad for a in theta]
    else:
        m = max(8, resolution // 16)
        tails = [[r * (np.sin(a) * np.cos(b)), r * (np.sin(a) * np.sin(b)), r * np.cos(a)]
                 for r in rad
                 for a in np.linspace(0.0, np.pi, m)
                 for b in np.linspace(0.0, 2.0 * np.pi, m, endpoint=False)]
    return np.array([[x1] + [x1 * t for t in tail]
                     for x1 in np.linspace(0.0, radius, resolution) for tail in tails])


def _reference_oracle(p, radius, resolution):
    """Row-by-row transcription of the documented oracle: every grid point is
    a row; projected gradient steps with step 1/(||Q||_inf + 1), rescaled
    into the cap ball, stopped when no coordinate moves by POLISH_STOP; the
    lowest value wins, ties broken by coordinates; the curvature scan over
    the axis and four rings of unit directions."""
    X = _reference_grid(p.n, radius, resolution)
    step = 1.0 / (np.abs(p.Q).sum(axis=1).max() + 1.0)
    cap = 1e6 * (1.0 + radius)
    for _ in range(POLISH_STEPS):
        Y = X - step * (X @ p.Q - p.c)
        x1 = Y[:, 0].copy()
        tail = np.linalg.norm(Y[:, 1:], axis=1)
        mid = (-tail < x1) & (x1 < tail)
        alpha = 0.5 * (x1[mid] + tail[mid])
        Y[mid, 0] = alpha
        Y[mid, 1:] *= (alpha / tail[mid])[:, None]
        Y[x1 <= -tail] = 0.0
        size = np.abs(Y).max(axis=1)
        big = size > cap
        Y[big] *= (cap / size[big])[:, None]
        done = np.abs(Y - X).max() < POLISH_STOP
        X = Y
        if done:
            break
    vals = [0.5 * x @ p.Q @ x - p.c @ x for x in X]
    best = min(range(len(X)), key=lambda i: (vals[i], *X[i]))

    if p.n == 2:
        udirs = [[-1.0], [1.0]]
    elif p.n == 3:
        udirs = [[np.cos(a), np.sin(a)] for a in
                 np.linspace(0.0, 2.0 * np.pi, max(16, resolution // 4), endpoint=False)]
    else:
        m = max(8, resolution // 16)
        udirs = [[np.sin(a) * np.cos(b), np.sin(a) * np.sin(b), np.cos(a)]
                 for a in np.linspace(0.0, np.pi, m)
                 for b in np.linspace(0.0, 2.0 * np.pi, m, endpoint=False)]
    dirs = [np.eye(p.n)[0]]
    for f in np.linspace(0.0, 1.0, 5)[1:]:
        ang = f * np.pi / 4.0
        for u in udirs:
            d = np.concatenate(([np.cos(ang)], np.sin(ang) * np.asarray(u)))
            dirs.append(d / np.linalg.norm(d))
    curv = [d @ p.Q @ d for d in dirs]
    k = int(np.argmin(curv))
    return vals[best], (dirs[k] if curv[k] < -1e-10 else None)


class TestBruteForce:
    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("resolution", [16, 32, 64])
    def test_grid_holds_each_documented_point_once(self, n, resolution):
        grid = _slice_grid(n, 2.5, resolution)
        ref = _reference_grid(n, 2.5, resolution)
        # At n = 4 the theta = pi row differs from its pole by sin(pi) ~ 1e-16.
        rounded = np.unique(np.round(grid.T, 12), axis=0)
        assert rounded.shape[0] == grid.shape[1]
        np.testing.assert_array_equal(rounded, np.unique(np.round(ref, 12), axis=0))

    def test_matches_row_by_row_reference(self):
        unbounded = 0
        for n in (2, 3, 4):
            for kind in ("convex", "indefinite"):
                for seed in range(4):
                    p = as_dense(gen_instance(kind, n, 51_000 + seed))
                    resolution = (16, 32)[seed % 2] if n < 4 else 16
                    value, direction = _reference_oracle(p, 2.0, resolution)
                    res = brute_force_min(p, 2.0, resolution)
                    case = (kind, n, seed, resolution)
                    assert abs(res.best_value - value) <= 1e-12 * (1.0 + abs(value)), case
                    if direction is None:
                        assert res.unbounded_direction is None, case
                    else:
                        unbounded += 1
                        np.testing.assert_array_equal(res.unbounded_direction, direction,
                                                      err_msg=str(case))
        assert unbounded >= 1


    def test_hard_case_instance(self, hardcase_2d):
        res = brute_force_min(hardcase_2d, 3.0, 256)
        assert res.best_value == pytest.approx(-0.25, abs=1e-4)
        np.testing.assert_allclose(res.best_x, [0.5, 0.5], atol=1e-2)
        assert res.unbounded_direction is None

    def test_dense_2d_instance(self, dense_2d):
        res = brute_force_min(dense_2d, 3.0, 256)
        assert res.best_value == pytest.approx(-0.3025, abs=1e-3)

    def test_negative_curvature_direction(self):
        p = ProblemInstance(Q=np.diag([-1.0, 0.0]), c=[0.0, 0.0])
        res = brute_force_min(p, 3.0, 64)
        assert res.unbounded_direction is not None
        np.testing.assert_allclose(res.unbounded_direction, [1.0, 0.0], atol=1e-12)
        values = [primal_objective(p, t * res.unbounded_direction) for t in (10, 100, 1000)]
        assert values[0] > values[1] > values[2]

    def test_input_validation(self, dense_2d):
        with pytest.raises(ValueError):
            brute_force_min(dense_2d, 0.0, 64)
        with pytest.raises(ValueError):
            brute_force_min(dense_2d, 1.0, 8)

    def test_deterministic(self, dense_2d):
        a = brute_force_min(dense_2d, 3.0, 64)
        b = brute_force_min(dense_2d, 3.0, 64)
        assert a.best_value == b.best_value
        np.testing.assert_array_equal(a.best_x, b.best_x)

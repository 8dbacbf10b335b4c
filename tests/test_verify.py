import numpy as np
import pytest

from lorentzqp import (
    ProblemInstance,
    brute_force_min,
    duality_gap,
    kkt_check,
    primal_objective,
    projection_lorentz,
    solve_problem,
)
from lorentzqp.fileio import GEN_KINDS, as_dense, gen_instance
from lorentzqp.model import lorentz_signs
from lorentzqp.verify import (
    CURVATURE_CUTOFF,
    POLISH_MOMENTUM,
    POLISH_STEPS,
    POLISH_STOP,
    _direction_samples,
    _project_cols,
    _slice_grid,
    default_oracle_radius,
)


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

    def test_zero_defects_are_positive_zeros(self):
        # at sigma = 0 and x[0] = 0 the defects are 0.0, not -0.0, which a
        # report prints as -0.0000000000000000e+00; a NaN stays NaN
        p = as_dense(gen_instance("convex", 5, 3))
        sol = solve_problem(p).solution
        res = kkt_check(p, sol.x, sol.sigma)
        assert sol.sigma == 0.0 and not np.signbit(res.dual_feasibility)
        res = kkt_check(p, np.concatenate(([0.0], np.ones(4))), 0.0)
        assert not np.signbit(res.nappe_violation) and not np.signbit(res.dual_feasibility)
        assert np.isnan(kkt_check(p, sol.x, float("nan")).dual_feasibility)

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
    a row; each step extrapolates a row by POLISH_MOMENTUM times its last
    displacement and takes a projected gradient step from there with step
    1/(||Q||_inf + 1), rescaled into the cap ball; the polish stops when no
    coordinate moves by POLISH_STOP; the lowest value wins, ties broken by
    coordinates; the curvature scan over the axis and four rings of unit
    directions, against a cutoff relative to max |Q_ij|."""
    X = _reference_grid(p.n, radius, resolution)
    prev = X.copy()
    step = 1.0 / (np.abs(p.Q).sum(axis=1).max() + 1.0)
    cap = 1e6 * (1.0 + radius)
    for _ in range(POLISH_STEPS):
        V = X + POLISH_MOMENTUM * (X - prev)
        Y = V - step * (V @ p.Q - p.c)
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
        prev, X = X, Y
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
    return vals[best], (dirs[k] if curv[k] < -1e-10 * np.abs(p.Q).max() else None)


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

    def test_negative_curvature_at_any_scale_of_q(self):
        # the cutoff is relative to max |Q_ij|: a tiny Q flags the direction
        # its unit copy flags, and Q = 0 flags none
        p = ProblemInstance(Q=1e-12 * np.diag([-1.0, 0.0]), c=[0.0, 0.0])
        direction = brute_force_min(p, 3.0, 64).unbounded_direction
        np.testing.assert_array_equal(direction, [1.0, 0.0])
        p = ProblemInstance(Q=np.zeros((2, 2)), c=[0.0, 0.0])
        assert brute_force_min(p, 3.0, 64).unbounded_direction is None

    def test_input_validation(self, dense_2d):
        with pytest.raises(ValueError):
            brute_force_min(dense_2d, 0.0, 64)
        with pytest.raises(ValueError):
            brute_force_min(dense_2d, 1.0, 8)

    @pytest.mark.parametrize("radius", [np.inf, -np.inf, np.nan])
    def test_non_finite_radius_is_rejected(self, dense_2d, radius):
        # an infinite radius makes every grid column but the apex NaN
        with pytest.raises(ValueError, match="finite"):
            brute_force_min(dense_2d, radius, 64)

    def test_non_finite_best_value_is_rejected(self):
        # the first step moves every column by about 5e307, whose tail norm
        # overflows, the projection turns every column NaN, and a NaN value
        # would pass every comparison against a certificate
        with np.errstate(all="ignore"), pytest.raises(ValueError, match="best value is nan"):
            brute_force_min(ProblemInstance(Q=np.eye(2), c=[1e308, 1e308]), 3.0, 64)

    def test_deterministic(self, dense_2d):
        a = brute_force_min(dense_2d, 3.0, 64)
        b = brute_force_min(dense_2d, 3.0, 64)
        assert a.best_value == b.best_value
        np.testing.assert_array_equal(a.best_x, b.best_x)

    @pytest.mark.parametrize("scale", [1e-4, 1e-5, 1e-6, 1e-7, 1e-8])
    def test_default_radius_reaches_the_certified_minimizer(self, dense_2d, scale):
        # the curvature floor is relative to max|Q|: an absolute 1e-6 gave
        # Q x 1e-8 a radius of 3.1e6 against a minimizer of norm 7.8e7
        p = ProblemInstance(Q=scale * dense_2d.Q, c=dense_2d.c)
        sol = solve_problem(p).solution
        assert sol.certified
        assert default_oracle_radius(p, sol) >= np.linalg.norm(sol.x)


# ---------------------------------------------------------------------------
# The unbuffered polish loop, kept as the reference for the buffered one.


def _unbuffered_project_cols(Y):
    x1 = Y[0]
    tail = np.linalg.norm(Y[1:], axis=0)
    inside = tail <= x1
    polar = x1 <= -tail
    alpha = 0.5 * (x1 + tail)
    with np.errstate(divide="ignore", invalid="ignore"):
        scale = np.where(inside, 1.0, np.where(polar, 0.0, alpha / tail))
    Y[0] = np.where(inside, x1, np.where(polar, 0.0, alpha))
    Y[1:] *= scale
    return Y


def _unbuffered_oracle(p, radius, resolution, momentum=POLISH_MOMENTUM):
    """``brute_force_min`` with a fresh array for every intermediate of every
    step.  Returns (best_x, best_value, unbounded_direction) and the paths the
    polish took: steps run, steps with a cap rescale, steps whose
    pre-projection iterate lay inside the cone, whether a column entered
    the projection in the polar cone off the axis (tail > 0) or on the
    negative axis (tail == 0, x1 < 0), how often the column that moved
    most at the last step without a stop (column 0 at first) settled below
    POLISH_STOP while another column still moved, and how many columns end
    with an entry that is not finite.  Among the steps whose projection
    does not find every column inside, it counts those with a polar column
    (x1 <= -tail) and those with an inside column; and it counts the steps
    whose row 0 exceeds cap (1 - 4 eps) while no entry exceeds the cap.

    ``momentum=0.0`` runs the plain projected-gradient loop, which takes
    each step from the iterate itself (``_plain_oracle``)."""
    XT = _slice_grid(p.n, radius, resolution)
    prev = XT.copy()
    Q, cT = p.Q, p.c[:, None]
    step = 1.0 / (float(np.abs(Q).sum(axis=1).max()) + 1.0)
    cap = 1e6 * (1.0 + radius)
    row0_cap = cap * (1.0 - 4.0 * np.finfo(float).eps)
    paths = {"steps": 0, "capped": 0, "all_inside": 0, "polar": False,
             "negative_axis": False, "rewatched": 0, "polar_projections": 0,
             "inside_projections": 0, "row0_only": 0}
    watch = 0
    for _ in range(POLISH_STEPS):
        V = XT + momentum * (XT - prev) if momentum else XT
        Z = V - step * (Q @ V - cT)
        tail = np.linalg.norm(Z[1:], axis=0)
        paths["steps"] += 1
        inside, polar = tail <= Z[0], Z[0] <= -tail
        paths["all_inside"] += bool(np.all(inside))
        paths["polar"] |= bool(np.any(polar & (tail > 0.0)))
        paths["negative_axis"] |= bool(np.any((tail == 0.0) & (Z[0] < 0.0)))
        if not np.all(inside):
            paths["polar_projections"] += bool(np.any(polar))
            paths["inside_projections"] += bool(np.any(inside))
        Y = _unbuffered_project_cols(Z)
        size = np.abs(Y).max(axis=0)
        big = size > cap
        paths["row0_only"] += bool(not Y[0].max() <= row0_cap and not np.any(big))
        if np.any(big):
            paths["capped"] += 1
            Y[:, big] *= cap / size[big]
        moved = np.abs(Y - XT).max(axis=0)
        disp = float(np.max(np.abs(Y - XT)))
        prev, XT = XT, Y
        if disp < POLISH_STOP:
            break
        if moved[watch] < POLISH_STOP:
            paths["rewatched"] += 1
            watch = int(np.argmax(moved))
    paths["non_finite"] = int(np.sum(~np.isfinite(XT).all(axis=0)))
    X = np.ascontiguousarray(XT.T)
    vals = 0.5 * np.einsum("ij,ij->i", X @ Q, X) - X @ p.c
    order = np.lexsort(tuple(X[:, k] for k in range(p.n - 1, -1, -1)) + (vals,))
    dirs = _direction_samples(p.n, resolution)
    curv = np.einsum("ij,ij->i", dirs @ p.Q, dirs)
    k = int(np.argmin(curv))
    unbounded = dirs[k] if curv[k] < CURVATURE_CUTOFF * np.abs(Q).max() else None
    return (X[order[0]], float(vals[order[0]]), unbounded), paths


def _plain_oracle(p, radius, resolution):
    """The oracle with the plain projected-gradient polish: the referee for
    the quality of the momentum polish's results."""
    return _unbuffered_oracle(p, radius, resolution, momentum=0.0)


def _assert_bit_identical(p, radius, resolution):
    (x, value, direction), paths = _unbuffered_oracle(p, radius, resolution)
    res = brute_force_min(p, radius, resolution)
    # equal bytes: the signs of zeros and every last bit agree
    assert res.best_x.tobytes() == x.tobytes()
    assert np.float64(res.best_value).tobytes() == np.float64(value).tobytes()
    if direction is None:
        assert res.unbounded_direction is None
    else:
        assert res.unbounded_direction.tobytes() == direction.tobytes()
    return paths


def _criterion_5_instance(i):
    """Acceptance criterion 5's instance i, densified, and its default radius."""
    kind = "convex" if i % 2 == 0 else "indefinite"
    n = 2 if i % 4 < 2 else 3
    p = as_dense(gen_instance(kind, n, 30_000 + i))
    sol = solve_problem(p).solution
    return p, default_oracle_radius(p, sol if sol is not None and sol.certified else None)


class TestBufferedPolish:
    @pytest.mark.parametrize("radius", [3.0, 60.0])
    @pytest.mark.parametrize("kind", GEN_KINDS)
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_generated_instances(self, n, kind, radius):
        for seed in range(2):
            p = as_dense(gen_instance(kind, n, 52_000 + seed))
            _assert_bit_identical(p, radius, 32 if n < 4 else 16)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_cap_rescale(self, n):
        # Q = diag(-1, 0, ...) and Q = L have d'Qd < 0 inside the cone: the
        # iterates escape and every later step rescales into the cap ball
        for Q in (np.diag([-1.0] + [0.0] * (n - 1)), np.diag(lorentz_signs(n))):
            for c in (np.zeros(n), np.ones(n)):
                paths = _assert_bit_identical(ProblemInstance(Q=Q, c=c), 3.0, 32)
                assert paths["capped"] > 0

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_minus_L_runs_the_step_budget(self, n):
        # Q = -L is flat along the boundary rays: the polish never settles
        p = ProblemInstance(Q=-np.diag(lorentz_signs(n)), c=np.ones(n))
        paths = _assert_bit_identical(p, 3.0, 32)
        assert paths["steps"] == POLISH_STEPS and paths["capped"] == 0

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_every_column_inside(self, n):
        # the minimizer c of ||x - c||^2 lies inside the cone, so the polish
        # converges to steps whose every column skips the projection
        c = np.concatenate(([2.0], np.full(n - 1, 0.3)))
        paths = _assert_bit_identical(ProblemInstance(Q=np.eye(n), c=c), 3.0, 32)
        assert paths["all_inside"] > 0 and paths["capped"] == 0

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_apex_and_polar_columns(self, n):
        # c = -e1 pulls every column through the polar cone to the apex;
        # the axis columns (tail == 0) reach x1 < 0 first
        axis = _assert_bit_identical(ProblemInstance(Q=np.eye(n), c=-np.eye(n)[0]), 3.0, 32)
        assert axis["negative_axis"]
        c = np.concatenate(([-1.0], np.full(n - 1, 0.5)))
        paths = _assert_bit_identical(ProblemInstance(Q=np.eye(n), c=c), 3.0, 32)
        assert paths["polar"]
        # projections with polar and with inside columns write their masks
        assert paths["polar_projections"] > 0 and paths["inside_projections"] > 0

    @pytest.mark.parametrize("kind, n, seed", [
        ("diagonal", 2, 52_000), ("indefinite", 3, 52_000), ("indefinite", 4, 52_003)])
    def test_watched_column_settles_first(self, kind, n, seed):
        # the column watched by the stop test settles while another still
        # moves: the full reduction runs, does not stop, and watches anew
        p = as_dense(gen_instance(kind, n, seed))
        assert _assert_bit_identical(p, 3.0, 32 if n < 4 else 16)["rewatched"] >= 2

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_non_finite_columns_run_the_step_budget(self, n):
        # Q[1, 1] = 1e308 overflows the gradient of every column with
        # |x[1]| > 1.8 to inf; the projection makes those columns NaN for
        # good, so no step has a finite displacement, while the other
        # columns polish to a finite best value
        Q = np.eye(n)
        Q[1, 1] = 1e308
        with np.errstate(all="ignore"):
            paths = _assert_bit_identical(ProblemInstance(Q=Q, c=np.ones(n)), 3.0, 32)
        assert paths["steps"] == POLISH_STEPS and paths["non_finite"] > 0

    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("ulps", [-2, 0, 2])
    def test_iterates_within_ulps_of_the_cap(self, n, ulps):
        # the minimizer c lies within a few ulps of the cap on the axis: the
        # first steps overshoot it past the cap, and the last iterates have
        # x1 above cap (1 - 4 eps), where row 0 alone cannot rule out an
        # entry above the cap, so the rescale runs; with c above the cap it
        # scales down on most steps, and otherwise on some steps no entry
        # is above the cap and every factor is 1.0
        radius = 3.0
        cap = 1e6 * (1.0 + radius)
        eps = np.finfo(float).eps
        c = np.zeros(n)
        c[0] = cap * (1.0 + ulps * eps)
        p = ProblemInstance(Q=np.eye(n), c=c)
        paths = _assert_bit_identical(p, radius, 32)
        x1 = brute_force_min(p, radius, 32).best_x[0]
        assert cap * (1.0 - 4.0 * eps) < x1 <= cap
        assert paths["capped"] > 0
        assert (paths["capped"] > paths["steps"] // 2) == (ulps > 0)
        assert (paths["row0_only"] > 0) == (ulps <= 0)

    @pytest.mark.parametrize("i, budget, capped", [
        (0, False, False), (1, False, True), (3, False, False), (4, False, False),
        (9, False, True), (25, False, True), (31, True, True), (36, False, False)])
    def test_criterion_5_traffic(self, i, budget, capped):
        # the oracle workload's traffic: criterion 5's instances at resolution
        # 64 and the default radius, runs that stop early or use the whole
        # step budget, with and without a cap rescale (4 and 36 use the
        # whole budget without momentum); no best value lies above the
        # plain polish's, and the unbounded direction is the same
        p, radius = _criterion_5_instance(i)
        paths = _assert_bit_identical(p, radius, 64)
        assert (paths["steps"] == POLISH_STEPS) == budget
        assert (paths["capped"] > 0) == capped
        (_, plain_value, plain_direction), _ = _plain_oracle(p, radius, 64)
        res = brute_force_min(p, radius, 64)
        assert res.best_value <= plain_value + 1e-12 * (1.0 + abs(plain_value))
        if plain_direction is None:
            assert res.unbounded_direction is None
        else:
            np.testing.assert_array_equal(res.unbounded_direction, plain_direction)

    def test_fewer_steps_than_the_plain_polish(self):
        # a convex instance on which the plain polish uses the whole budget
        p, radius = _criterion_5_instance(2)
        _, paths = _unbuffered_oracle(p, radius, 64)
        _, plain = _plain_oracle(p, radius, 64)
        assert plain["steps"] == POLISH_STEPS and paths["steps"] < 0.6 * POLISH_STEPS

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_direction_samples_are_shared_and_the_result_owns_a_copy(self, n):
        dirs = _direction_samples(n, 32)
        assert dirs is _direction_samples(n, 32) and not dirs.flags.writeable
        reference = dirs.copy()
        p = ProblemInstance(Q=np.diag([-1.0] + [0.0] * (n - 1)), c=np.zeros(n))
        direction = brute_force_min(p, 3.0, 32).unbounded_direction
        assert direction.flags.writeable and not np.shares_memory(direction, dirs)
        direction[:] = 0.0
        np.testing.assert_array_equal(_direction_samples(n, 32), reference)

"""Independent verification: KKT residuals, duality gaps, and a brute-force
grid oracle that settles optimality claims empirically at desk scale.

The KKT residuals follow the multiplier system of the quadratic cone
reformulation: stationarity G(sigma)x = c, relaxed primal feasibility
cone_quadratic(x) <= 0, dual feasibility sigma >= 0, and complementarity
sigma * cone_quadratic(x) = 0.  The relaxed system also accepts the mirror
nappe x[0] <= -||x[1:]||, so the cone-membership defect max(-x[0], 0) is
carried separately.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .arrowhead import Pencil
from .dual import CriticalPoint, dual_value
from .model import ProblemInstance, cone_quadratic, primal_objective, shifted_hessian

__all__ = [
    "KKTResiduals",
    "OracleError",
    "OracleResult",
    "kkt_check",
    "duality_gap",
    "projection_lorentz",
    "brute_force_min",
    "check_oracle_dimension",
    "default_oracle_radius",
]

POLISH_STEPS = 500
POLISH_STOP = 1e-12
POLISH_MOMENTUM = 0.75  # the polish extrapolates each column by this share of its last step
CURVATURE_CUTOFF = -1e-10
ORACLE_MAX_N = 4        # the largest dimension the exhaustive grid covers
# Row 0 at or below cap times this bounds every entry of a projected column
# by the cap: |y_i| <= y_0 (1 + u)^2 with u = eps / 2.
_ROW0_MARGIN = 1.0 - 4.0 * float(np.finfo(float).eps)


class OracleError(ValueError):
    """The grid oracle cannot answer for this instance: its dimension is
    above ORACLE_MAX_N, or its best value is not finite."""


def check_oracle_dimension(n: int):
    """Raise OracleError when the grid does not cover dimension n."""
    if n > ORACLE_MAX_N:
        raise OracleError(f"the oracle grid supports n <= {ORACLE_MAX_N}, problem has n={n}")


@dataclass(frozen=True)
class KKTResiduals:
    """Residuals of the multiplier system for a (x, sigma) pair.

    ``max_residual`` covers the four relaxed conditions; ``nappe_violation``
    is the separate cone-membership defect (zero on the true cone).
    """

    stationarity: float
    primal_feasibility: float
    nappe_violation: float
    dual_feasibility: float
    complementarity: float

    @property
    def max_residual(self) -> float:
        return max(self.stationarity, self.primal_feasibility,
                   self.dual_feasibility, self.complementarity)


def kkt_check(p: ProblemInstance, x, sigma: float) -> KKTResiduals:
    """Compute all residuals for (x, sigma)."""
    x = np.asarray(x, dtype=float)
    lam, x1 = cone_quadratic(x), float(x[0])
    # 0.0 rather than -0.0 at x1 = 0 or sigma = 0; a NaN stays NaN
    return KKTResiduals(
        stationarity=float(np.abs(shifted_hessian(p, sigma) @ x - p.c).max()),
        primal_feasibility=max(lam, 0.0),
        nappe_violation=0.0 if x1 >= 0.0 else -x1,
        dual_feasibility=0.0 if sigma >= 0.0 else -sigma,
        complementarity=abs(sigma * lam),
    )


def duality_gap(p: ProblemInstance, x, sigma: float) -> float:
    """|primal objective at x - dual value at sigma| (singular shifts raise)."""
    return abs(primal_objective(p, x) - dual_value(p, sigma))


# ---------------------------------------------------------------------------
# projection and the grid oracle


def projection_lorentz(x) -> np.ndarray:
    """Euclidean projection onto the closed Lorentz cone (closed form)."""
    x = np.asarray(x, dtype=float)
    x1 = float(x[0])
    tail = float(np.linalg.norm(x[1:]))
    if tail <= x1:
        return x.copy()
    if x1 <= -tail:
        return np.zeros_like(x)
    alpha = 0.5 * (x1 + tail)
    out = np.empty_like(x)
    out[0] = alpha
    out[1:] = (alpha / tail) * x[1:]
    return out


def _project_work(N: int) -> tuple:
    """Work arrays of ``_project_cols`` for N columns: two float, two bool."""
    return np.empty(N), np.empty(N), np.empty(N, dtype=bool), np.empty(N, dtype=bool)


def _row_views(Y: np.ndarray) -> tuple:
    """The views of Y that ``_project_cols`` reads: row 0, row 1, the rows
    from 2 on (one view each) and rows 1, 2, ... as one array."""
    return Y[0], Y[1], tuple(Y[2:]), Y[1:]


def _project_cols(Y: np.ndarray, work: tuple | None = None,
                  rows: tuple | None = None) -> np.ndarray:
    """Cone projection of every column of the component-major array Y, in
    place: the closed form of ``projection_lorentz``, column by column.

    ``work`` (from ``_project_work``) and ``rows`` (``_row_views(Y)``) let a
    caller reuse the work arrays and the row views across calls.  The tail
    norm is the square root of the sum of squares over rows 1, 2, ... in that
    order, as ``np.linalg.norm(Y[1:], axis=0)`` sums them.  The polar and the
    inside columns are written only when there are some.
    """
    tail, alpha, inside, polar = work or _project_work(Y.shape[1])
    x1, y1, rest, tail_rows = rows or _row_views(Y)
    np.multiply(y1, y1, out=tail)
    for row in rest:
        tail += np.multiply(row, row, out=alpha)
    np.sqrt(tail, out=tail)
    if np.logical_and.reduce(np.less_equal(tail, x1, out=inside)):
        return Y
    np.less_equal(x1, np.negative(tail, out=alpha), out=polar)
    np.add(x1, tail, out=alpha)
    alpha *= 0.5
    with np.errstate(divide="ignore", invalid="ignore"):
        np.divide(alpha, tail, out=tail)                    # the tail's scale
    if np.logical_or.reduce(polar):
        np.putmask(tail, polar, 0.0)
        np.putmask(alpha, polar, 0.0)
    if np.logical_or.reduce(inside):    # after the polar pair: the apex is both
        np.putmask(tail, inside, 1.0)
        np.putmask(alpha, inside, x1)
    x1[...] = alpha
    tail_rows *= tail
    return Y


def _slice_grid(n: int, radius: float, resolution: int) -> np.ndarray:
    """Deterministic grid over {0 <= x1 <= radius, ||x[1:]|| <= x1}, each
    point once, component-major: shape (n, N), one row per coordinate.

    x1 runs at full resolution; the tail ball is sampled radially/angularly
    at documented coarser factors so the point count stays at desk scale.
    Samples that coincide are emitted once: the apex stands for the whole
    x1 = 0 level, the axis point for the rad = 0 ring of each level, and at
    n = 4 each pole (theta = 0 or pi) for its row of phi angles.
    """
    check_oracle_dimension(n)
    x1s = np.linspace(0.0, radius, resolution)[1:]
    if n == 2:
        tails = np.linspace(-1.0, 1.0, resolution)[:, None]
    else:
        rad = np.linspace(0.0, 1.0, max(4, resolution // 16) + 1)[1:]
        if n == 3:
            theta = np.linspace(0.0, 2.0 * np.pi, max(16, resolution // 4), endpoint=False)
            dirs = np.stack([np.cos(theta), np.sin(theta)], axis=1)
        else:
            m = max(8, resolution // 16)
            theta = np.linspace(0.0, np.pi, m)[1:-1]
            phi = np.linspace(0.0, 2.0 * np.pi, m, endpoint=False)
            TH, PH = np.meshgrid(theta, phi, indexing="ij")
            ring = np.stack(
                [np.sin(TH) * np.cos(PH), np.sin(TH) * np.sin(PH), np.cos(TH)], axis=2
            ).reshape(-1, 3)
            dirs = np.concatenate([[[0.0, 0.0, 1.0]], ring, [[0.0, 0.0, -1.0]]])
        tails = (rad[:, None, None] * dirs[None, :, :]).reshape(-1, n - 1)
        tails = np.concatenate([np.zeros((1, n - 1)), tails])
    pts = np.zeros((n, 1 + x1s.size * tails.shape[0]))     # column 0: the apex
    X1 = np.repeat(x1s, tails.shape[0])
    pts[0, 1:] = X1
    pts[1:, 1:] = X1 * np.tile(tails.T, x1s.size)
    return pts


@lru_cache(maxsize=64)
def _direction_samples(n: int, resolution: int) -> np.ndarray:
    """Unit feasible directions: the axis plus rings out to the boundary.

    One read-only array per (n, resolution), shared by every caller: copy it
    to modify it.
    """
    fracs = np.linspace(0.0, 1.0, 5)                        # axis .. 45 degrees
    if n == 2:
        udirs = np.array([[-1.0], [1.0]])
    elif n == 3:
        theta = np.linspace(0.0, 2.0 * np.pi, max(16, resolution // 4), endpoint=False)
        udirs = np.stack([np.cos(theta), np.sin(theta)], axis=1)
    else:
        m = max(8, resolution // 16)
        theta = np.linspace(0.0, np.pi, m)
        phi = np.linspace(0.0, 2.0 * np.pi, m, endpoint=False)
        TH, PH = np.meshgrid(theta, phi, indexing="ij")
        udirs = np.stack(
            [np.sin(TH) * np.cos(PH), np.sin(TH) * np.sin(PH), np.cos(TH)], axis=2
        ).reshape(-1, n - 1)
    out = [np.concatenate(([1.0], np.zeros(n - 1)))]
    for f in fracs[1:]:
        ang = f * np.pi / 4.0
        for u in udirs:
            d = np.concatenate(([np.cos(ang)], np.sin(ang) * u))
            out.append(d / np.linalg.norm(d))
    dirs = np.asarray(out)
    dirs.setflags(write=False)
    return dirs


@dataclass(frozen=True)
class OracleResult:
    """Best feasible point found by the deterministic grid + polish oracle."""

    best_x: np.ndarray
    best_value: float
    grid_resolution: int
    refined: bool
    unbounded_direction: np.ndarray | None


def brute_force_min(p: ProblemInstance, radius: float, resolution: int = 128) -> OracleResult:
    """Grid the cone slice, polish every point by projected gradient descent
    with momentum, and scan feasible directions for negative curvature.

    Deterministic and bit-reproducible: fixed grid, fixed step
    1/(||Q||_inf + 1), at most POLISH_STEPS iterations with a global
    displacement stop, value ties broken lexicographically by coordinates.
    Each step first extrapolates every column by a constant share of its
    last displacement, v = x_k + beta (x_k - x_{k-1}) with
    beta = POLISH_MOMENTUM (no extrapolation before the first step), then
    takes the projected
    gradient step from v, x_{k+1} = P_K(v - step (Qv - c)), rescaled into
    the cap ball.  Inside the cone, along an eigenvector of Q with
    h = step * lambda in (0, 1], the error obeys
    z^2 - (1 + beta)(1 - h) z + beta (1 - h) = 0, whose roots lie inside the
    unit disk for every 0 <= beta < 1: convex columns contract to the fixed
    points of the plain projected gradient step, which do not depend on
    beta, in fewer steps, and columns of negative curvature still escape to
    the cap.  The stop test and the rescale act on the iterates, and the
    stop test reads the iterate displacement x_{k+1} - x_k.

    The iterates are held component-major, shape (n, N) with one column per
    grid point, so every per-point step, projection, rescale and
    displacement runs along contiguous rows of length N.  Each step writes
    into work arrays allocated once per call (the extrapolated point becomes
    the next iterate in place and then swaps with the current one, and so do
    the row views the projection and the cap test read; the displacement
    array serves the stop test and, scaled, the next extrapolation),
    subtracts c row by row, and skips the projection when every column is
    inside the cone; otherwise it writes the polar columns only when there
    are some, and likewise the inside columns.  Every value comes from the
    same floating-point operations in the same order as in the unbuffered
    loop kept in ``tests/test_verify.py`` as the reference, so every iterate
    is bit-identical to that loop's.

    Two tests decide each step from less than the whole array, with the
    reference loop's decisions:

    - Stop test.  The loop watches the column that moved most at the last
      full reduction.  While that column alone moves by POLISH_STOP or more
      (or by NaN), so does the whole array, and the polish goes on; only
      otherwise is the displacement of every column reduced, the loop stops
      when that says so, and the column that moved most is watched next.
    - Cap test.  After the projection every column lies in the cone.  An
      inside column has |y_i| <= y_0 exactly (sqrt(fl(y_i^2)) = |y_i| and
      the sum of squares rounds monotonically; an entry whose square
      underflows is far below the cap), a projected column has
      |y_i| <= y_0 (1 + u)^2, and a polar column is 0, or NaN where its tail
      held an inf, which the rescale leaves as it is.  So when row 0 stays
      below cap (1 - 4 eps), no rescale factor differs from 1.0 and the
      rescale is skipped.  In every other case, NaN included, row 0 alone
      decides: the rescale runs with no test over the other rows, and a
      column within the cap keeps the factor cap / cap = 1.0 exactly, as a
      NaN column keeps 1.0.

    Polish iterates are rescaled into a large ball so unbounded instances
    stay finite; escape shows up as a very negative best value alongside the
    reported unbounded direction, which the scan reports when some sampled
    direction d has d'Qd below CURVATURE_CUTOFF times max |Q_ij|, a cutoff
    that scales with Q.  A dimension above ORACLE_MAX_N, or a best
    value that is not finite (Q near the float maximum), raises OracleError.
    """
    if not 0.0 < radius < np.inf:
        raise ValueError("radius must be finite and positive")
    if resolution < 16:
        raise ValueError("resolution must be at least 16")
    XT = _slice_grid(p.n, radius, resolution)
    Q = p.Q
    step = 1.0 / (float(np.abs(Q).sum(axis=1).max()) + 1.0)
    cap = 1e6 * (1.0 + radius)
    row0_cap = cap * _ROW0_MARGIN
    # V: the extrapolated point, then the next iterate; D: the displacement
    # of the last step, x_k - x_{k-1}, zero before the first
    V, G, D = np.empty_like(XT), np.empty_like(XT), np.zeros_like(XT)
    grad_rows = tuple(zip(G, p.c.tolist()))     # views of G, one per coordinate
    work = _project_work(XT.shape[1])
    v_rows, x_rows = _row_views(V), _row_views(XT)  # swapped with their arrays
    watch = 0                                   # the column the stop test reads
    for _ in range(POLISH_STEPS):
        D *= POLISH_MOMENTUM
        np.add(XT, D, out=V)
        np.matmul(Q, V, out=G)
        for row, ci in grad_rows:
            row -= ci
        G *= step
        _project_cols(np.subtract(V, G, out=V), work, v_rows)
        if not np.maximum.reduce(v_rows[0]) <= row0_cap:
            # Column j scales by cap / max(size_j, cap): exactly 1.0 unless
            # size_j > cap, and 1.0 when size_j is NaN (fmax drops a NaN).
            # work[0] is free once the projection has returned.
            scale = np.maximum.reduce(np.abs(V, out=G), axis=0, out=work[0])
            np.divide(cap, np.fmax(scale, cap, out=scale), out=scale)
            V *= scale
        np.subtract(V, XT, out=D)
        XT, V = V, XT
        x_rows, v_rows = v_rows, x_rows
        if not all(abs(d) < POLISH_STOP for d in D[:, watch].tolist()):
            continue                            # also when the column holds a NaN
        if np.maximum.reduce(np.abs(D, out=G), axis=None) < POLISH_STOP:
            break
        watch = int(G.argmax()) % G.shape[1]

    # One point per row: x'Qx and c'x are summed in the per-point order.
    X = np.ascontiguousarray(XT.T)
    vals = 0.5 * np.einsum("ij,ij->i", X @ Q, X) - X @ p.c
    order = np.lexsort(tuple(X[:, k] for k in range(p.n - 1, -1, -1)) + (vals,))
    best = order[0]
    if not np.isfinite(vals[best]):
        # a NaN would pass every comparison against a certificate
        raise OracleError(f"the oracle's best value is {float(vals[best])!r}: "
                          "the grid search overflows at this scale of Q")

    dirs = _direction_samples(p.n, resolution)
    curv = np.einsum("ij,ij->i", dirs @ p.Q, dirs)
    k = int(np.argmin(curv))
    # relative to the entries of Q: a copy of Q at any scale flags the same direction
    unbounded = dirs[k].copy() if curv[k] < CURVATURE_CUTOFF * np.abs(Q).max() else None

    return OracleResult(
        best_x=X[best].copy(),
        best_value=float(vals[best]),
        grid_resolution=resolution,
        refined=True,
        unbounded_direction=unbounded,
    )


def default_oracle_radius(p: ProblemInstance | Pencil, certified: CriticalPoint | None) -> float:
    """Crude deterministic bound on the minimizer norm.

    With a certificate the curvature of the shifted Hessian at the certified
    multiplier (``Pencil.min_eigenvalue``; ``p`` is a problem or its
    ``Pencil``), floored at 1e-6 max|Q_ij|, bounds the solution; otherwise
    fall back to a fixed 10.
    """
    if certified is None:
        return 10.0
    pencil = p if isinstance(p, Pencil) else Pencil(p)
    p, lam = pencil.p, pencil.min_eigenvalue(certified.sigma)
    return 4.0 * (1.0 + float(np.linalg.norm(p.c)) / max(1e-6 * float(np.abs(p.Q).max()),
                                                       abs(lam)))

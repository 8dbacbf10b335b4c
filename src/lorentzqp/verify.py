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

import numpy as np

from .dual import CriticalPoint, dual_value
from .model import ProblemInstance, cone_quadratic, primal_objective, shifted_hessian

__all__ = [
    "KKTResiduals",
    "OracleResult",
    "kkt_check",
    "duality_gap",
    "projection_lorentz",
    "brute_force_min",
    "default_oracle_radius",
]

POLISH_STEPS = 500
POLISH_STOP = 1e-12
CURVATURE_CUTOFF = -1e-10


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

    def is_kkt(self, tol: float) -> bool:
        return self.max_residual <= tol

    def on_cone(self, tol: float) -> bool:
        return self.max_residual <= tol and self.nappe_violation <= tol


def kkt_check(p: ProblemInstance, x, sigma: float, tol: float = 1e-8) -> KKTResiduals:
    """Compute all residuals for (x, sigma).  ``tol`` is only a convenience
    default for the is_kkt/on_cone queries; residuals are exact."""
    del tol
    x = np.asarray(x, dtype=float)
    lam = cone_quadratic(x)
    return KKTResiduals(
        stationarity=float(np.max(np.abs(shifted_hessian(p, sigma) @ x - p.c))),
        primal_feasibility=max(lam, 0.0),
        nappe_violation=max(-float(x[0]), 0.0),
        dual_feasibility=max(-sigma, 0.0),
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


def _project_cols(Y: np.ndarray) -> np.ndarray:
    """Cone projection of every column of the component-major array Y, in
    place: the closed form of ``projection_lorentz``, column by column."""
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


def _slice_grid(n: int, radius: float, resolution: int) -> np.ndarray:
    """Deterministic grid over {0 <= x1 <= radius, ||x[1:]|| <= x1}, each
    point once, component-major: shape (n, N), one row per coordinate.

    x1 runs at full resolution; the tail ball is sampled radially/angularly
    at documented coarser factors so the point count stays at desk scale.
    Samples that coincide are emitted once: the apex stands for the whole
    x1 = 0 level, the axis point for the rad = 0 ring of each level, and at
    n = 4 each pole (theta = 0 or pi) for its row of phi angles.
    """
    x1s = np.linspace(0.0, radius, resolution)[1:]
    if n == 2:
        tails = np.linspace(-1.0, 1.0, resolution)[:, None]
    else:
        rad = np.linspace(0.0, 1.0, max(4, resolution // 16) + 1)[1:]
        if n == 3:
            theta = np.linspace(0.0, 2.0 * np.pi, max(16, resolution // 4), endpoint=False)
            dirs = np.stack([np.cos(theta), np.sin(theta)], axis=1)
        elif n == 4:
            m = max(8, resolution // 16)
            theta = np.linspace(0.0, np.pi, m)[1:-1]
            phi = np.linspace(0.0, 2.0 * np.pi, m, endpoint=False)
            TH, PH = np.meshgrid(theta, phi, indexing="ij")
            ring = np.stack(
                [np.sin(TH) * np.cos(PH), np.sin(TH) * np.sin(PH), np.cos(TH)], axis=2
            ).reshape(-1, 3)
            dirs = np.concatenate([[[0.0, 0.0, 1.0]], ring, [[0.0, 0.0, -1.0]]])
        else:
            raise ValueError("exhaustive oracle grid supports n <= 4 only")
        tails = (rad[:, None, None] * dirs[None, :, :]).reshape(-1, n - 1)
        tails = np.concatenate([np.zeros((1, n - 1)), tails])
    pts = np.zeros((n, 1 + x1s.size * tails.shape[0]))     # column 0: the apex
    X1 = np.repeat(x1s, tails.shape[0])
    pts[0, 1:] = X1
    pts[1:, 1:] = X1 * np.tile(tails.T, x1s.size)
    return pts


def _direction_samples(n: int, resolution: int) -> np.ndarray:
    """Unit feasible directions: the axis plus rings out to the boundary."""
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
    return np.asarray(out)


@dataclass(frozen=True)
class OracleResult:
    """Best feasible point found by the deterministic grid + polish oracle."""

    best_x: np.ndarray
    best_value: float
    grid_resolution: int
    refined: bool
    unbounded_direction: np.ndarray | None


def brute_force_min(p: ProblemInstance, radius: float, resolution: int = 128) -> OracleResult:
    """Grid the cone slice, polish every point by projected gradient descent,
    and scan feasible directions for negative curvature.

    Deterministic and bit-reproducible: fixed grid, fixed step
    1/(||Q||_inf + 1), at most POLISH_STEPS iterations with a global
    displacement stop, value ties broken lexicographically by coordinates.
    The iterates are held component-major, shape (n, N) with one column per
    grid point, so every per-point step, projection, rescale and
    displacement runs along contiguous rows of length N.
    Polish iterates are rescaled into a large ball so unbounded instances
    stay finite; escape shows up as a very negative best value alongside the
    reported unbounded direction.
    """
    if radius <= 0.0:
        raise ValueError("radius must be positive")
    if resolution < 16:
        raise ValueError("resolution must be at least 16")
    XT = _slice_grid(p.n, radius, resolution)
    Q, cT = p.Q, p.c[:, None]
    step = 1.0 / (float(np.abs(Q).sum(axis=1).max()) + 1.0)
    cap = 1e6 * (1.0 + radius)
    for _ in range(POLISH_STEPS):
        Y = _project_cols(XT - step * (Q @ XT - cT))
        size = np.abs(Y).max(axis=0)
        big = size > cap
        if np.any(big):
            Y[:, big] *= cap / size[big]
        disp = float(np.max(np.abs(Y - XT)))
        XT = Y
        if disp < POLISH_STOP:
            break

    # One point per row: x'Qx and c'x are summed in the per-point order.
    X = np.ascontiguousarray(XT.T)
    vals = 0.5 * np.einsum("ij,ij->i", X @ Q, X) - X @ p.c
    order = np.lexsort(tuple(X[:, k] for k in range(p.n - 1, -1, -1)) + (vals,))
    best = order[0]

    dirs = _direction_samples(p.n, resolution)
    curv = np.einsum("ij,ij->i", dirs @ p.Q, dirs)
    k = int(np.argmin(curv))
    unbounded = dirs[k] if curv[k] < CURVATURE_CUTOFF else None

    return OracleResult(
        best_x=X[best].copy(),
        best_value=float(vals[best]),
        grid_resolution=resolution,
        refined=True,
        unbounded_direction=unbounded,
    )


def default_oracle_radius(p: ProblemInstance, certified: CriticalPoint | None) -> float:
    """Crude deterministic bound on the minimizer norm.

    With a certificate the curvature of the shifted Hessian at the certified
    multiplier bounds the solution; otherwise fall back to a fixed 10.
    """
    if certified is None:
        return 10.0
    lam = float(np.linalg.eigvalsh(shifted_hessian(p, certified.sigma))[0])
    return 4.0 * (1.0 + float(np.linalg.norm(p.c)) / max(1e-6, abs(lam)))

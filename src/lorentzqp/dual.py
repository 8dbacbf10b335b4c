"""One-dimensional dual of the cone-constrained quadratic.

The dual function ``d(sigma) = -0.5 * c' G(sigma)^{-1} c`` with
``G(sigma) = Q + sigma*L``, ``L = diag(-1,1,...,1)``, is concave wherever G is
positive definite, and its derivative at sigma equals
``cone_quadratic(x(sigma))`` for the recovered point
``x(sigma) = G(sigma)^{-1} c``.  Interior roots of the derivative are dual
KKT points; they map one-to-one onto stationary points of the primal with
``primal value == dual value``.

Everything here comes from the pencil G(sigma).  Its singular shifts (the
poles of the dual) cut [0, inf) into cells of constant inertia, so the
positive-definite window is the one cell whose midpoint is positive
definite.  Since ``det [[G L G, c], [c', 0]] = 2 det(G)^2 g(sigma)`` for the
derivative g, every KKT multiplier is a real eigenvalue of a quadratic
eigenproblem of size n+1, solved as one generalized eigenproblem of size
2(n+1).  The dual maximum is then a selection from that multiplier set: the
multiplier inside the window, or the singular-boundary hard case.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .linalg import (
    DEFAULT_TOL_EIG,
    Factorization,
    SingularMatrixError,
    factorize,
    pencil_singular_sigmas,
    solve_linear,
)
from .model import (
    ProblemInstance,
    cone_quadratic,
    lorentz_signs,
    primal_objective,
    shifted_hessian,
)

__all__ = [
    "CERT_GLOBAL",
    "CERT_KKT",
    "CERT_HARD",
    "DualInterval",
    "CriticalPoint",
    "HardCaseError",
    "dual_value",
    "dual_derivative",
    "pd_interval",
    "maximize_dual",
    "enumerate_kkt",
    "recover_primal",
    "hard_case_solve",
]

CERT_GLOBAL = "global_min_certified"
CERT_KKT = "kkt_no_certificate"
CERT_HARD = "boundary_hard_case"

DEFAULT_TOL_ROOT = 1e-10
DEFAULT_TOL_KKT = 1e-8
DEFAULT_MAX_ITER = 200
DEFAULT_SAMPLES = 64

# Tolerance for the nappe test x[0] >= -tol (scale-free).
NAPPE_TOL = 1e-8
# Eigenvalues of the pencil with |imag| up to this (relative) count as real:
# double roots of g split into nearly-real pairs, and Newton plus the KKT
# gate decide what a kept value is worth.
REALNESS_TOL = 1e-6
# The eigensolver cannot separate roots of g from a pole closer than about
# sqrt(eps) (relative); an eigenvalue this close to a pole is polished from
# one start on each side of it instead.
POLE_RESOLUTION = 1e-7
# Zero band (tol_eig) of G at a hard-case shift, looser than DEFAULT_TOL_EIG:
# the shift comes from an eigensolve, so G is singular there only to within
# the round-off of that shift.
HARD_CASE_TOL_EIG = 1e-8
EPS = float(np.finfo(float).eps)


class HardCaseError(RuntimeError):
    """The dual supremum is not attained at the singular boundary."""


@dataclass(frozen=True)
class DualInterval:
    """Maximal sub-interval of [0, inf) with G(sigma) in a fixed regime."""

    lo: float
    hi: float
    kind: str  # "positive_definite" or "nonsingular_indefinite"
    lo_singular: bool
    hi_singular: bool


@dataclass(frozen=True)
class CriticalPoint:
    """A dual KKT candidate and its recovered primal point."""

    sigma: float
    x: np.ndarray
    dual_value: float
    primal_value: float
    inertia: tuple[int, int, int]
    certificate: str
    nappe_ok: bool

    @property
    def certified(self) -> bool:
        return self.certificate == CERT_GLOBAL


class _KKTPoints(list):
    """The points ``enumerate_kkt`` returns, with the pole cells (see
    ``_cells``) they were enumerated in, so that the selection from them does
    not compute the poles a second time."""

    def __init__(self, points, cells: tuple[list[float], bool]):
        super().__init__(points)
        self.cells = cells


# ---------------------------------------------------------------------------
# dual function and derivative


def _factorized(p: ProblemInstance, sigma: float, tol_eig: float) -> Factorization:
    f = factorize(shifted_hessian(p, sigma), tol_eig)
    if f.singular:
        raise SingularMatrixError(
            f"G(sigma) is singular at sigma={sigma!r}", sigma=sigma
        )
    return f


def recover_primal(p: ProblemInstance, sigma: float, tol_eig: float = DEFAULT_TOL_EIG) -> np.ndarray:
    """Solve the stationarity system G(sigma) x = c."""
    return solve_linear(_factorized(p, sigma, tol_eig), p.c)


def dual_value(p: ProblemInstance, sigma: float, tol_eig: float = DEFAULT_TOL_EIG) -> float:
    """-0.5 * c' G(sigma)^{-1} c.  Raises SingularMatrixError at singular shifts."""
    x = recover_primal(p, sigma, tol_eig)
    return -0.5 * float(p.c @ x)


def dual_derivative(p: ProblemInstance, sigma: float, tol_eig: float = DEFAULT_TOL_EIG) -> float:
    """Derivative of the dual: cone_quadratic of the recovered point."""
    return cone_quadratic(recover_primal(p, sigma, tol_eig))


def _kkt_gap(x: np.ndarray) -> float:
    """x'Lx / ||x||^2: the scale-free size of the derivative at x = x(sigma)."""
    return 2.0 * cone_quadratic(x) / float(x @ x)


def _g_and_slope(p: ProblemInstance, sigma: float) -> tuple[np.ndarray, float, float, np.ndarray]:
    """x(sigma), the derivative g, its own derivative g' = -(Lx)' G^{-1} (Lx),
    and y = G^{-1} (Lx) = -dx/dsigma."""
    G = shifted_hessian(p, sigma)
    x = np.linalg.solve(G, p.c)
    Lx = x * lorentz_signs(p.n)
    y = np.linalg.solve(G, Lx)
    return x, cone_quadratic(x), -float(Lx @ y), y


# ---------------------------------------------------------------------------
# positive-definite window


def _cells(p: ProblemInstance) -> tuple[list[float], bool]:
    """Left ends [0, p1, p2, ...] of the cells between merged poles, and
    whether 0 is itself a pole."""
    poles: list[float] = []
    for s in pencil_singular_sigmas(p):
        if not poles or s - poles[-1] > 1e-9 * (1.0 + s):
            poles.append(s)
    zero_singular = bool(poles) and poles[0] <= 1e-12
    return [0.0] + (poles[1:] if zero_singular else poles), zero_singular


def pd_interval(p: ProblemInstance) -> DualInterval | None:
    """The unique maximal interval of sigma >= 0 where G(sigma) is PD.

    The PD set is the preimage of the (convex) PD cone under an affine map,
    hence a single interval bounded above by Q[0,0] (the (0,0) entry of G
    must stay positive).  Inertia changes only at the singular shifts, so the
    window is the pole cell whose midpoint is positive definite, and its ends
    are the poles themselves.  The midpoint test uses the banded inertia of
    ``factorize``: a bare Cholesky factorization can succeed on the singular
    PSD matrix at the center of the sliver that a defective pole splits into.
    """
    return _pd_window(p, *_cells(p))


def _pd_window(p: ProblemInstance, breaks: list[float], zero_singular: bool) -> DualInterval | None:
    """``pd_interval`` from pole cells already computed by ``_cells``."""
    cap = float(p.Q[0, 0])
    if cap <= 0.0:
        return None
    for i, (lo, hi) in enumerate(zip(breaks[:-1], breaks[1:])):
        if lo >= cap:
            break
        if factorize(shifted_hessian(p, 0.5 * (lo + hi))).positive_definite:
            return DualInterval(lo=lo, hi=hi, kind="positive_definite",
                                lo_singular=i > 0 or zero_singular, hi_singular=True)
    return None


# ---------------------------------------------------------------------------
# critical-point construction


def build_critical_point(
    p: ProblemInstance,
    sigma: float,
    tol_eig: float = DEFAULT_TOL_EIG,
    certificate: str | None = None,
    x: np.ndarray | None = None,
) -> CriticalPoint:
    """Complete a dual candidate sigma into a classified CriticalPoint."""
    f = factorize(shifted_hessian(p, sigma), tol_eig)
    if x is None:
        x = solve_linear(f, p.c)
    nappe_ok = bool(x[0] >= -NAPPE_TOL * (1.0 + float(np.max(np.abs(x)))))
    if certificate is None:
        certificate = CERT_GLOBAL if (f.positive_definite and nappe_ok) else CERT_KKT
    return CriticalPoint(
        sigma=float(sigma),
        x=np.asarray(x, dtype=float),
        dual_value=-0.5 * float(p.c @ x),
        primal_value=primal_objective(p, x),
        inertia=f.inertia,
        certificate=certificate,
        nappe_ok=nappe_ok,
    )


# ---------------------------------------------------------------------------
# dual maximization over the PD window


def maximize_dual(
    p: ProblemInstance,
    tol: float = DEFAULT_TOL_KKT,
    tol_root: float = DEFAULT_TOL_ROOT,
    tol_eig: float = DEFAULT_TOL_EIG,
    max_iter: int = DEFAULT_MAX_ITER,
) -> CriticalPoint | None:
    """Maximize the concave dual over its positive-definite window.

    Cases: the window may contain sigma=0 with nonincreasing dual
    (complementarity holds at 0), an interior derivative root, or a
    derivative that stays positive up to the singular upper boundary
    (hard case).  Windows where the dual decreases throughout and that
    start above 0 carry no certified point and yield None.
    """
    points = enumerate_kkt(p, tol, DEFAULT_SAMPLES, tol_root, tol_eig, max_iter)
    point, _ = _maximize_with_notes(p, points, tol, tol_eig)
    return point


def _maximize_with_notes(
    p: ProblemInstance,
    points: _KKTPoints,
    tol: float = DEFAULT_TOL_KKT,
    tol_eig: float = DEFAULT_TOL_EIG,
) -> tuple[CriticalPoint | None, list[str]]:
    """Select the dual maximum from the enumerated multipliers.

    The dual is concave on the window, so at most one multiplier lies in it:
    the one where G(sigma) is positive definite (uncertified if it recovers
    a mirror-nappe point).  Only without one are the window's ends needed:
    the derivative keeps its sign across the window, and positive means the
    supremum sits at the singular upper end (hard case).  The window comes
    from the pole cells the enumeration already computed.
    """
    inside = [cp for cp in points if cp.inertia == (p.n, 0, 0)]
    if inside:
        return inside[0], []

    window = _pd_window(p, *points.cells)
    if window is None:
        return None, ["no positive-definite dual window; certificate unavailable"]
    if dual_derivative(p, 0.5 * (window.lo + window.hi), tol_eig) > 0.0:
        try:
            point = hard_case_solve(p, window.hi, tol=tol, tol_eig=tol_eig)
        except HardCaseError as exc:
            return None, [f"hard case without boundary solution: {exc}; no certificate, see oracle"]
        return point, ["dual supremum attained only at the singular boundary (hard case)"]
    return None, [
        "dual is decreasing across the positive-definite window; "
        "no certified maximum inside it"
    ]


# ---------------------------------------------------------------------------
# full KKT enumeration


def _pencil_eigenvalues(p: ProblemInstance) -> np.ndarray:
    """Real positive eigenvalues of B(sigma) = B0 + sigma*B1 + sigma^2*B2.

    B0 = [[Q L Q, c], [c', 0]], B1 = 2Q (+) 0, B2 = L (+) 0, linearized as
    A z = sigma B z with z = (v, sigma v).  Q is scaled to unit max-norm and
    c to unit length, which balances the blocks and only rescales sigma.
    """
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
    w = scipy.linalg.eigvals(A, B)
    w = w[np.isfinite(w)]
    real = w[np.abs(w.imag) <= REALNESS_TOL * (1.0 + np.abs(w.real))].real
    return scale * real[real > 0.0]


def _polish(p: ProblemInstance, sigma: float, pole: float, tol_root: float,
            max_iter: int) -> tuple[float, np.ndarray | None]:
    """Newton on h = (sigma - pole)^2 * g, which stays smooth at ``pole``
    (pass inf for plain Newton on g).

    Returns the iterate whose |_kkt_gap| is the smallest, with its x (None
    if no solve succeeded).  Iteration stops once a step falls below
    tol_root*min(1+sigma, |sigma-pole|), or once the gap or the step stops
    shrinking (a start drifting toward a pole or infinity, or round-off).
    The returned x takes the last Newton step on g to first order,
    x - (g/g') dx/dsigma: a double sigma cannot, and near a pole one ulp of
    sigma can move x'Lx by more than tol.
    """
    best_s, best_x, best_r = sigma, None, math.inf
    last, converged = math.inf, False
    for _ in range(max_iter):
        try:
            x, g, gp, y = _g_and_slope(p, sigma)
        except np.linalg.LinAlgError:
            break
        r = abs(_kkt_gap(x))
        if not r < best_r:
            break
        best_s, best_x, best_r = sigma, x + (g / gp) * y, r
        step = g / (gp + 2.0 * g / (sigma - pole))
        if converged or not abs(step) < last:
            break
        sigma -= step
        last = abs(step)
        converged = last <= tol_root * min(1.0 + abs(sigma), abs(sigma - pole))
    return best_s, best_x


def _is_multiplier(p: ProblemInstance, x: np.ndarray, sigma: float, tol: float) -> bool:
    """KKT gate for a candidate (sigma, x): the relative test
    |x'Lx| <= tol*||x||^2, and every KKT residual of the problem scaled to
    max|Q| = ||c|| = 1 within tol, counting the round-off bound eps*||x||^2
    of x'Lx.

    Next to a defective pole (a light-like null vector) ||x|| outgrows x'Lx,
    so the relative gap tends to 0 where g does not vanish; the scaled
    residuals reject those points, and the round-off term rejects points
    where x'Lx cancels to below its own error.  At sigma = 0 complementarity
    holds identically and only x'Lx <= 0 (within the same bounds) is asked.
    """
    q = cone_quadratic(x)
    r = abs(q) if sigma > 0.0 else q
    xx = float(x @ x)
    s_unit = float(np.max(np.abs(p.Q))) or 1.0
    c_norm = float(np.linalg.norm(p.c))
    x_unit = c_norm / s_unit  # the natural size of x
    stationarity = float(np.max(np.abs(shifted_hessian(p, sigma) @ x - p.c))) / c_norm
    scaled = (r + EPS * xx) * max(1.0, sigma / s_unit) / x_unit**2
    return r <= 0.5 * tol * xx and max(scaled, stationarity) <= tol


def _starts(sigma: float, poles: list[float]) -> list[tuple[float, float]]:
    """Newton starts (sigma, pole to deflate) for one pencil eigenvalue."""
    for s in poles:
        gap = POLE_RESOLUTION * (1.0 + s)
        if abs(sigma - s) <= gap:
            return [(s - gap, s), (s + gap, s)]
    return [(sigma, math.inf)]


def _family_representatives(p: ProblemInstance, breaks: list[float], zero_singular: bool,
                            tol: float) -> list[float] | None:
    """One sigma per pole cell when g vanishes identically, else None.

    For data such as Q = diag(1, -1), c = (1, 1) every nonsingular sigma is
    critical and B(sigma) is singular, so its eigenvalues are arbitrary.  A
    nonzero g is rational with finitely many roots; vanishing at two probes
    beyond every pole, at irrational offsets, marks the family.  Cells are
    represented by their midpoints, the last one by 2*top + 1, and the first
    by sigma = 0 (admitted separately) unless 0 is a pole.
    """
    top = breaks[-1]
    for offset in (0.5 * math.sqrt(2.0), math.pi):
        x = np.linalg.solve(shifted_hessian(p, top + offset * (1.0 + top)), p.c)
        if abs(_kkt_gap(x)) > tol:
            return None
    reps = [0.5 * (a + b) for a, b in zip(breaks, breaks[1:] + [3.0 * top + 2.0])]
    return reps if zero_singular else reps[1:]


def enumerate_kkt(
    p: ProblemInstance,
    tol: float = DEFAULT_TOL_KKT,
    samples_per_interval: int = DEFAULT_SAMPLES,
    tol_root: float = DEFAULT_TOL_ROOT,
    tol_eig: float = DEFAULT_TOL_EIG,
    max_iter: int = DEFAULT_MAX_ITER,
) -> list[CriticalPoint]:
    """All dual KKT points sigma >= 0, classified by inertia.

    The multipliers are the real positive eigenvalues of the quadratic
    pencil B(sigma) = [[G L G, c], [c', 0]], whose determinant is
    2 det(G)^2 g(sigma); one generalized eigensolve covers the whole
    half-line, with no search range and no sampling.  Each eigenvalue is
    Newton-polished on g (from both sides of a pole it cannot be told apart
    from) and kept when the recovered point passes the relative gate
    |x'Lx| <= tol*||x||^2, which rejects the spurious eigenvalues near poles
    and near infinity, and has scaled KKT residuals within tol (see
    ``_is_multiplier``); survivors within 1e-9 relative are merged.
    sigma = 0 is admitted under the same gate with x'Lx <= 0 in place of
    x'Lx = 0, since complementarity holds there identically.  Each point
    reports the x the gate accepted.
    ``samples_per_interval`` is validated but has no effect on the result.
    """
    if samples_per_interval < 8:
        raise ValueError("samples_per_interval must be at least 8")

    breaks, zero_singular = _cells(p)
    if float(np.max(np.abs(p.c))) == 0.0:
        # Degenerate dual: x(sigma) = 0 for every nonsingular shift.  Report
        # the single stationary point at the cone vertex.
        sigma0 = 0.5 * (breaks[1] if len(breaks) > 1 else 1.0) if zero_singular else 0.0
        return _KKTPoints([build_critical_point(p, sigma0, tol_eig, x=np.zeros(p.n))],
                          (breaks, zero_singular))

    reps = _family_representatives(p, breaks, zero_singular, tol)
    if reps is not None:
        candidates = [(s, None) for s in reps]
    else:
        poles = breaks if zero_singular else breaks[1:]
        starts = {st for s in _pencil_eigenvalues(p) for st in _starts(float(s), poles)}
        polished = [_polish(p, start, pole, tol_root, max_iter) for start, pole in starts]
        candidates = [(s, x) for s, x in polished
                      if s > 0.0 and x is not None and _is_multiplier(p, x, s, tol)]
    if not zero_singular:
        x = np.linalg.solve(p.Q, p.c)
        if _is_multiplier(p, x, 0.0, tol):
            candidates.append((0.0, x))

    # Each point reports the x that passed the gate, so its KKT residuals
    # are the ones measured here.
    points: list[CriticalPoint] = []
    for sigma, x in sorted(candidates, key=lambda sx: sx[0]):
        if points and sigma - points[-1].sigma <= 1e-9 * (1.0 + sigma):
            continue
        try:
            cp = build_critical_point(p, sigma, tol_eig, x=x)
        except SingularMatrixError:
            continue  # a family representative at an unresolved pole
        if cp.inertia[1] == 0:  # within tol_eig of a pole: no point to recover
            points.append(cp)
    return _KKTPoints(points, (breaks, zero_singular))


# ---------------------------------------------------------------------------
# singular boundary (hard case)


def _pseudo_solve(p: ProblemInstance, sigma_sing: float, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """Minimum-norm solution of G(sigma_sing) x = c and a null-space basis.

    The dual's limit value at the singular shift is ``-0.5 * c' x``.  Raises
    HardCaseError unless G is singular there and c is orthogonal (within
    tol*(1+||c||)) to its null space.
    """
    f = factorize(shifted_hessian(p, sigma_sing), HARD_CASE_TOL_EIG)
    if not f.singular:
        raise HardCaseError(
            f"G(sigma) is not singular at sigma={sigma_sing!r} (no null space found)"
        )
    U0, U1 = f.U[:, f.null], f.U[:, ~f.null]
    if float(np.linalg.norm(U0.T @ p.c)) > tol * (1.0 + float(np.linalg.norm(p.c))):
        raise HardCaseError(
            "c has a component in the null space of G(sigma); the dual supremum "
            "is not attained"
        )
    return U1 @ ((U1.T @ p.c) / f.w[~f.null]), U0


def hard_case_solve(
    p: ProblemInstance,
    sigma_sing: float,
    tol: float = DEFAULT_TOL_KKT,
    tol_eig: float = DEFAULT_TOL_EIG,
) -> CriticalPoint:
    """Boundary solution when the dual supremum sits at a singular shift.

    Requires c orthogonal (within tol*(1+||c||)) to the null space of
    G(sigma_sing); the pseudo-solution is then completed with a null-space
    step chosen so the result lies exactly on the cone boundary, mirroring
    the trust-region hard case.
    """
    x_p, U0 = _pseudo_solve(p, sigma_sing, tol)

    # Deterministic null direction: maximize the first component.
    first_row = U0[0, :]
    if float(np.linalg.norm(first_row)) > 1e-12:
        v = U0 @ (first_row / np.linalg.norm(first_row))
    else:
        v = U0[:, 0]

    # cone_quadratic(x_p + t v) is quadratic in t.
    signs = lorentz_signs(p.n)
    quad_a = float((v * signs) @ v)
    lin_b = float((v * signs) @ x_p)
    const = cone_quadratic(x_p)
    candidates: list[float] = []
    if abs(quad_a) <= 1e-14:
        if abs(lin_b) > 1e-14:
            candidates.append(-const / lin_b)
        elif abs(const) <= tol:
            candidates.append(0.0)
    else:
        disc = lin_b * lin_b - 2.0 * quad_a * const
        if disc >= 0.0:
            r = math.sqrt(disc)
            candidates.extend([(-lin_b - r) / quad_a, (-lin_b + r) / quad_a])

    scale = 1.0 + float(np.max(np.abs(x_p)))
    admissible = [
        t for t in candidates
        if math.isfinite(t) and (x_p[0] + t * v[0]) >= -NAPPE_TOL * scale
    ]
    if not admissible:
        raise HardCaseError(
            "no boundary point with x[0] >= 0 along the null direction; the dual "
            "supremum is not attained"
        )
    t = min(admissible, key=abs)
    x = x_p + t * v
    return build_critical_point(p, sigma_sing, tol_eig, certificate=CERT_HARD, x=x)

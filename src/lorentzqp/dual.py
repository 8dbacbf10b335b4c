"""One-dimensional dual of the cone-constrained quadratic.

The dual function ``d(sigma) = -0.5 * c' G(sigma)^{-1} c`` with
``G(sigma) = Q + sigma*L``, ``L = diag(-1,1,...,1)``, is concave wherever G is
positive definite, and its derivative at sigma equals
``cone_quadratic(x(sigma))`` for the recovered point
``x(sigma) = G(sigma)^{-1} c``.  Interior roots of the derivative are dual
KKT points; they map one-to-one onto stationary points of the primal with
``primal value == dual value``.

Everything here comes from the pencil G(sigma) through its arrowhead form
(``arrowhead.Arrowhead``): one symmetric ``eigh`` of the tail block per
solve rotates G(sigma) into ``[[alpha - sigma, d'], [d, diag(nu + sigma)]]``.
Its poles, the roots of the secular function
``f(sigma) = alpha - sigma - sum d_i^2 / (nu_i + sigma)`` and the shifts of
decoupled coordinates, cut [0, inf) into cells of constant inertia.  L has
one negative square, so only the top cell, from the second-largest pole (or
0) to the largest, can be positive definite (see ``pd_interval``): the
inertia at its midpoint, the signs of nu_i + sigma and of f, decides the
window.  The null vector of a pole p is ``v = (1, -d/(nu + p))``, with type
``v'Lv = f'(p)`` and ``v'c = N(p)``, so the derivative takes the secular
form ``g(sigma) = 0.5 * sum_i beta_i / (lam_i + sigma)^2`` with
``beta_i = N(p_i)^2 / f'(p_i)``: all real but one negative weight, or one
complex pair (see ``pontryagin``).  After a change of variable g is convex
on each cell, so each cell holds at most two roots, most cells are ruled
out by a closed-form bound, and the rest are solved by monotone Newton from
their ends, all in O(n) per step; x, g and the inertia at each root are
O(n) arrowhead solves too.  When a pole is nearly defective (a light-like
null vector), the multipliers are instead the real eigenvalues of the
bordered quadratic pencil ``[[G L G, c], [c', 0]]``, whose determinant is
``2 det(G)^2 g(sigma)``, projected onto the complement of c and solved as
one companion eigenproblem of size 2(n-1) with ``numpy.linalg.eigvals``.
The dual maximum is then a selection from the multiplier set: the
multiplier inside the window, or the singular-boundary hard case.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .arrowhead import Arrowhead
from .linalg import Factorization, SingularMatrixError, factorize, solve_linear
from .model import (
    ProblemInstance,
    cone_quadratic,
    lorentz_signs,
    natural_units,
    primal_objective,
    shifted_hessian,
)
from .pontryagin import EPS, MAX_ITER, TOL_ROOT, secular_form

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

DEFAULT_TOL_KKT = 1e-8

# Eigenvalues mu = 1/(sigma - s0) of the pencil with |imag mu| up to this
# count as real: double roots of g split into nearly-real pairs, and Newton
# plus the KKT gate decide what a kept value is worth.
REALNESS_TOL = 1e-6
# Shifts s0 of sigma = s0 + 1/mu, in units of max|Q|, tried in order until
# K(s0)^{-1} [P'LP, K'(s0)] has no entry above SHIFT_LIMIT (else the one with
# the smallest largest entry is used): a root of det K that close to s0 would
# cost the other eigenvalues that much accuracy.
# Negative, so that sigma >= 0 maps to the bounded 0 < mu <= 1/|s0|, and
# irrational, so that no structured data puts a root on them.
SHIFTS = (-0.5 * (math.sqrt(5.0) - 1.0), -math.sqrt(2.0), math.sqrt(3.0) - 2.0)
SHIFT_LIMIT = 1e8
# The eigensolver cannot separate roots of g from a pole closer than about
# sqrt(eps) (relative); an eigenvalue this close to a pole is polished from
# one start on each side of it instead.
POLE_RESOLUTION = 1e-7
# Tolerance for the nappe test x[0] >= -NAPPE_TOL * max|x|, relative to the
# point's own size, so that scaling Q or c does not change it.
NAPPE_TOL = 1e-8


def positive_nappe(x: np.ndarray) -> bool:
    """x[0] >= 0 to within NAPPE_TOL of the point's own size."""
    return bool(x[0] >= -NAPPE_TOL * float(np.abs(x).max()))


class HardCaseError(RuntimeError):
    """The dual supremum is not attained at the singular boundary."""


@dataclass(frozen=True)
class DualInterval:
    """Maximal sub-interval of [0, inf) where G(sigma) is positive definite."""

    lo: float
    hi: float
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

    def scaled(self, s: float, t: float) -> CriticalPoint:
        """This point of the problem (s*Q, t*c): sigma*s, x*t/s, values*t^2/s."""
        v = t / s * t
        return CriticalPoint(self.sigma * s, self.x * (t / s), self.dual_value * v,
                             self.primal_value * v, self.inertia, self.certificate, self.nappe_ok)


class _KKTPoints(list):
    """The points ``enumerate_kkt`` returns, with the problem in natural
    units, the arrowhead and the pole cells (see ``_pole_cells``) they were
    enumerated from, so that the selection from them neither computes the
    poles nor copies the problem a second time.  Those are in natural units,
    sigma divided by ``unit``, and the points are mapped from there by
    ``CriticalPoint.scaled(unit, c_unit)``."""

    def __init__(self, points, natural: ProblemInstance, arrow: Arrowhead,
                 cells: tuple[list[float], bool], unit: float, c_unit: float):
        super().__init__(points if unit == c_unit == 1.0 else
                         [cp.scaled(unit, c_unit) for cp in points])
        self.natural = natural
        self.arrow = arrow
        self.cells = cells
        self.unit = unit
        self.c_unit = c_unit


# ---------------------------------------------------------------------------
# dual function and derivative


def recover_primal(p: ProblemInstance, sigma: float) -> np.ndarray:
    """Solve the stationarity system G(sigma) x = c, in natural units."""
    q, s, t = natural_units(p)
    f = factorize(shifted_hessian(q, sigma / s))
    if f.singular:
        raise SingularMatrixError(f"G(sigma) is singular at sigma={sigma!r}", sigma=sigma)
    return solve_linear(f, q.c) * (t / s)


def dual_value(p: ProblemInstance, sigma: float) -> float:
    """-0.5 * c' G(sigma)^{-1} c.  Raises SingularMatrixError at singular shifts."""
    x = recover_primal(p, sigma)
    return -0.5 * float(p.c @ x)


def dual_derivative(p: ProblemInstance, sigma: float) -> float:
    """Derivative of the dual: cone_quadratic of the recovered point."""
    return cone_quadratic(recover_primal(p, sigma))


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


def _pole_cells(sigmas: list[float]) -> tuple[list[float], bool]:
    """Left ends [0, p1, p2, ...] of the cells between the sorted singular
    shifts ``sigmas``, merged, and whether 0 is itself a pole."""
    poles: list[float] = []
    for s in sigmas:
        if not poles or s - poles[-1] > 1e-9 * (1.0 + s):
            poles.append(s)
    zero_singular = bool(poles) and poles[0] <= 1e-12
    return [0.0] + (poles[1:] if zero_singular else poles), zero_singular


def pd_interval(p: ProblemInstance) -> DualInterval | None:
    """The unique maximal interval of sigma >= 0 where G(sigma) is PD.

    Only the top pole cell, from the second-largest pole (or 0) to the
    largest, can be positive definite.  Suppose G(s) = R'R is PD.  Then
    ``G(sigma) = R'(I + (sigma - s) S) R`` with ``S = R^{-T} L R^{-1}``, which
    is congruent to L and so, by Sylvester's law of inertia, has exactly one
    negative eigenvalue s_1.  The poles are the real shifts ``s - 1/s_i``,
    and exactly one of them, ``s + 1/|s_1|``, lies above s; it is simple.  So
    every PD shift lies in the top cell, and the window is that whole cell.
    It is empty when the cell starts at or above Q[0,0] (the (0,0) entry of
    G must stay positive); otherwise the inertia of G at the cell's midpoint
    decides it, read from the arrowhead (``Arrowhead.inertia``: the signs of
    nu_i + sigma and of the Schur complement f) under the zero band of
    ``factorize``: a bare sign test of f can pass at the singular PSD
    matrix at the center of the sliver that a defective pole splits into.
    """
    q, s, _ = natural_units(p)
    arrow = Arrowhead(q)
    window = _pd_window(arrow, *_pole_cells(arrow.poles))
    return None if window is None else replace(window[0], lo=s * window[0].lo, hi=s * window[0].hi)


def _pd_window(arrow: Arrowhead, breaks: list[float],
               zero_singular: bool) -> tuple[DualInterval, float] | None:
    """``pd_interval`` from pole cells already computed by ``_pole_cells``, with
    the window's midpoint, where the window was decided."""
    if len(breaks) < 2 or breaks[-2] >= arrow.alpha:
        return None
    lo, hi = breaks[-2], breaks[-1]
    mid = 0.5 * (lo + hi)
    if arrow.inertia(mid)[0] < arrow.n:
        return None
    window = DualInterval(lo=lo, hi=hi, lo_singular=len(breaks) > 2 or zero_singular,
                          hi_singular=True)
    return window, mid


# ---------------------------------------------------------------------------
# critical-point construction


def build_critical_point(
    p: ProblemInstance,
    sigma: float,
    x: np.ndarray,
    inertia: tuple[int, int, int],
    certificate: str | None = None,
) -> CriticalPoint:
    """Complete a dual candidate sigma, with its recovered point x and the
    inertia of G(sigma), into a classified CriticalPoint."""
    nappe_ok = positive_nappe(x)
    if certificate is None:
        certificate = CERT_GLOBAL if (inertia[0] == p.n and nappe_ok) else CERT_KKT
    return CriticalPoint(
        sigma=float(sigma),
        x=np.asarray(x, dtype=float),
        dual_value=-0.5 * float(p.c @ x),
        primal_value=primal_objective(p, x),
        inertia=inertia,
        certificate=certificate,
        nappe_ok=nappe_ok,
    )


# ---------------------------------------------------------------------------
# dual maximization over the PD window


def maximize_dual(p: ProblemInstance) -> CriticalPoint | None:
    """Maximize the concave dual over its positive-definite window.

    Cases: the window may contain sigma=0 with nonincreasing dual
    (complementarity holds at 0), an interior derivative root, or a
    derivative that stays positive up to the singular upper boundary
    (hard case).  Windows where the dual decreases throughout and that
    start above 0 carry no certified point and yield None.
    """
    point, _ = _maximize_with_notes(p, enumerate_kkt(p), DEFAULT_TOL_KKT)
    return point


def _maximize_with_notes(
    p: ProblemInstance,
    points: _KKTPoints,
    tol: float,
) -> tuple[CriticalPoint | None, list[str]]:
    """Select the dual maximum from the enumerated multipliers.

    The dual is concave on the window, so at most one multiplier lies in it:
    the one where G(sigma) is positive definite (uncertified if it recovers
    a mirror-nappe point).  Only without one are the window's ends needed:
    the derivative keeps its sign across the window, and positive means the
    supremum sits at the singular upper end (hard case).  The window comes
    from the arrowhead and the pole cells the enumeration already computed,
    and the sign of the derivative from an arrowhead solve at the midpoint
    that decided the window.  The hard case runs on the enumeration's
    problem in natural units.
    """
    inside = [cp for cp in points if cp.inertia == (p.n, 0, 0)]
    if inside:
        return inside[0], []

    window = _pd_window(points.arrow, *points.cells)
    if window is None:
        return None, ["no positive-definite dual window; certificate unavailable"]
    interval, mid = window
    if points.arrow.g(mid) > 0.0:
        try:
            point = hard_case_solve(p, points.unit * interval.hi, tol=tol,
                                    natural=(points.natural, points.unit, points.c_unit))
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
    """Real positive eigenvalues of B(sigma) = [[G L G, c], [c', 0]].

    With P an orthonormal basis of c-perp (the last n-1 columns of the
    Householder reflector of c), det B = -||c||^2 det K for the quadratic
    K(sigma) = P'QLQP + 2 sigma P'QP + sigma^2 P'LP of size n-1, which has
    no spurious infinite eigenvalues.  The Moebius shift sigma = s0 + 1/mu
    turns det K = 0 into mu^2 K(s0) + mu K'(s0) + P'LP = 0, solved as a
    companion matrix of size 2(n-1) by ``numpy.linalg.eigvals``.  Realness
    and infinity are judged on mu, where the eigensolver's error is absolute:
    mu = 0 is sigma = inf, the one eigenvalue a light-like c adds.  Q is
    scaled to unit max-norm and c to unit length, which makes s0 scale-free.
    """
    n, m = p.n, p.n - 1
    scale = float(np.abs(p.Q).max()) or 1.0
    Q = p.Q / scale
    u = p.c / math.sqrt(float(p.c @ p.c))
    signs = lorentz_signs(n)
    v = u.copy()
    v[0] += 1.0 if u[0] >= 0.0 else -1.0
    P = np.eye(n)[:, 1:] - np.outer(v, v[1:] / (1.0 + abs(u[0])))
    LP = signs[:, None] * P
    QP = Q @ P
    K2 = P.T @ LP
    best = (math.inf, 0.0, None)
    for s0 in SHIFTS:
        GP = QP + s0 * LP
        K0 = GP.T @ (signs[:, None] * GP)
        K1 = 2.0 * (P.T @ GP)
        try:
            X = np.linalg.solve(K0, np.hstack([K2, K1]))
        except np.linalg.LinAlgError:
            continue
        size = float(np.abs(X).max())
        if size < best[0]:
            best = (size, s0, X)
        if size <= SHIFT_LIMIT:
            break
    _, s0, X = best
    if X is None:  # det K vanishes at every shift: g is 0 to round-off
        return np.zeros(0)
    C = np.zeros((2 * m, 2 * m))
    C[:m, m:] = np.eye(m)
    C[m:, :] = -X
    mu = np.linalg.eigvals(C)
    if abs(cone_quadratic(u)) <= n * EPS:
        # c light-like to rounding (|c'Lc| <= 2n eps ||c||^2): then
        # det P'LP = -c'Lc/||c||^2 = 0 and one mu is 0
        mu = np.delete(mu, np.argmin(np.abs(mu)))
    mu = mu[(np.abs(mu.imag) <= REALNESS_TOL) & (mu.real != 0.0)].real
    sigma = s0 + 1.0 / mu
    return scale * sigma[sigma > 0.0]


def _polish(p: ProblemInstance, sigma: float, pole: float,
            poles: list[float]) -> tuple[float, np.ndarray | None]:
    """Newton on h = (sigma - pole)^2 * g, which stays smooth at ``pole``
    (pass inf for plain Newton on g).

    Returns the iterate whose |_kkt_gap| is the smallest, with its x (None
    if no solve succeeded).  Iteration stops once a step falls below
    TOL_ROOT*min(1+sigma, distance to the nearest of ``poles``), or once the
    gap or the step stops shrinking (a start drifting toward a pole or
    infinity, or round-off).
    The returned x takes the last Newton step on g to first order,
    x - (g/g') dx/dsigma: a double sigma cannot, and near a pole one ulp of
    sigma can move x'Lx by more than tol.  Where g' = 0 x is kept as it is,
    and a zero slope of h ends the polish: both happen whenever G(sigma) is
    proportional to (sigma - pole), as for Q = 0 or Q = -L.
    """
    best_s, best_x, best_r = sigma, None, math.inf
    last, converged = math.inf, False
    for _ in range(MAX_ITER):
        try:
            x, g, gp, y = _g_and_slope(p, sigma)
        except np.linalg.LinAlgError:
            break
        r = abs(_kkt_gap(x))
        if not r < best_r:
            break
        best_s, best_r = sigma, r
        best_x = x + (g / gp) * y if gp != 0.0 else x
        h_slope = gp + 2.0 * g / (sigma - pole)
        if converged or h_slope == 0.0:
            break
        step = g / h_slope
        if not abs(step) < last:
            break
        sigma -= step
        last = abs(step)
        dist = min((abs(sigma - s) for s in poles), default=math.inf)
        converged = last <= TOL_ROOT * min(1.0 + abs(sigma), dist)
    return best_s, best_x


def _is_multiplier(p: ProblemInstance, x: np.ndarray, sigma: float, tol: float,
                   units: tuple[float, float]) -> bool:
    """KKT gate for a candidate (sigma, x): the relative test
    |x'Lx| <= tol*||x||^2, and every KKT residual of the problem scaled to
    max|Q| = ||c|| = 1 (``units`` = (max|Q| or 1, ||c||), computed once per
    problem) within tol, counting the round-off bound eps*||x||^2 of x'Lx.

    Next to a defective pole (a light-like null vector) ||x|| outgrows x'Lx,
    so the relative gap tends to 0 where g does not vanish; the scaled
    residuals reject those points, and the round-off term rejects points
    where x'Lx cancels to below its own error.  At sigma = 0 complementarity
    holds identically and only x'Lx <= 0 (within the same bounds) is asked.
    """
    s_unit, c_norm = units
    stationarity = float(np.abs(shifted_hessian(p, sigma) @ x - p.c).max()) / c_norm
    x = x * (s_unit / c_norm)
    q = cone_quadratic(x)
    r = abs(q) if sigma > 0.0 else q
    xx = float(x @ x)
    scaled = (r + EPS * xx) * max(1.0, sigma / s_unit)
    return r <= 0.5 * tol * xx and max(scaled, stationarity) <= tol


def _starts(sigma: float, poles: list[float]) -> list[tuple[float, float]]:
    """Newton starts (sigma, pole to deflate) for one pencil eigenvalue."""
    for s in poles:
        gap = POLE_RESOLUTION * (1.0 + s)
        if abs(sigma - s) <= gap:
            return [(s - gap, s), (s + gap, s)]
    return [(sigma, math.inf)]


def _family_representatives(breaks: list[float], zero_singular: bool) -> list[float]:
    """One sigma per pole cell, for g vanishing identically.

    For data such as Q = diag(1, -1), c = (1, 1) every nonsingular sigma is
    critical.  Cells are represented by their midpoints, the last one by
    2*top + 1, and the first by sigma = 0 (admitted separately) unless 0 is
    a pole.
    """
    top = breaks[-1]
    reps = [0.5 * (a + b) for a, b in zip(breaks, breaks[1:] + [3.0 * top + 2.0])]
    return reps if zero_singular else reps[1:]


def _vanishes_at_probes(p: ProblemInstance, top: float, tol: float) -> bool:
    """g = 0 at two probes beyond every pole, at irrational offsets.  A
    nonzero g is rational with finitely many roots, so this marks the
    family where the secular form is not available; the pencil B(sigma) is
    then singular and its eigenvalues are arbitrary."""
    for offset in (0.5 * math.sqrt(2.0), math.pi):
        x = np.linalg.solve(shifted_hessian(p, top + offset * (1.0 + top)), p.c)
        if abs(_kkt_gap(x)) > tol:
            return False
    return True


def _recovered(arrow: Arrowhead, sigma: float) -> np.ndarray | None:
    """x(sigma) advanced to first order by the Newton step on g, as
    ``_polish`` returns it, from two arrowhead solves (None if G(sigma) is
    exactly singular)."""
    x = arrow.newton_point(sigma)
    return x if np.isfinite(x).all() else None


def enumerate_kkt(
    p: ProblemInstance,
    tol: float = DEFAULT_TOL_KKT,
) -> list[CriticalPoint]:
    """All dual KKT points sigma >= 0, classified by inertia.

    One ``Arrowhead`` gives the poles and the secular form of g (see
    ``pontryagin.SecularForm``), whose roots are isolated exactly cell by
    cell and Newton-polished on g in O(n) per step, to within TOL_ROOT times
    their distance to the nearest pole; x and the inertia at each root come
    from the arrowhead in O(n) too.  When a pole is nearly defective (a
    light-like null vector) or the types break the one-negative-square
    structure, the multipliers are instead the real positive eigenvalues of
    the quadratic pencil B(sigma) = [[G L G, c], [c', 0]], whose determinant
    is 2 det(G)^2 g(sigma), from one companion eigensolve of size 2(n-1)
    (see ``_pencil_eigenvalues``), each Newton-polished with dense solves
    (see ``_polish``).  Either way there is no search range and no sampling.
    A candidate is kept when the recovered point passes the relative gate
    |x'Lx| <= tol*||x||^2, which rejects spurious values near poles and near
    infinity, and has scaled KKT residuals within tol (see
    ``_is_multiplier``); survivors within 1e-9 relative are merged.
    sigma = 0 is admitted under the same gate with x'Lx <= 0 in place of
    x'Lx = 0, since complementarity holds there identically.  Each point
    reports the x the gate accepted.  All of it runs on the problem in
    natural units (``model.natural_units``), and the points are mapped back.
    """
    p, unit, c_unit = natural_units(p)
    arrow = Arrowhead(p)
    cells = _pole_cells(arrow.poles)
    breaks, zero_singular = cells
    if float(np.abs(p.c).max()) == 0.0:
        # Degenerate dual: x(sigma) = 0 for every nonsingular shift.  Report
        # the single stationary point at the cone vertex.
        sigma0 = 0.5 * (breaks[1] if len(breaks) > 1 else 1.0) if zero_singular else 0.0
        point = build_critical_point(p, sigma0, np.zeros(p.n), arrow.inertia(sigma0))
        return _KKTPoints([point], p, arrow, cells, unit, c_unit)

    c_norm = math.sqrt(float(p.c @ p.c))
    units = (float(np.abs(p.Q).max()) or 1.0, c_norm)
    form = secular_form(arrow, tol)
    if form.vanishes if form is not None else _vanishes_at_probes(p, breaks[-1], tol):
        candidates = [(s, None) for s in _family_representatives(breaks, zero_singular)]
    elif form is not None:
        u = p.c / c_norm
        sigmas = [form.polish(float(s)) for s in form.roots(abs(cone_quadratic(u)) <= p.n * EPS)]
        recovered = [(s, _recovered(arrow, s)) for s in sigmas]
        candidates = [(s, x) for s, x in recovered
                      if s > 0.0 and x is not None and _is_multiplier(p, x, s, tol, units)]
    else:
        poles = breaks if zero_singular else breaks[1:]
        starts = {st for s in _pencil_eigenvalues(p) for st in _starts(float(s), poles)}
        polished = [_polish(p, start, pole, poles) for start, pole in starts]
        candidates = [(s, x) for s, x in polished
                      if s > 0.0 and x is not None and _is_multiplier(p, x, s, tol, units)]
    if not zero_singular:
        # A defective pole at 0 escapes ``_pole_cells`` when round-off splits it
        # into a pair of shifts around 0; then Q is singular and sigma = 0 is
        # no candidate, as the inertia filter below decides.
        x = arrow.x(0.0)
        if np.isfinite(x).all() and _is_multiplier(p, x, 0.0, tol, units):
            candidates.append((0.0, x))

    # Each point reports the x that passed the gate, so its KKT residuals
    # are the ones measured here.
    points: list[CriticalPoint] = []
    for sigma, x in sorted(candidates, key=lambda sx: sx[0]):
        if points and sigma - points[-1].sigma <= 1e-9 * (1.0 + sigma):
            continue
        inertia = arrow.inertia(sigma)
        if inertia[1] == 0:  # in the zero band at a pole: no point to recover
            points.append(build_critical_point(
                p, sigma, arrow.x(sigma) if x is None else x, inertia))
    return _KKTPoints(points, p, arrow, cells, unit, c_unit)


# ---------------------------------------------------------------------------
# singular boundary (hard case)


def _pseudo_solve(p: ProblemInstance, sigma_sing: float,
                  tol: float) -> tuple[np.ndarray, np.ndarray, Factorization]:
    """Minimum-norm solution of G(sigma_sing) x = c, a null-space basis, and
    the factorization of G(sigma_sing) they come from, all read on the
    problem in natural units (the basis and the factorization are its own).

    The dual's limit value at the singular shift is ``-0.5 * c' x``.  Raises
    HardCaseError unless G is singular there (under the zero band of
    ``factorize``) and c is orthogonal (within tol*(1+||c||)) to its null
    space.
    """
    q, s, t = natural_units(p)
    x, U0, f = _natural_pseudo_solve(q, sigma_sing / s, tol)
    return x * (t / s), U0, f


def _natural_pseudo_solve(q: ProblemInstance, sigma_sing: float,
                          tol: float) -> tuple[np.ndarray, np.ndarray, Factorization]:
    """``_pseudo_solve`` on a problem already in natural units."""
    f = factorize(shifted_hessian(q, sigma_sing))
    if not f.singular:
        raise HardCaseError(
            f"G(sigma) is not singular at sigma={sigma_sing!r} (no null space found)"
        )
    U0, U1 = f.U[:, f.null], f.U[:, ~f.null]
    c0 = U0.T @ q.c
    if math.sqrt(float(c0 @ c0)) > tol * (1.0 + math.sqrt(float(q.c @ q.c))):
        raise HardCaseError(
            "c has a component in the null space of G(sigma); the dual supremum "
            "is not attained"
        )
    return U1 @ ((U1.T @ q.c) / f.w[~f.null]), U0, f


def hard_case_solve(
    p: ProblemInstance,
    sigma_sing: float,
    tol: float = DEFAULT_TOL_KKT,
    natural: tuple[ProblemInstance, float, float] | None = None,
) -> CriticalPoint:
    """Boundary solution when the dual supremum sits at a singular shift.

    Requires c orthogonal (within tol*(1+||c||)) to the null space of
    G(sigma_sing); the pseudo-solution is then completed with a null-space
    step chosen so the result lies exactly on the cone boundary, mirroring
    the trust-region hard case.  It runs on the problem in natural units:
    ``natural`` is ``model.natural_units(p)`` where the caller has it.
    """
    q, s, t = natural or natural_units(p)
    x_p, U0, f = _natural_pseudo_solve(q, sigma_sing / s, tol)

    # Deterministic null direction: maximize the first component.
    first_row = U0[0, :]
    norm = math.sqrt(float(first_row @ first_row))
    if norm > 1e-12:
        v = U0 @ (first_row / norm)
    else:
        v = U0[:, 0]

    # cone_quadratic(x_p + tau v) is quadratic in tau.
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

    admissible = [tau for tau in candidates
                  if math.isfinite(tau) and positive_nappe(x_p + tau * v)]
    if not admissible:
        raise HardCaseError(
            "no boundary point with x[0] >= 0 along the null direction; the dual "
            "supremum is not attained"
        )
    tau = min(admissible, key=abs)
    point = build_critical_point(q, sigma_sing / s, x_p + tau * v, f.inertia,
                                 certificate=CERT_HARD)
    return point if q is p else point.scaled(s, t)

"""One-dimensional dual of the cone-constrained quadratic.

The dual function ``d(sigma) = -0.5 * c' G(sigma)^{-1} c`` with
``G(sigma) = Q + sigma*L``, ``L = diag(-1,1,...,1)``, is concave wherever G is
positive definite, and its derivative at sigma equals
``cone_quadratic(x(sigma))`` for the recovered point
``x(sigma) = G(sigma)^{-1} c``.  Interior roots of the derivative are dual
KKT points; they map one-to-one onto stationary points of the primal with
``primal value == dual value``.

Everything here reads the pencil G(sigma) from one ``arrowhead.Pencil``
per problem, built at the entry point and passed down.  The poles cut
[0, inf) into cells of constant inertia, and only the top cell can be
positive definite (``pd_interval``).  The multipliers are the roots of the
secular form of the derivative (``pontryagin``, ``enumerate_kkt``); the
dual maximum is the multiplier inside the window, or the hard case.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .arrowhead import Pencil
from .linalg import SingularMatrixError
from .model import (
    ProblemInstance,
    cone_quadratic,
    lorentz_signs,
    primal_objective,
    shifted_hessian,
)
from .pontryagin import EPS, secular_form

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
        """This point of the problem (s*Q, t*c): sigma*s, x*t/s, values*t^2/s
        (the point itself for s = t = 1)."""
        if s == t == 1.0:
            return self
        v = t / s * t
        return CriticalPoint(self.sigma * s, self.x * (t / s), self.dual_value * v,
                             self.primal_value * v, self.inertia, self.certificate, self.nappe_ok)


# ---------------------------------------------------------------------------
# dual function and derivative


def recover_primal(p: ProblemInstance, sigma: float) -> np.ndarray:
    """Solve the stationarity system G(sigma) x = c by the arrowhead
    (``Pencil.x``); SingularMatrixError where its inertia has a zero."""
    pencil = Pencil(p)
    if pencil.inertia(sigma)[1] > 0:
        raise SingularMatrixError(f"G(sigma) is singular at sigma={sigma!r}", sigma=sigma)
    return pencil.x(sigma)


def dual_value(p: ProblemInstance, sigma: float) -> float:
    """-0.5 * c' G(sigma)^{-1} c.  Raises SingularMatrixError at singular shifts."""
    return -0.5 * float(p.c @ recover_primal(p, sigma))


def dual_derivative(p: ProblemInstance, sigma: float) -> float:
    """Derivative of the dual: cone_quadratic of the recovered point."""
    return cone_quadratic(recover_primal(p, sigma))


# ---------------------------------------------------------------------------
# positive-definite window


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
    nu_i + sigma and of the Schur complement f) under the zero band
    ``TOL_EIG``: a bare sign test of f can pass at the singular PSD matrix
    at the center of the sliver that a defective pole splits into.
    """
    return _pd_window(Pencil(p))[0]


def _pd_window(pencil: Pencil) -> tuple[DualInterval | None, float | None]:
    """``pd_interval`` of the pencil and the window's midpoint in natural
    units, where the window was decided (None, None without a window)."""
    arrow, s = pencil.arrow, pencil.s
    breaks, zero_singular = arrow.cells
    if len(breaks) < 2 or breaks[-2] >= arrow.alpha:
        return None, None
    lo, hi = breaks[-2], breaks[-1]
    mid = 0.5 * (lo + hi)
    if arrow.inertia(mid)[0] < arrow.n:
        return None, None
    window = DualInterval(lo=s * lo, hi=s * hi, lo_singular=len(breaks) > 2 or zero_singular,
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
    pencil = Pencil(p)
    point, _ = _maximize_with_notes(pencil, enumerate_kkt(pencil), DEFAULT_TOL_KKT)
    return point


def _maximize_with_notes(pencil: Pencil, points: list[CriticalPoint],
                         tol: float) -> tuple[CriticalPoint | None, list[str]]:
    """Select the dual maximum from the enumerated multipliers.

    The dual is concave on the window, so at most one multiplier lies in it:
    the one where G(sigma) is positive definite (uncertified if it recovers
    a mirror-nappe point).  Only without one are the window's ends needed:
    the derivative keeps its sign across the window, and positive means the
    supremum sits at the singular upper end (hard case).  The window, the
    sign of the derivative at the midpoint that decided it and the hard case
    all come from ``pencil``, the one the points were enumerated from, whose
    poles the enumeration has already computed.
    """
    inside = [cp for cp in points if cp.inertia == (pencil.p.n, 0, 0)]
    if inside:
        return inside[0], []

    interval, mid = _pd_window(pencil)
    if interval is None:
        return None, ["no positive-definite dual window; certificate unavailable"]
    if pencil.arrow.g(mid) > 0.0:
        try:
            point = hard_case_solve(pencil, interval.hi, tol=tol)
        except HardCaseError as exc:
            return None, [f"hard case without boundary solution: {exc}; no certificate, see oracle"]
        return point, ["dual supremum attained only at the singular boundary (hard case)"]
    return None, [
        "dual is decreasing across the positive-definite window; "
        "no certified maximum inside it"
    ]


# ---------------------------------------------------------------------------
# full KKT enumeration


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


def enumerate_kkt(p: ProblemInstance | Pencil,
                  tol: float = DEFAULT_TOL_KKT) -> list[CriticalPoint]:
    """All dual KKT points sigma >= 0, classified by inertia.

    The pencil's arrowhead gives the poles and the secular form of g
    (``pontryagin.SecularForm``), whose roots are Newton-polished on g in
    O(n) per step, and x and the inertia at each root in O(n) too (next to
    a nearly defective pole in extended precision); there is no search
    range and no sampling.  A candidate is kept when it passes the
    KKT gate ``_is_multiplier``; survivors within 1e-9 relative are merged.
    sigma = 0 is admitted under the same gate with x'Lx <= 0 in place of
    x'Lx = 0, since complementarity holds there identically.  Each point
    reports the x the gate accepted.  All of it runs on the problem in
    natural units (``Pencil.q``), and the points are mapped back.  ``p`` is
    a problem or its ``Pencil``.
    """
    pencil = p if isinstance(p, Pencil) else Pencil(p)
    p, arrow = pencil.q, pencil.arrow
    breaks, zero_singular = arrow.cells
    if float(np.abs(p.c).max()) == 0.0:
        # Degenerate dual: x(sigma) = 0 for every nonsingular shift.  Report
        # the single stationary point at the cone vertex.
        sigma0 = 0.5 * (breaks[1] if len(breaks) > 1 else 1.0) if zero_singular else 0.0
        point = build_critical_point(p, sigma0, np.zeros(p.n), arrow.inertia(sigma0))
        return [point.scaled(pencil.s, pencil.t)]

    c_norm = math.sqrt(float(p.c @ p.c))
    units = (float(np.abs(p.Q).max()) or 1.0, c_norm)
    form = secular_form(arrow, tol)
    if form.vanishes:
        candidates = [(s, None) for s in _family_representatives(breaks, zero_singular)]
    else:
        u = p.c / c_norm
        sigmas = [form.polish(float(s)) for s in form.roots(abs(cone_quadratic(u)) <= p.n * EPS)]
        # x advanced by the Newton step on g, in extended precision at a block
        recovered = [arrow.newton_point(s, form.block is not None) for s in sigmas]
        candidates = [(s, x) for s, x in recovered if s > 0.0 and np.isfinite(x).all()
                      and _is_multiplier(p, x, s, tol, units)]
    if not zero_singular:
        # A nearly defective pole at 0 is one cluster at its center, which
        # the cells read as a pole at 0; any other singular Q is left to the
        # inertia filter below.
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
    return [cp.scaled(pencil.s, pencil.t) for cp in points]


# ---------------------------------------------------------------------------
# singular boundary (hard case)


def _require_null_space(pencil: Pencil, sigma: float, Z: np.ndarray,
                        inertia: tuple[int, int, int], tol: float):
    """Raise HardCaseError unless G(sigma), of inertia ``inertia``, is
    singular with a null vector per zero of it (the columns of Z, from a
    pseudo-solve) and c is orthogonal to them within tol*(1+||c||)."""
    if inertia[1] == 0 or Z.shape[1] != inertia[1]:
        raise HardCaseError(f"G(sigma) at sigma={sigma!r} has {inertia[1]} null "
                            f"directions and {Z.shape[1]} null vectors (no null space found)")
    c = pencil.q.c
    c0 = Z.T @ c
    if math.sqrt(float(c0 @ c0)) > tol * (1.0 + math.sqrt(float(c @ c))):
        raise HardCaseError("c has a component in the null space of G(sigma); the dual "
                            "supremum is not attained")


def hard_case_solve(p: ProblemInstance | Pencil, sigma_sing: float,
                    tol: float = DEFAULT_TOL_KKT) -> CriticalPoint:
    """Boundary solution when the dual supremum sits at a singular shift.

    Requires c orthogonal (within tol*(1+||c||)) to the null space of
    G(sigma_sing); the pseudo-solution is then completed with a null-space
    step chosen so the result lies exactly on the cone boundary, mirroring
    the trust-region hard case.  It runs on the problem in natural units,
    ``Pencil.q`` and its arrowhead; ``p`` is a problem or its ``Pencil``.
    """
    pencil = p if isinstance(p, Pencil) else Pencil(p)
    q, s = pencil.q, pencil.s
    x_p, U0 = pencil.arrow.pseudo_solve(sigma_sing / s)
    inertia = pencil.inertia(sigma_sing)
    _require_null_space(pencil, sigma_sing, U0, inertia, tol)

    # Deterministic null direction: the largest first component (v of a root of f).
    v = U0[:, 0]

    # cone_quadratic(x_p + tau v) is quadratic in tau.
    signs = lorentz_signs(q.n)
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
    point = build_critical_point(q, sigma_sing / s, x_p + tau * v, inertia,
                                 certificate=CERT_HARD)
    return point.scaled(s, pencil.t)

"""Closed-form diagonal specialization of the dual.

For Q = diag(q) the shifted Hessian is diagonal, the dual collapses to the
secular function ``-0.5 * sum(c_i^2 / (q_i + sigma*s_i))`` with signature
``s = (-1, 1, ..., 1)``, and every quantity of the dense path has a
componentwise formula.  The KKT multipliers are the real roots of the
derivative's numerator polynomial, of degree at most 2(n-1).  This module
keeps its arithmetic independent of the dense linear-algebra route so the
two can cross-check each other.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .arrowhead import TOL_EIG
from .dual import (
    CERT_GLOBAL,
    CERT_KKT,
    DEFAULT_TOL_KKT,
    EPS,
    CriticalPoint,
    positive_nappe,
)
from .model import ProblemInstance, lorentz_signs, natural_scales
from .pontryagin import MAX_ITER, TOL_ROOT

__all__ = [
    "DiagonalInstance",
    "SecularPoleError",
    "secular_value",
    "secular_derivative",
    "secular_enumerate",
]


# Roots of the numerator with |imag| up to this, relative to 1 + |real|,
# are real: Newton and the KKT gate decide what a kept value is worth.
REALNESS_TOL = 1e-6
# The root finder cannot separate a root of g from a pole closer than this
# (relative); Newton then starts on each side of the pole.
POLE_RESOLUTION = 1e-7


class SecularPoleError(ZeroDivisionError):
    """A secular evaluation hit a pole of the diagonal dual."""

    def __init__(self, index: int, sigma: float):
        super().__init__(f"secular function pole hit at component {index}, sigma={sigma!r}")
        self.index = index
        self.sigma = sigma


@dataclass(frozen=True)
class DiagonalInstance:
    """Diagonal quadratic instance: Q = diag(q)."""

    q: np.ndarray
    c: np.ndarray
    name: str | None = None
    n: int = field(init=False)

    def __post_init__(self):
        q = np.array(self.q, dtype=float)
        c = np.array(self.c, dtype=float)
        if q.ndim != 1 or q.shape != c.shape:
            raise ValueError("q and c must be vectors of the same length")
        if q.shape[0] < 2:
            raise ValueError("dimension must be at least 2")
        q.setflags(write=False)
        c.setflags(write=False)
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "n", q.shape[0])

    def to_dense(self) -> ProblemInstance:
        return ProblemInstance(Q=np.diag(self.q), c=self.c, name=self.name)


def _denominators(d: DiagonalInstance, sigma: float) -> np.ndarray:
    den = d.q + sigma
    den[0] = d.q[0] - sigma
    return den


def _check_poles(d: DiagonalInstance, sigma: float, den: np.ndarray):
    bad = np.abs(den) <= 1e-12 * (1.0 + np.abs(d.q) + abs(sigma))
    if np.any(bad):
        raise SecularPoleError(int(np.argmax(bad)), sigma)


def secular_value(d: DiagonalInstance, sigma: float) -> float:
    """-0.5 * [c1^2/(q1 - sigma) + sum_{i>=2} c_i^2/(q_i + sigma)]."""
    den = _denominators(d, sigma)
    _check_poles(d, sigma, den)
    return -0.5 * float(np.sum(d.c**2 / den))


def secular_derivative(d: DiagonalInstance, sigma: float) -> float:
    """0.5 * [sum_{i>=2} c_i^2/(q_i + sigma)^2 - c1^2/(q1 - sigma)^2]."""
    den = _denominators(d, sigma)
    _check_poles(d, sigma, den)
    terms = d.c**2 / den**2
    return 0.5 * (float(np.sum(terms[1:])) - float(terms[0]))


def _poles(d: DiagonalInstance) -> list[float]:
    """Nonnegative singular shifts of diag(q) + sigma*diag(-1,1,...,1), merged."""
    raw = np.concatenate(([d.q[0]], -d.q[1:]))
    scale = 1.0 + float(np.abs(d.q).max())
    raw = raw[raw >= -1e-9 * scale]
    merged: list[float] = []
    for s in sorted(float(max(v, 0.0)) for v in raw):
        if merged and s - merged[-1] <= 1e-9 * (1.0 + s):
            continue
        merged.append(s)
    return merged


def _numerator(d: DiagonalInstance) -> np.ndarray:
    """Coefficients, highest first, of 2*g * prod_i (q_i + s_i*sigma)^2 as a
    polynomial in sigma.

    Only components with c_i != 0 contribute a pole, so the degree is at
    most 2(m-1) for m such components.  Terms that cancel to round-off (a
    critical family, g = 0 everywhere) give the zero polynomial.
    """
    signs = lorentz_signs(d.n)
    active = np.flatnonzero(d.c)
    roots = -signs[active] * d.q[active]  # (q_i + s_i*sigma)^2 = (sigma - root_i)^2
    terms = [signs[i] * d.c[i] ** 2 * np.atleast_1d(np.poly(np.repeat(np.delete(roots, k), 2)))
             for k, i in enumerate(active)]
    num = np.sum(terms, axis=0)
    size = max(float(np.abs(t).max()) for t in terms)
    return np.zeros(1) if float(np.abs(num).max()) <= 1e-12 * size else num


def _polish(d: DiagonalInstance, sigma: float, pole: float) -> tuple[float, np.ndarray | None]:
    """Newton on (sigma - pole)^2 times the secular derivative, with the
    dense path's stopping rules: the iterate with the smallest
    |x'Lx| / ||x||^2, and its x at the last Newton step on g, sigma - g/g'
    (x as it is where g' = 0); a flat (sigma - pole)^2 g ends the polish.

    That step is below the rounding of sigma at a converged root, so x is
    read from the shifted denominators ``q_i + s_i (sigma - g/g')``, each
    correctly rounded, rather than from a first-order update of x: next to
    two close poles x is large and its x'Lx cancels, and the update's own
    rounding can push x'Lx past the gate (the root between the poles
    1.04903 and 1.04968 of ``gen_instance("diagonal", 5, 1462066297)``)."""
    c2 = d.c**2
    best_s, best_x, best_r = sigma, None, math.inf
    last, converged = math.inf, False
    for _ in range(MAX_ITER):
        den = _denominators(d, sigma)
        try:
            _check_poles(d, sigma, den)
        except SecularPoleError:
            break
        x = d.c / den
        terms = c2 / den**2  # as in secular_derivative
        g = 0.5 * (float(np.sum(terms[1:])) - float(terms[0]))
        r = abs(2.0 * g / float(x @ x))
        if not r < best_r:
            break
        gp = -float(np.sum(c2 / den**3))  # the secular dual's second derivative
        best_s, best_r = sigma, r
        best_x = x
        if gp != 0.0:  # x_i = 0 where c_i = 0, as in x
            best_x = np.divide(d.c, den - (g / gp) * lorentz_signs(d.n),
                               out=np.zeros(d.n), where=d.c != 0.0)
        h_slope = gp + 2.0 * g / (sigma - pole)
        if converged or h_slope == 0.0:
            break
        step = g / h_slope
        if not abs(step) < last:
            break
        sigma -= step
        last = abs(step)
        converged = last <= TOL_ROOT * min(1.0 + abs(sigma), abs(sigma - pole))
    return best_s, best_x


def _is_multiplier(d: DiagonalInstance, x: np.ndarray, sigma: float, tol: float) -> bool:
    """The dense path's KKT gate: |x'Lx| <= tol*||x||^2, and every KKT
    residual of the instance scaled to max|q| = ||c|| = 1, with the round-off
    bound eps*||x||^2 of x'Lx, within tol (x'Lx <= 0 only at sigma = 0)."""
    s_unit = float(np.abs(d.q).max()) or 1.0
    c_norm = math.sqrt(float(d.c @ d.c))
    stationarity = float(np.abs(_denominators(d, sigma) * x - d.c).max()) / c_norm
    x = x * (s_unit / c_norm)
    q = 0.5 * (float(x[1:] @ x[1:]) - float(x[0]) ** 2)
    r = abs(q) if sigma > 0.0 else q
    xx = float(x @ x)
    scaled = (r + EPS * xx) * max(1.0, sigma / s_unit)
    return r <= 0.5 * tol * xx and max(scaled, stationarity) <= tol


def _starts(sigma: float, poles: list[float], spread: float = 0.0) -> list[tuple[float, float]]:
    """Newton starts (sigma, pole to deflate): one on each side of a pole
    that the root, or a complex root of imaginary part ``spread``, lies too
    close to for the polynomial root finder; none for a complex one else."""
    for s in poles:
        gap = POLE_RESOLUTION * (1.0 + s)
        if abs(sigma - s) <= max(gap, spread):
            return [(s - gap, s), (s + gap, s)]
    return [] if spread else [(sigma, math.inf)]


def _point(d: DiagonalInstance, sigma: float, x: np.ndarray | None = None) -> CriticalPoint:
    den = _denominators(d, sigma)
    if x is None:
        x = d.c / den
    band = TOL_EIG * max(1.0, float(np.abs(den).max()))
    n_zero = int(np.sum(np.abs(den) <= band))
    n_pos = int(np.sum(den > band))
    inertia = (n_pos, n_zero, d.n - n_zero - n_pos)
    nappe_ok = positive_nappe(x)
    certificate = CERT_GLOBAL if (inertia == (d.n, 0, 0) and nappe_ok) else CERT_KKT
    dual = -0.5 * float(np.sum(d.c * x))
    primal = 0.5 * float(np.sum(d.q * x * x)) - float(np.sum(d.c * x))
    return CriticalPoint(
        sigma=float(sigma), x=x, dual_value=dual, primal_value=primal,
        inertia=inertia, certificate=certificate, nappe_ok=nappe_ok,
    )


def secular_enumerate(
    d: DiagonalInstance,
    tol: float = DEFAULT_TOL_KKT,
) -> list[CriticalPoint]:
    """All dual KKT points of the diagonal instance, in closed form.

    The candidates are the real positive roots of the derivative's numerator
    polynomial; each is Newton-polished on the secular derivative and kept
    under the dense path's acceptance rules (relative gate
    |x'Lx| <= tol*||x||^2 plus scaled KKT residuals within tol, 1e-9
    relative merging, sigma = 0 admitted with x'Lx <= 0 in place of
    x'Lx = 0, and a root in the zero band ``TOL_EIG`` at a pole, where no
    point can be recovered, dropped).  When the derivative vanishes
    identically (its numerator cancels) every sigma is critical, and one per
    pole cell is reported.  All of it runs on the instance in natural units
    (``model.natural_scales``), and the points are mapped back.
    """
    unit, c_unit = natural_scales(d.q, d.c)
    if unit != 1.0 or c_unit != 1.0:
        d = DiagonalInstance(q=d.q / unit, c=d.c / c_unit, name=d.name)
    poles = _poles(d)
    zero_singular = bool(poles) and poles[0] <= 1e-12
    if float(np.abs(d.c).max()) == 0.0:
        sigma0 = 0.0
        if zero_singular:
            first = min((s for s in poles if s > 1e-12), default=1.0)
            sigma0 = 0.5 * first
        return [_point(d, sigma0).scaled(unit, c_unit)]

    num = _numerator(d)
    candidates: list[tuple[float, np.ndarray | None]] = []
    if not np.any(num):
        # Critical family: cell midpoints as on the dense path, the last
        # cell's at 2*top + 1, the first cell's at sigma = 0 (admitted below).
        breaks = [0.0] + (poles[1:] if zero_singular else poles)
        sigmas = [0.5 * (a + b) for a, b in zip(breaks, breaks[1:] + [3.0 * breaks[-1] + 2.0])]
        candidates = [(s, None) for s in (sigmas if zero_singular else sigmas[1:])]
    roots = np.roots(num)
    near_real = np.abs(roots.imag) <= REALNESS_TOL * (1.0 + np.abs(roots.real))
    real = roots[near_real].real
    starts = {st for root in real[real > 0.0] for st in _starts(float(root), poles)}
    # a complex root within its imaginary part of a pole may be two real
    # roots about |c_i| either side of it, which the root finder merged
    starts |= {st for z in roots[~near_real] for st in _starts(z.real, poles, abs(z.imag))}
    for start, pole in starts:
        sigma, x = _polish(d, start, pole)
        if sigma > 0.0 and x is not None and _is_multiplier(d, x, sigma, tol):
            candidates.append((sigma, x))
    if not zero_singular:
        x = d.c / _denominators(d, 0.0)
        if _is_multiplier(d, x, 0.0, tol):
            candidates.append((0.0, x))

    points: list[CriticalPoint] = []
    for sigma, x in sorted(candidates, key=lambda sx: sx[0]):
        if points and sigma - points[-1].sigma <= 1e-9 * (1.0 + sigma):
            continue
        cp = _point(d, sigma, x)
        if cp.inertia[1] == 0:  # in the zero band at a pole: no point to recover
            points.append(cp)
    return [cp.scaled(unit, c_unit) for cp in points]

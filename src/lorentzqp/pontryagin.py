"""Secular form of the dual derivative from the poles of the arrowhead.

With ``G(sigma) = Q + sigma*L = L (LQ + sigma*I)`` and L = diag(-1,1,...,1),
LQ is self-adjoint for the indefinite inner product x'Ly, which has one
negative square (a Pontryagin space; Gohberg, Lancaster and Rodman,
*Indefinite Linear Algebra and Applications*, 2005).  The null vectors of
G at its poles are L-orthogonal, so the poles of ``arrowhead.Arrowhead``,
with the type ``f'(p)`` and ``v'c = N(p)`` of each null vector, give the
derivative g in secular form (``SecularForm``).  After a change of
variable g is convex on each cell between poles, so a cell holds at most
two roots; a closed-form bound rules most cells out and Newton runs from
the ends of the rest, nearly linear next to a pole as in Moré and
Sorensen's trust-region Newton (SIAM J. Sci. Stat. Comput. 4, 1983).
``secular_form`` returns None where a pole is nearly defective, and
``dual.enumerate_kkt`` falls back to its companion eigensolve there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .arrowhead import EPS, ZERO_POLE_TOL, Arrowhead

__all__ = ["SecularForm", "secular_form"]

# |v'Lv| of a unit null vector v of G at a pole (an eigenvector of LQ) is
# the reciprocal of the pole's condition number.  At or below this bound the
# pole is defective or nearly so (a light-like null vector), the secular
# form is not trusted, and the multipliers come from the companion
# eigensolve instead.
_TYPE_TOL = 1e-6
# Real poles within this many times the largest |pole| of each other are
# one pole.
_CLUSTER_TOL = 1e-9
# Every Newton polish of a multiplier (here, in ``dual`` and in ``secular``)
# stops at a step below TOL_ROOT*min(1+sigma, distance to the nearest pole)
# or one that stops shrinking; no Newton run takes more than MAX_ITER steps.
TOL_ROOT = 1e-10
MAX_ITER = 200


@dataclass(frozen=True)
class SecularForm:
    """``g(sigma) = 0.5 * sum_i beta_i / (lam_i + sigma)^2``, a complex pair
    entering as ``Re(beta_c / (lam_c + sigma)^2)`` (half of its 2 Re).

    With ``LQ v_i = lam_i v_i``, ``G(sigma) v_i = (lam_i + sigma) L v_i``, and
    eigenvectors of distinct eigenvalues are L-orthogonal, so
    ``V' G(sigma) V = diag(eta_i (lam_i + sigma))`` with the types
    ``eta_i = v_i' L v_i`` and ``beta_i = (v_i' c)^2 / eta_i`` (scale-free in
    v_i).  L has one negative square: the spectrum is real with one negative
    type, or has one complex pair and all real types positive.  ``lam`` holds
    the distinct real eigenvalues with nonzero weight, merged within
    _CLUSTER_TOL; ``pair`` is the eigenvalue of the pair with positive
    imaginary part, 0 for a real spectrum.  ``vanishes`` marks g = 0 for
    every sigma: the weights, which can cancel only within a repeated
    eigenvalue, sum in magnitude to at most tol times the magnitudes of
    their terms.
    """

    lam: np.ndarray
    beta: np.ndarray
    pair: complex
    pair_beta: complex
    vanishes: bool

    def g_and_slope(self, sigma: float) -> tuple[float, float]:
        """g and g' at sigma, in O(n)."""
        r = 1.0 / (self.lam + sigma)
        w = self.beta * r * r
        g, gp = 0.5 * float(w.sum()), -float((w * r).sum())
        if self.pair:
            rc = 1.0 / (self.pair + sigma)
            wc = self.pair_beta * rc * rc
            g, gp = g + wc.real, gp - 2.0 * (wc * rc).real
        return g, gp

    def polish(self, sigma: float) -> float:
        """Newton on g from an isolated root, until a step falls below
        TOL_ROOT*min(1+sigma, distance to the nearest pole) or stops
        shrinking.  A first step longer than half that distance is not
        taken: the start is already exact to rounding in its own variable.
        A start exactly at a pole, where g is not finite, is returned as it
        is, silently."""
        last = math.inf
        with np.errstate(all="ignore"):
            for _ in range(MAX_ITER):
                g, gp = self.g_and_slope(sigma)
                dist = float(np.abs(self.lam + sigma).min(initial=math.inf))
                step = g / gp if gp != 0.0 else math.inf
                if not abs(step) < min(last, 0.5 * dist):
                    break
                sigma -= step
                last = abs(step)
                if last <= TOL_ROOT * min(1.0 + abs(sigma), dist):
                    break
        return sigma

    def roots(self, light_like: bool) -> np.ndarray:
        """Every root sigma > 0 of g, isolated exactly (see ``_real_roots``
        and ``_pair_roots``); the root at sigma = inf of a light-like c is
        left out."""
        top = max(float(np.abs(self.lam).max(initial=0.0)), abs(self.pair))
        floor = -ZERO_POLE_TOL * (1.0 + top)
        with np.errstate(all="ignore"):
            if self.pair:
                if self.pair_beta == 0.0:
                    return np.zeros(0)  # g > 0
                return _pair_roots(self.lam, self.beta, self.pair, self.pair_beta, floor,
                                   light_like)
            k = (self.beta < 0.0).nonzero()[0]
            if k.size == 0:
                return np.zeros(0)  # g > 0
            return _real_roots(self.lam, self.beta, int(k[0]), floor, light_like)


def secular_form(arrow: Arrowhead, tol: float) -> SecularForm | None:
    """The secular form from the poles of the arrowhead, or None when a pole
    is nearly defective (|eta| <= _TYPE_TOL for a unit null vector) or the
    types break the one-negative-square structure.

    A root p of the arrowhead's f has the null vector ``v = (1, -d/(nu+p))``
    (rotated coordinates), with ``eta = v'Lv = f'(p)`` and ``v'c = N(p)``; a
    decoupled coordinate j has ``v = e_j``, ``eta = 1`` and ``v'c = c_j``.
    Null vectors of distinct poles are L-orthogonal, and so are those of a
    root of f and a decoupled pole that coincide, so a repeated pole sums
    its weights.
    """
    roots, eta, vc, vv = arrow.roots, arrow.eta, arrow.vc, arrow.vv
    pair, pair_beta, sizes = 0j, 0j, 0.0
    if roots.dtype.kind == "c":  # a complex pair; the other roots are real
        j = int(roots.imag.argmin())  # lam = -root has positive imaginary part
        if abs(eta[j]) <= _TYPE_TOL * vv[j].real:
            return None
        pair, pair_beta = complex(-roots[j]), complex(vc[j] * vc[j] / eta[j])
        sizes = 2.0 * abs(pair_beta)
        real = roots.imag == 0.0
        roots, eta, vc, vv = roots[real].real, eta[real].real, vc[real].real, vv[real].real
    if eta.size and float((np.abs(eta) / vv).min()) <= _TYPE_TOL:
        return None
    if np.count_nonzero(eta < 0.0) != (0 if pair else 1):
        return None
    lam = np.concatenate([-roots, arrow.free_nu])
    beta = np.concatenate([vc * vc / eta, arrow.free_c ** 2])
    size = np.abs(beta).tolist()
    sizes += sum(size)
    ordered = sorted(lam.tolist())
    gap = _CLUSTER_TOL * max(map(abs, ordered[:1] + ordered[-1:]), default=0.0)
    if any(b - a <= gap for a, b in zip(ordered, ordered[1:])):
        order = np.argsort(lam)
        lam, beta = lam[order], beta[order]
        first = np.flatnonzero(np.diff(lam, prepend=-np.inf) > gap)
        counts = np.diff(first, append=lam.size)
        lam = np.add.reduceat(lam, first) / counts
        beta = np.add.reduceat(beta, first)
        size = np.abs(beta).tolist()
    vanishes = sum(size) + 2.0 * abs(pair_beta) <= tol * sizes
    keep = beta != 0.0
    return SecularForm(lam[keep], beta[keep], pair, pair_beta, vanishes)


def _descend(F, u: float, inward: float, far: float, sure: bool) -> float:
    """Newton on a convex F from u with F(u) >= 0, heading ``inward`` (+-1)
    toward ``far``, the other end of its interval; the root reached, or nan.

    A convex function lies above its tangents, so from such a start the
    iterates approach the nearest root monotonically and never pass it.  A
    step pointing outward, or past ``far``, means there is no root ahead.
    Where F(u) >= 0 is known (``sure``: a first iterate from a pole, a zero
    of the cosine in ``_pair_roots``) it holds up to rounding; any other
    start needs F(u) >= 0.  F maps a point to (F, F', size), where size sums
    the magnitudes of F's terms: F within 8 eps * size of 0 is a root.
    """
    f, fp, size = F(u)
    if not ((sure or f >= 0.0) and (far - u) * inward > 0.0):
        return math.nan
    for _ in range(MAX_ITER):
        if f <= 8.0 * EPS * size:
            return u
        if fp == 0.0:  # the minimum of F, above 0
            return math.nan
        step = -f / fp
        nxt = u + step
        if not (step * inward > 0.0 and (far - nxt) * inward > 0.0):
            return math.nan
        if abs(step) <= 4.0 * EPS * abs(nxt):
            return nxt
        u = nxt
        f, fp, size = F(u)
    return math.nan


def _pole_bound(a: float, b: float, width: float) -> float:
    """min over (0, w) of a/u^2 + b/(w-u)^2, which is (a^(1/3)+b^(1/3))^3/w^2
    (0 for an unbounded interval).  w^2 is never formed: it underflows where
    the poles are large (w in t = 1/(sigma + lam_k) is then small)."""
    if width == math.inf:
        return 0.0
    top = (a ** (1.0 / 3.0) + b ** (1.0 / 3.0)) ** 3
    return top / width / width if width > 0.0 else math.inf


def _real_roots(lam: np.ndarray, beta: np.ndarray, k: int, floor: float,
                light_like: bool) -> np.ndarray:
    """Roots sigma > 0 of g for a real spectrum with its negative weight at k.

    With ``t = 1/(sigma + lam_k)``, ``2g = t^2 (psi(t) - |beta_k|)`` for
    ``psi(t) = sum_{i != k} beta_i / (1 + (lam_i - lam_k) t)^2``, a sum of
    convex terms: psi - |beta_k| is convex in t on each cell between poles
    (the pole of k itself maps to t = +-inf), so each cell holds at most two
    roots.  A cell is skipped when the closed-form minimum of its two
    bounding pole terms alone exceeds |beta_k|.  Otherwise Newton runs from
    each end on ``|beta_k|^(-1/2) - psi^(-1/2)``, also convex (psi^(-1/2) is
    a power mean of order -2 of the |1 + (lam_i - lam_k) t|, which are
    affine on a cell) and nearly linear next to a pole, as in Moré and
    Sorensen's trust-region Newton: from a pole, the first iterate is the
    root of that pole's term alone (every other term is positive, so it
    lies before the nearest root); from sigma = 0 or sigma = inf, the end
    itself.  Poles down to ``floor`` below sigma = 0 bound the first cell in
    its place.  For a light-like c, sigma = inf (t = 0) is a root: no start
    is made there, and a root of the last cell that F cannot tell from it
    is dropped (``_drop_infinity_images``).
    """
    lk, level = float(lam[k]), float(-beta[k])
    ell = level**-0.5
    d = np.concatenate((lam[:k], lam[k + 1:])) - lk
    b = np.concatenate((beta[:k], beta[k + 1:]))
    bd = b * d

    def F(u):  # |beta_k|^(-1/2) - psi^(-1/2)
        iX = 1.0 / (1.0 + u * d)
        iX2 = iX * iX
        r = (b @ iX2) ** -0.5  # a numpy float: inf where psi = 0
        return ell - r, -r**3 * (bd @ (iX2 * iX)), ell + r

    # sigma edges (sigma, t, A): psi's pole term is A / (t - t_i)^2; A = 0 at
    # sigma = 0 or inf, and A = None at the pole of k
    poles = -(d + lk)
    edges = sorted([(s, -1.0 / di, bi / di / di)
                    for s, di, bi in zip(poles.tolist(), d.tolist(), b.tolist()) if s >= floor]
                   + ([(-lk, math.inf, None)] if -lk >= floor else []))
    if not edges or edges[0][0] > 0.0:
        edges.insert(0, (0.0, 1.0 / lk, 0.0))
    edges.append((math.inf, 0.0, 0.0))
    starts, last = [], []  # (u, inward, far, sure) for ``_descend``; in the last cell
    for (sa, ta, Aa), (sb, tb, Ab) in zip(edges, edges[1:]):
        # t decreases with sigma: the cell is (t(sb), t(sa)) in t
        lo = -math.inf if Ab is None else tb
        hi = math.inf if Aa is None else ta
        if _pole_bound(Ab or 0.0, Aa or 0.0, hi - lo) > level:
            continue
        if Ab is not None and not (sb == math.inf and light_like):
            starts.append((lo + math.sqrt(Ab / level), 1.0, hi, Ab > 0.0))
            last.append(sb == math.inf)
        if Aa is not None:
            starts.append((hi - math.sqrt(Aa / level), -1.0, lo, Aa > 0.0))
            last.append(sb == math.inf)
    t = np.array([_descend(F, *start) for start in starts])
    if light_like:
        _drop_infinity_images(F, t, last)
    sigma = 1.0 / t[np.isfinite(t) & (t != 0.0)] - lk
    return sigma[sigma > 0.0]


def _drop_infinity_images(F, u: np.ndarray, last: list[bool]):
    """Set to nan, in place, each root u of the last cell that F cannot
    tell from the root u = 0 (sigma = inf) of a light-like c: F at u/2 is
    within 8 eps times its size of 0, as _descend reads a root.

    No pole lies between 0 and such a root, and F vanishes at both ends.
    Where g vanishes at infinity to second order, rounding of the weights
    splits that double root into u = 0 and a root of order sqrt(eps), whose
    recovered point passes every KKT test within tolerance.  F at u/2 then
    stays within rounding of 0, while between u = 0 and a genuine root F
    moves further from it.
    """
    for i in np.flatnonzero(last):
        if math.isfinite(u[i]):
            f, _, size = F(0.5 * float(u[i]))
            if abs(f) <= 8.0 * EPS * size:
                u[i] = math.nan


def _pair_roots(lam: np.ndarray, beta: np.ndarray, lam_c: complex, beta_c: complex,
                floor: float, light_like: bool) -> np.ndarray:
    """Roots sigma > 0 of g with one complex pair ``lam_c = a + i gamma``.

    With ``phi = arg(lam_c + sigma)`` in (0, pi), decreasing in sigma, and
    ``beta_c = |beta_c| e^(i theta)``, ``2g = (sin(phi)/gamma)^2 H(phi)`` for
    ``H = sum_i A_i / sin^2(phi - phi_i) + 2|beta_c| cos(theta - 2 phi)``,
    ``phi_i`` the angle at pole i and ``A_i = beta_i sin^2(phi_i) >= 0``.  A
    root needs cos(theta - 2 phi) < 0, where H is convex, so each cell, cut
    at the zeros of that cosine, holds at most two roots on each piece.  A
    cell is skipped when its bounding pole terms, through
    csc^2 u >= 1/u^2, exceed 2|beta_c|.  Newton on H runs from each end:
    from a pole, the first iterate is where that pole's term alone falls to
    2|beta_c| (no root lies closer to the pole); from any other end, the
    end itself.  Poles down to ``floor`` below sigma = 0 bound the first
    cell in its place; a light-like c is handled as in ``_real_roots``.
    """
    a, gamma = lam_c.real, lam_c.imag
    mag, theta = abs(beta_c), math.atan2(beta_c.imag, beta_c.real)
    phi_p = np.arctan2(gamma, a - lam)
    A = beta * np.sin(phi_p) ** 2

    def F(u):
        D = u - phi_p
        S = np.sin(D)
        T = A / (S * S)
        P = float(T.sum())
        return (P + 2.0 * mag * math.cos(theta - 2.0 * u),
                -2.0 * float(T @ (np.cos(D) / S)) + 4.0 * mag * math.sin(theta - 2.0 * u),
                P + 2.0 * mag)

    # phi edges (phi, A) from sigma = 0 to sigma = inf; A = 0 at the ends
    poles = -lam
    edges = sorted([(ph, Ai) for s, ph, Ai in zip(poles.tolist(), phi_p.tolist(), A.tolist())
                    if s >= floor], reverse=True)
    phi0 = math.atan2(gamma, a)
    if not edges or edges[0][0] < phi0:
        edges.insert(0, (phi0, 0.0))
    edges.append((0.0, -1.0 if light_like else 0.0))  # A < 0: no start
    z0 = (0.5 * theta - 0.25 * math.pi) % (0.5 * math.pi)
    zeros = (z0, z0 + 0.5 * math.pi)
    starts, last = [], []  # (u, inward, far, sure) for ``_descend``; in the last cell
    for (hi, Ahi), (lo, Alo) in zip(edges, edges[1:]):
        if _pole_bound(max(Alo, 0.0), Ahi, hi - lo) > 2.0 * mag:
            continue
        # cut at the zeros of the cosine, none within rounding of a cell edge
        cuts = [lo] + [z for z in zeros if lo + 1e-12 < z < hi - 1e-12] + [hi]
        for l, h in zip(cuts, cuts[1:]):
            if math.cos(theta - l - h) >= 0.0:
                continue
            for end, other, s in ((l, h, 1.0), (h, l, -1.0)):
                edge = end in (lo, hi)
                Ae = (Alo if end == lo else Ahi) if edge else 0.0
                if Ae < 0.0:
                    continue
                starts.append((end + s * math.sqrt(Ae / (2.0 * mag)), s, other,
                               Ae > 0.0 or not edge))
                last.append(lo == 0.0)
    phi = np.array([_descend(F, *start) for start in starts])
    if light_like:
        _drop_infinity_images(F, phi, last)
    phi = phi[np.isfinite(phi) & (phi > 0.0)]
    sigma = gamma / np.tan(phi) - a
    return sigma[sigma > 0.0]

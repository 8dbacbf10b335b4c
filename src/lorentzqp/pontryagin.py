"""Secular form of the dual derivative from the poles of the arrowhead.

With ``G(sigma) = Q + sigma*L = L (LQ + sigma*I)`` and L = diag(-1,1,...,1),
LQ is self-adjoint for the indefinite inner product x'Ly, which has one
negative square (a Pontryagin space; Gohberg, Lancaster and Rodman,
*Indefinite Linear Algebra and Applications*, 2005).  The null vectors of
G at its poles are L-orthogonal, so the poles of ``arrowhead.Arrowhead``,
with the type ``f'(p)`` and ``v'c = N(p)`` of each null vector, give the
derivative g in secular form (``SecularForm``); the arrowhead's nearly
defective cluster of roots of f, whose weights cancel, enters as one
rational term (``arrowhead.Block``).  After a change of variable g is convex on each cell between
poles, so a cell holds at most two roots; a closed-form bound rules most
cells out and Newton runs from the ends of the rest, nearly linear next to
a pole as in Moré and Sorensen's trust-region Newton (SIAM J. Sci. Stat.
Comput. 4, 1983).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .arrowhead import EPS, ZERO_POLE_TOL, Arrowhead, Block, _horner

__all__ = ["SecularForm", "secular_form"]

# Real poles within this many times the largest |pole| of each other are
# one pole.
_CLUSTER_TOL = 1e-9
# Every Newton polish of a multiplier (here and in ``secular``)
# stops at a step below TOL_ROOT*min(1+sigma, distance to the nearest pole)
# or one that stops shrinking; no Newton run takes more than MAX_ITER steps.
TOL_ROOT = 1e-10
MAX_ITER = 200


@dataclass(frozen=True)
class SecularForm:
    """``g(sigma) = 0.5 * sum_i beta_i / (lam_i + sigma)^2 + e(sigma)``, a
    complex pair entering as ``Re(beta_c / (lam_c + sigma)^2)``, e the term
    of a ``Block`` (0 without one).

    With ``LQ v_i = lam_i v_i``, ``G(sigma) v_i = (lam_i + sigma) L v_i``, and
    eigenvectors of distinct eigenvalues are L-orthogonal, so
    ``V' G(sigma) V = diag(eta_i (lam_i + sigma))`` with the types
    ``eta_i = v_i' L v_i`` and ``beta_i = (v_i' c)^2 / eta_i`` (scale-free in
    v_i).  L has one negative square: the spectrum is real with one negative
    type, or has one complex pair or one nearly defective cluster (``block``,
    the arrowhead's) and all other types positive.  ``lam`` holds the other
    distinct real eigenvalues with nonzero weight, merged within
    _CLUSTER_TOL; ``pair`` is the eigenvalue of the pair with positive
    imaginary part, else 0.
    ``vanishes`` marks g = 0 for every sigma: the weights, which can cancel
    only within a repeated eigenvalue, and the block's P sum in magnitude to
    at most tol times the magnitudes of their terms.  Poles down to
    ``floor``, the arrowhead's -ZERO_POLE_TOL * (1 + max|Q|), are poles at 0.
    """

    lam: np.ndarray
    beta: np.ndarray
    pair: complex
    pair_beta: complex
    vanishes: bool
    floor: float
    block: Block | None = None

    def g_and_slope(self, sigma: float) -> tuple[float, float]:
        """g and g' at sigma, in O(n)."""
        r = 1.0 / (self.lam + sigma)
        w = self.beta * r * r
        g, gp = 0.5 * float(w.sum()), -float((w * r).sum())
        if self.pair:
            rc = 1.0 / (self.pair + sigma)
            wc = self.pair_beta * rc * rc
            g, gp = g + wc.real, gp - 2.0 * (wc * rc).real
        if self.block is not None:  # e = 0.5 t^2 Phi(t), t = 1/(sigma - m)
            t = 1.0 / np.float64(sigma - self.block.m)
            Phi, dPhi = self.block.phi(t)
            g, gp = g + 0.5 * t * t * Phi, gp - 0.5 * t**3 * (2.0 * Phi + t * dPhi)
        return g, gp

    def polish(self, sigma: float) -> float:
        """Newton on g from an isolated root, until a step falls below
        TOL_ROOT*min(1+sigma, distance to the nearest pole) or stops
        shrinking.  A first step longer than half that distance is not
        taken: the start is already exact to rounding in its own variable.
        A start exactly at a pole, where g is not finite, is returned as it
        is, silently.  The block counts as a pole at its center."""
        last = math.inf
        center = math.inf if self.block is None else self.block.m
        with np.errstate(all="ignore"):
            for _ in range(MAX_ITER):
                g, gp = self.g_and_slope(sigma)
                dist = float(np.abs(self.lam + sigma).min(initial=abs(sigma - center)))
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
        block, floor = self.block, self.floor
        with np.errstate(all="ignore"):
            if block:  # with no level, e = 0 and g > 0
                return _real_roots(self.lam, self.beta, -block.m, block.level, floor,
                                   light_like, block) if block.level else np.zeros(0)
            if self.pair:
                if self.pair_beta == 0.0:
                    return np.zeros(0)  # g > 0
                return _pair_roots(self.lam, self.beta, self.pair, self.pair_beta, floor,
                                   light_like)
            k = (self.beta < 0.0).nonzero()[0]
            if k.size == 0:
                return np.zeros(0)  # g > 0
            k = int(k[0])
            return _real_roots(np.delete(self.lam, k), np.delete(self.beta, k),
                               float(self.lam[k]), (float(-self.beta[k]),), floor, light_like)


def secular_form(arrow: Arrowhead, tol: float) -> SecularForm:
    """The secular form from the poles of the arrowhead.

    A root p of the arrowhead's f has the null vector ``v = (1, -d/(nu+p))``
    (rotated coordinates), with ``eta = v'Lv = f'(p)`` and ``v'c = N(p)``; a
    decoupled coordinate j has ``v = e_j``, ``eta = 1`` and ``v'c = c_j``.
    Null vectors of distinct poles are L-orthogonal, and so are those of a
    root of f and a decoupled pole that coincide, so a repeated pole sums
    its weights.  The roots of the arrowhead's exceptional cluster
    (``Arrowhead.block``), the pair among them if any, form the block
    instead.
    """
    roots, eta, vc, block = arrow.roots, arrow.eta, arrow.vc, arrow.block
    pair, pair_beta, sizes, block_size = 0j, 0j, 0.0, 0.0
    paired = roots.imag != 0.0  # a complex pair; the other roots are real
    rest = ~paired
    if block is not None:
        rest, block_size, sizes = ~block.chain, sum(map(abs, block.S)), block.size
    elif paired.any():
        j = int(roots.imag.argmin())  # lam = -root has positive imaginary part
        pair, pair_beta = complex(-roots[j]), complex(vc[j] * vc[j] / eta[j])
        sizes = 2.0 * abs(pair_beta)
    roots, eta, vc = roots[rest].real, eta[rest].real, vc[rest].real
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
    vanishes = sum(size) + 2.0 * abs(pair_beta) + block_size <= tol * sizes
    keep = beta != 0.0
    return SecularForm(lam[keep], beta[keep], pair, pair_beta, vanishes,
                       -ZERO_POLE_TOL * arrow._scale, block)


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


def _real_roots(lam: np.ndarray, beta: np.ndarray, lk: float, level: tuple, floor: float,
                light_like: bool, block: Block | None = None) -> np.ndarray:
    """Roots sigma > 0 of g for a real spectrum: positive weights ``beta``
    at ``lam`` and one negative part anchored at the pole ``-lk``.

    With ``t = 1/(sigma + lk)``, ``2g = t^2 (psi(t) - ell(t))`` for
    ``psi(t) = sum_i beta_i / (1 + (lam_i - lk) t)^2``, a sum of convex
    terms, and the level ell: |beta_k| of a negative weight at lk (``level =
    (|beta_k|,)``), or -Phi of a ``block`` at -lk, concave at its Jordan
    limit ``level``.  The anchor maps to t = +-inf.  psi - ell is convex in
    t on each cell between poles, so a cell holds at most two roots.  A cell
    is skipped when the closed-form minimum of its two bounding pole terms
    alone exceeds a constant level.  Otherwise Newton runs from each end
    where psi >= ell: from a pole, where its term alone covers the level
    (``_clearance``; every other term is positive, so this lies before the
    nearest root); from sigma = 0 or inf, the end itself; toward a block's
    anchor, the outermost zero of ``level`` (a double zero is a root where
    psi is 0 to rounding).  It runs on psi - ell, or where ell > 0 on the
    convex ``ell^(-1/2) - psi^(-1/2)`` (psi^(-1/2) is a power mean of order
    -2 of affine terms), nearly linear next to a pole as in Moré and
    Sorensen's trust-region Newton.  Poles down to ``floor`` below sigma = 0
    bound the first cell in its place.  For a light-like c, sigma = inf
    (t = 0) is a root: no start is made there, and a root of the last cell
    that F cannot tell from it is dropped (``_drop_infinity_images``).
    """
    d = lam - lk
    b = beta
    bd = b * d
    ell = level[0] ** -0.5 if block is None else None
    sizes = tuple(abs(c) + block.size for c in level) if block else ()

    def F(u):  # ell^(-1/2) - psi^(-1/2)
        iX = 1.0 / (1.0 + u * d)
        iX2 = iX * iX
        r = (b @ iX2) ** -0.5  # a numpy float: inf where psi = 0
        if block is None:
            return ell - r, -r**3 * (bd @ (iX2 * iX)), ell + r
        Phi, dPhi = block.phi(u)
        e = (-Phi) ** -0.5 if Phi < 0.0 else math.nan
        return e - r, 0.5 * e**3 * dPhi - r**3 * (bd @ (iX2 * iX)), e + r

    def Psi(u):  # psi - ell, sized by the terms of ell's coefficients
        iX = 1.0 / (1.0 + u * d)
        iX2 = iX * iX
        psi = b @ iX2
        Phi, dPhi = block.phi(u)
        return psi + Phi, -2.0 * (bd @ (iX2 * iX)) + dPhi, psi + _horner(sizes, abs(u))[0]

    # sigma edges (sigma, t, A): psi's pole term is A / (t - t_i)^2; A = 0 at
    # sigma = 0 or inf, and A = None at the anchor
    poles = -(d + lk)
    edges = sorted([(s, -1.0 / di, bi / di / di)
                    for s, di, bi in zip(poles.tolist(), d.tolist(), b.tolist())
                    if s >= floor and di != 0.0]
                   + ([(-lk, math.inf, None)] if -lk >= floor else []))
    if not edges or edges[0][0] > 0.0:
        edges.insert(0, (0.0, 1.0 / lk, 0.0))
    edges.append((math.inf, 0.0, 0.0))
    zeros = _zeros(level)
    starts, last = [], []  # (u, inward, far, sure, F) for ``_descend``; in the last cell
    for (sa, ta, Aa), (sb, tb, Ab) in zip(edges, edges[1:]):
        # t decreases with sigma: the cell is (t(sb), t(sa)) in t
        lo = -math.inf if Ab is None else tb
        hi = math.inf if Aa is None else ta
        if _pole_bound(Ab or 0.0, Aa or 0.0, hi - lo) > (level[0] if block is None else math.inf):
            continue
        for A, end, inward, far, outer in ((Ab, lo, 1.0, hi, zeros[:1]),
                                           (Aa, hi, -1.0, lo, zeros[-1:])):
            if A is not None and not (inward > 0.0 and sb == math.inf and light_like):
                u = end + inward * _clearance(A, level, end, inward)
                ok = block is None or _horner(level, u)[0] > 0.0  # F needs ell > 0
                starts.append((u, inward, far, A > 0.0, F if ok else Psi))
            elif A is None and outer and (far - outer[0]) * inward > 0.0:
                z = outer[0]  # ell < 0 beyond it, toward the anchor
                if _horner(level, z - inward * (1.0 + abs(z)))[0] < 0.0:
                    starts.append((z, inward, far, True, Psi))
        last += [sb == math.inf] * (len(starts) - len(last))
    t = np.array([_descend(fn, u, inward, far, sure) for u, inward, far, sure, fn in starts])
    if light_like:  # psi - ell stays finite where psi = 0, and F does not
        _drop_infinity_images(F if block is None else Psi, t, last)
    sigma = 1.0 / t[np.isfinite(t) & (t != 0.0)] - lk
    return sigma[sigma > 0.0]


def _zeros(c: tuple) -> list[float]:
    """Real zeros of c (degree <= 2), ascending, a double one twice."""
    disc = c[1] * c[1] - 4.0 * c[2] * c[0] if len(c) == 3 else 0.0
    if len(c) < 3 or -disc > 8.0 * EPS * (c[1] * c[1] + abs(4.0 * c[2] * c[0])):
        return [-c[0] / c[1]] if len(c) == 2 else []
    q = -0.5 * (c[1] + math.copysign(math.sqrt(max(disc, 0.0)), c[1]))
    return sorted([q / c[2], c[0] / q]) if q != 0.0 else [0.0, 0.0]


def _clearance(A: float, level: tuple, end: float, inward: float) -> float:
    """A distance x from a pole end where its term A/x^2 alone covers the
    concave level's tangent a0 + a1 x there (a0 and a1 x by half each)."""
    a0, a1, _ = _horner(level, end)
    a1 *= inward
    if a1 <= 0.0:
        return math.sqrt(A / a0) if a0 > 0.0 else 0.0
    x = (A / (2.0 * a1)) ** (1.0 / 3.0)
    return min(x, math.sqrt(A / (2.0 * a0))) if a0 > 0.0 else x


def _drop_infinity_images(F, u: np.ndarray, last: list[bool]):
    """Set to nan, in place, each root u of the last cell that F cannot
    tell from the root u = 0 (sigma = inf) of a light-like c: F at u/2 is
    within 8 eps times its size of 0, as _descend reads a root.  Where g
    vanishes at infinity to second order, rounding splits that double root
    into u = 0 and a root of order sqrt(eps) whose point passes every KKT
    test; F at u/2 then stays within rounding of 0, while between u = 0 and
    a genuine root, with no pole between, F moves away from it."""
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

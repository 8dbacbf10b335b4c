"""Arrowhead form of the pencil G(sigma) = Q + sigma*L, L = diag(-1,1,...,1).

A rotation of the tail coordinates maps the cone onto itself and leaves L
unchanged.  Rotating the tail by the eigenvectors of the tail block,
``Q[1:,1:] = U diag(nu) U'``, turns G(sigma) into the arrowhead matrix

    [[alpha - sigma, d'], [d, diag(nu + sigma)]],   alpha = Q[0,0], d = U'Q[1:,0],

and c into (c0, U'c[1:]).  One symmetric ``eigh`` of size n-1 per problem
is then the only cubic-cost step; every quantity at a shift sigma costs
O(n) (the rotation back of a recovered point, one mat-vec, aside):

- ``det G = prod(nu_i + sigma) * f(sigma)`` with the secular function
  ``f(sigma) = alpha - sigma - sum d_i^2 / (nu_i + sigma)``, so the poles of
  the dual are the roots of f and the shifts -nu_i of decoupled coordinates;
- x(sigma) is one arrowhead solve, ``x0 = N / f`` with
  ``N = c0 - sum d_i c_i / (nu_i + sigma)`` and
  ``x_i = (c_i - d_i x0) / (nu_i + sigma)``;
- the inertia of G(sigma) is that of diag(nu + sigma) plus the sign of its
  Schur complement f (Haynsworth), and of G - t*I likewise, which places
  the eigenvalues of G against a zero band without computing them.

Deflation follows divide-and-conquer (Dongarra and Sorensen, SIAM J. Sci.
Stat. Comput. 8, 1987): a coordinate with d_i ~ 0 decouples, so -nu_i is a
pole with null vector e_i, and a repeated nu is rotated so that only one of
its coordinates carries d.  The remaining nu are distinct and every d_i is
nonzero, so f runs from -inf to +inf between consecutive poles -nu_i and
holds an odd number of roots there, as in the secular equation of Bunch,
Nielsen and Sorensen (Numer. Math. 31, 1978) and the arrowhead solvers of
O'Leary and Stewart (J. Comput. Phys. 90, 1990).  L has one negative square,
so beyond one root per such bracket f has exactly two more roots: a real
pair or a complex pair.  The bracket roots are found on
``F = (sigma - a)(b - sigma) f``, smooth at the poles a and b, with a
bisection safeguard: from _SWEEP_POLES coupled poles up by Euler steps (the
root of F's quadratic Taylor model) over all brackets at once from the
middle way's start (R.-C. Li, LAPACK Working Note 89), below it by Newton
steps per bracket on Python floats.  The other two roots come from f
deflated by the bracket roots, a quadratic, then Newton-polished.  Every
real root is held relative to its nearest pole, so that a root closer to a
pole than the rounding of sigma (a small coupling d_i puts it d_i^2 away)
keeps the weight of its null vector exact.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass

import numpy as np

from .model import ProblemInstance, cone_quadratic, lorentz_signs, natural_units

__all__ = ["Arrowhead"]

EPS = float(np.finfo(float).eps)
# The zero band: an eigenvalue of G with |lambda| <= TOL_EIG * max(1, ||G||_inf)
# is zero.  Every inertia and singularity test applies it to the problem in
# natural units (``model.natural_units``): ``Arrowhead.inertia`` and
# ``pseudo_solve``, ``secular._point`` and the reference ``linalg.factorize``.
TOL_EIG = 1e-10
# Singular shifts down to -ZERO_POLE_TOL * (1 + max|Q|) are poles at 0.
ZERO_POLE_TOL = 1e-9
# A root of f whose null vector v has |v'Lv| <= _CHAIN_TOL ||v||^2, the
# reciprocal of the pole's condition number, is nearly defective: it is
# part of the exceptional cluster (``Block``).
_CHAIN_TOL = 1e-6
# Taylor terms at the cluster's center: far more than its width needs.
_BLOCK_ORDER = 10
# Coupling entries d_i, and gaps between the nu_i, at most this many eps
# times the size of the arrowhead are deflated (LAPACK's dlaed2 uses 8).
DEFLATION = 8.0
# Candidate points, in units of the arrowhead's size around the center of
# the two roots beyond the brackets, for reading their deflated quadratic.
_OFFSETS = (0.0, 0.382, -0.382, 0.618, -0.618, 1.618, -1.618)
# A Newton or Euler step at most this relative to its iterate ends the
# iteration after it is taken: convergence is at least quadratic there, so
# the next step would be below rounding.
_LAST_STEP = 1e-9
_EMPTY = np.zeros(0)
# Newton steps on the bracket roots and in each polish of the other two.
_MAX_STEPS = 100
# From this many coupled poles up the roots of f come from array sweeps
# over all brackets and poles; below it, from Python floats per bracket
# (the two cost the same near 31 poles, 1 BLAS thread, numpy 2.4).
_SWEEP_POLES = 31
# The floating-point error state of each public evaluation, entered once per
# call as ``np.errstate(**_QUIET)`` (numpy 2 error states cannot be
# re-entered, so each ``with`` makes its own): at an exact pole the private
# helpers divide by zero, and the non-finite result says so.
_QUIET = {"divide": "ignore", "invalid": "ignore", "over": "ignore"}


class Arrowhead:
    """The rotated pencil of one problem, its poles and its per-shift solves.

    Attributes: ``alpha`` and ``c0``; over the tail coordinates ``nu``
    (ascending), ``d`` (exactly 0 where deflated), ``ct`` (rotated c) and
    the rotation ``U``; ``coupled``, the mask of the nonzero d_i, and
    ``free_nu`` and ``free_c``, nu and c over the other coordinates;
    ``roots``, every root of f (complex for a pair) with the type
    ``eta = f'(root)`` and ``vc = N(root)`` of its null vector
    ``v = (1, -d / (nu + root))`` and ``vv = ||v||^2``; ``block``, the
    exceptional cluster of nearly defective roots as one ``Block`` (None
    without one); ``poles``, the singular shifts sigma >= 0, sorted, with
    multiplicities; and ``cells``, the left ends ``[0, p1, p2, ...]`` of the
    cells between the merged poles and whether 0 is itself a pole.

    The roots (with eta, vc and vv), the block, the poles and the cells are
    computed on first access, as a per-shift solve needs none of them; they
    are deterministic, so threads that race to the first access only repeat
    work.
    """

    def __init__(self, p: ProblemInstance):
        Q, c = p.Q, p.c
        self.n = p.n
        self.alpha = float(Q[0, 0])
        self.c0 = float(c[0])
        nu, U = np.linalg.eigh(Q[1:, 1:])
        d = U.T @ Q[1:, 0]
        ct = U.T @ c[1:]
        self._size = max(abs(self.alpha), abs(float(nu[0])), abs(float(nu[-1])),
                         math.sqrt(float(d @ d)))
        tol = DEFLATION * EPS * self._size
        if nu.size > 1 and float((nu[1:] - nu[:-1]).min()) <= tol:
            _deflate_repeated(nu, d, ct, U, tol)
        d[np.abs(d) <= tol] = 0.0
        self.coupled = d != 0.0
        self.nu, self.d, self.ct, self.U = nu, d, ct, U
        self.free_nu = self.free_c = _EMPTY
        if self.coupled.all():
            self._k = None  # every tail coordinate coupled
            self._nuc, self._dc, ctc = nu, d, ct
        else:
            # c along a decoupled coordinate is 0 to rounding too: its pole
            # then carries no weight, as for c orthogonal to its null vector
            ct[~self.coupled & (np.abs(ct) <= DEFLATION * EPS * float(np.abs(c).max()))] = 0.0
            k = self._k = self.coupled.nonzero()[0]
            self._nuc, self._dc, ctc = nu[k], d[k], ct[k]
            self.free_nu, self.free_c = nu[~self.coupled], ct[~self.coupled]
        self._d2c = self._dc * self._dc
        # the zero band of the inertia reads ||G(sigma)||_inf from the
        # off-diagonal row sums of |Q| and the shifted diagonal
        absQ = np.abs(Q)
        self._diag = np.diagonal(Q)
        self._offdiag = absQ.sum(axis=1) - np.abs(self._diag)
        self._signs = lorentz_signs(p.n)
        self._scale = 1.0 + float(absQ.max())
        self._ctc = ctc
        self._real, self._wide = float, np.float64  # the solves' scalars; wide / 0 = inf

    def __getattr__(self, name: str):
        if name not in ("roots", "eta", "vc", "vv", "block", "poles", "cells"):
            raise AttributeError(name)
        with np.errstate(**_QUIET):
            if name == "block":
                self.block = self._cluster()
            elif name in ("poles", "cells"):
                poles = self._poles()
                self.poles, self.cells = poles, _pole_cells(poles)
            else:  # each is assigned only once complete
                self.roots, self.eta, self.vc, self.vv = self._roots(self._ctc)
        return self.__dict__[name]

    # -- per-shift quantities ------------------------------------------------

    def f(self, sigma: float, shift=0.0):
        """The Schur complement f of G(sigma) - shift*I, for one shift or an
        array of them."""
        with np.errstate(**_QUIET):
            t = (1.0 / (self._nuc + np.subtract(sigma, shift)[..., None])) @ self._d2c
        return self.alpha - sigma - shift - t

    def _pivot(self, sigma: float) -> tuple:
        """The elimination of ``_solve`` at sigma, shared by its solves.

        The row of the coupled coordinate j nearest to its pole is the
        pivot (O'Leary and Stewart): with the other coordinates eliminated,
        ``a = alpha - sigma - sum' d_i^2/delta_i`` and
        ``b = b0 - sum' d_i bt_i/delta_i``, the 2x2 system in (x0, x_j) has
        determinant ``D = d_j^2 - a delta_j = -delta_j f``, and neither of
        its solutions cancels as delta_j -> 0, where N/f and
        ``(bt_j - d_j x0)/delta_j`` do.
        """
        delta = self.nu + sigma
        if not self._d2c.size:
            return delta, None, None, self.alpha - sigma, None
        if self._k is None:
            j = int(np.abs(delta).argmin())
        else:
            j = int(self._k[np.abs(delta[self._k]).argmin()])
        r = self.d / delta
        r[j] = 0.0
        a = self.alpha - sigma - self._real(r @ self.d)
        dj = self._real(self.d[j])
        return delta, j, r, a, dj * dj - a * self._real(delta[j])

    def _solve(self, piv: tuple, b0: float, bt: np.ndarray) -> tuple[float, np.ndarray]:
        """G(sigma) (x0, xt) = (b0, bt) in rotated coordinates, for the
        elimination ``piv = self._pivot(sigma)``."""
        delta, j, r, a, D = piv
        real, wide = self._real, self._wide
        if j is None:
            return real(wide(b0) / a), bt / delta
        b = b0 - real(r @ bt)
        dj, ej, bj = real(self.d[j]), real(delta[j]), real(bt[j])
        x0 = real(wide(bj * dj - ej * b) / D)
        xt = (bt - self.d * x0) / delta
        xt[j] = wide(b * dj - a * bj) / D
        return x0, xt

    def _rotate_back(self, x0: float, xt: np.ndarray) -> np.ndarray:
        x = np.empty(self.n)
        x[0] = x0
        x[1:] = self.U @ xt
        return x

    def x(self, sigma: float) -> np.ndarray:
        """x(sigma) = G(sigma)^{-1} c; non-finite at an exact pole."""
        with np.errstate(**_QUIET):
            return self._rotate_back(*self._solve(self._pivot(sigma), self.c0, self.ct))

    def g(self, sigma: float) -> float:
        """The dual derivative g(sigma) = x'Lx / 2 at x = x(sigma)."""
        with np.errstate(**_QUIET):
            x0, xt = self._solve(self._pivot(sigma), self.c0, self.ct)
        return 0.5 * (float(xt @ xt) - x0 * x0)

    def newton_point(self, sigma: float, precise: bool = False) -> tuple[float, np.ndarray]:
        """sigma and x(sigma) advanced to first order by the Newton step on
        g, ``x + (g/g') y`` with ``y = G^{-1} L x = -dx/dsigma`` and
        ``g' = -(Lx)'y``; x itself where g' = 0.

        With ``precise`` (next to a nearly defective pole, where x'Lx cancels
        more digits than a double holds) the solves run in numpy.longdouble
        and sigma first takes Newton steps, as doubles, until they stop."""
        arrow, last = (self._extended() if precise else self), math.inf
        with np.errstate(**_QUIET):
            for _ in range(_MAX_STEPS):
                piv = arrow._pivot(sigma)
                x0, xt = arrow._solve(piv, arrow.c0, arrow.ct)
                y0, yt = arrow._solve(piv, -x0, xt)
                g = 0.5 * (arrow._real(xt @ xt) - x0 * x0)
                gp = x0 * y0 - arrow._real(xt @ yt)
                step = float(g / gp) if precise and gp != 0.0 else 0.0
                if not abs(step) < last or float(sigma - step) == sigma:
                    break
                sigma, last = float(sigma - step), abs(step)
            if gp != 0.0:
                x0, xt = x0 + (g / gp) * y0, xt + (g / gp) * yt
            return sigma, self._rotate_back(float(x0), np.asarray(xt, dtype=float))

    def _extended(self) -> Arrowhead:
        """A copy whose per-shift solves run in numpy.longdouble."""
        ext = copy.copy(self)
        ext._real = ext._wide = np.longdouble
        ext.nu, ext.d, ext.ct = (v.astype(np.longdouble) for v in (self.nu, self.d, self.ct))
        ext.alpha, ext.c0 = np.longdouble(self.alpha), np.longdouble(self.c0)
        return ext

    def taylor(self, z: float, order: int) -> tuple[np.ndarray, np.ndarray]:
        """Taylor coefficients at z, to u^order, of f(z + u) and of
        ``N(z + u) = c0 - sum d_i c_i / (nu_i + z + u)``."""
        powers = (1.0 / (self._nuc + z)) ** np.arange(1, order + 2)[:, None]
        alt = -(-1.0) ** np.arange(order + 1)  # of -w/(nu + z + u) at u^j
        f, N = alt * (powers @ self._d2c), alt * (powers @ (self._dc * self._ctc))
        f[0] += self.alpha - z
        f[1] -= 1.0
        N[0] += self.c0
        return f, N

    def _band(self, sigma: float) -> float:
        """The zero band ``TOL_EIG * max(1, ||G(sigma)||_inf)``."""
        norm = max((self._offdiag + np.abs(self._diag + sigma * self._signs)).tolist())
        return TOL_EIG * max(1.0, norm)

    def inertia(self, sigma: float) -> tuple[int, int, int]:
        """(n_pos, n_zero, n_neg) of G(sigma) under the zero band
        ``TOL_EIG * max(1, ||G(sigma)||_inf)``.

        G - t*I is again an arrowhead, so the number of eigenvalues of G
        below t is the number of nu_i + sigma below t plus one if
        f(sigma, t) < 0 (Haynsworth inertia additivity); at t = -band and
        t = +band this places every eigenvalue against the band, which is
        closed: an eigenvalue at -band or +band is zero.  nu is ascending,
        so the nu_i + sigma below -band and up to +band are counted by
        ``searchsorted``; a NaN bound (sigma NaN) counts none.
        """
        band = self._band(sigma)
        f_neg, f_pos = self.f(sigma, np.array([-band, band])).tolist()
        lo, hi = -band - sigma, band - sigma
        neg = (int(self.nu.searchsorted(lo)) if lo == lo else 0) + (f_neg < 0.0)
        nonpos = (int(self.nu.searchsorted(hi, "right")) if hi == hi else 0) + (f_pos <= 0.0)
        return self.n - nonpos, nonpos - neg, neg

    def min_eigenvalue(self, sigma: float) -> float:
        """The smallest decoupled nu_j + sigma or the root t of f(sigma, t)
        below the first coupled pole p, where f is concave and decreasing:
        Newton from the lower bound min eig [[alpha - sigma, ||d||], [||d||,
        p]], bisecting where a step leaves the bracket, and last where it is
        below _LAST_STEP of p - t (|f''/f'| <= 2/(p - t))."""
        free = float(self.free_nu[0]) + sigma if self.free_nu.size else math.inf
        if not self._d2c.size:
            return min(self.alpha - sigma, free)
        pole = hi = float(self._nuc[0]) + sigma
        a, dd = self.alpha - sigma, math.sqrt(float(self._d2c.sum()))
        lo, t = min(a, pole) - dd, 0.5 * (a + pole) - math.hypot(0.5 * (a - pole), dd)
        with np.errstate(**_QUIET):
            for _ in range(_MAX_STEPS):
                r = 1.0 / (self._nuc + (sigma - t))
                f = a - t - float(r @ self._d2c)
                lo, hi = (t, hi) if f > 0.0 else (lo, t)
                new = t + f / (1.0 + float((r * r) @ self._d2c))
                new = new if lo <= new <= hi else 0.5 * (lo + hi)
                t, step = new, abs(new - t)
                if step <= _LAST_STEP * (pole - t):
                    break
        return min(t, free)

    def pseudo_solve(self, sigma: float) -> tuple[np.ndarray, np.ndarray]:
        """The minimum-norm solution x of G(sigma) x = c at a pole, and an
        orthonormal null basis Z: ``v = (1, -d/(nu + sigma))`` where f(sigma,
        t) has its root in the zero band, and e_j for each decoupled
        nu_j + sigma in it.  x takes x0 = 0 on a root (else N/f) and x_j = 0
        on the null coordinates, less its projection on Z."""
        band = self._band(sigma)
        with np.errstate(**_QUIET):
            f_neg, f, f_pos = self.f(sigma, np.array([-band, 0.0, band]))
            delta = self.nu + sigma
            null = ~self.coupled & (np.abs(delta) <= band)
            r = np.where(null, 0.0, self.d / delta)
            on_root = f_neg >= 0.0 >= f_pos
            y0 = 0.0 if on_root else (self.c0 - float(r @ self.ct)) / f
            y = np.concatenate(([y0], np.where(null, 0.0, (self.ct - self.d * y0) / delta)))
        Z = np.eye(self.n)[:, 1 + null.nonzero()[0]]
        if on_root:
            Z = np.column_stack((np.concatenate(([1.0], -r)) / math.sqrt(1.0 + float(r @ r)), Z))
        y -= Z @ (Z.T @ y)
        Z[1:] = self.U @ Z[1:]
        return self._rotate_back(y[0], y[1:]), Z

    # -- poles -----------------------------------------------------------------

    def _roots(self, ct: np.ndarray) -> tuple:
        """Every root of f, with eta, vc and vv of its null vector; ``ct``
        is c over the coupled coordinates.  The real roots are the (tau,
        origin) rows of one pole-distance matrix, exact next to the origin;
        a complex pair is one complex row and its conjugate."""
        nu, d, d2 = self._nuc, self._dc, self._d2c
        if nu.size == 0:  # f = alpha - sigma
            return np.array([self.alpha]), np.array([-1.0]), np.array([self.c0]), np.ones(1)
        # one root per bracket (-nu[i+1], -nu[i]), relative to its nearer
        # pole; the other two from the deflated quadratic.  Below
        # _SWEEP_POLES coupled poles Python floats cost less than the fixed
        # cost of the array calls of a sweep.
        sweep = nu.size >= _SWEEP_POLES
        origin, tau = (_bracket_sweeps if sweep else _bracket_roots)(self.alpha, nu, d2)
        inner = tau - nu[origin]
        pair, near = self._pair(nu, d2, inner, sweep)
        if near is not None:
            origin, tau = np.concatenate((origin, near[1])), np.concatenate((tau, near[0]))
        inv = np.reciprocal((nu - nu[origin][:, None]) + tau[:, None])
        eta = np.square(inv).dot(d2) - 1.0
        vc = self.c0 - inv.dot(d * ct)
        vv = eta + 2.0
        # a root rounded onto its pole -nu_j, its origin, has the limit null vector e_j
        onto = tau == 0.0
        eta[onto], vc[onto], vv[onto] = 1.0, ct[origin[onto]], 1.0
        if near is None:
            inv = 1.0 / (nu + pair[0])
            t = inv * inv
            ez, cz = t.dot(d2) - 1.0, self.c0 - inv.dot(d * ct)
            eta = np.concatenate((eta, [ez, ez.conjugate()]))
            vc = np.concatenate((vc, [cz, cz.conjugate()]))
            vv = np.concatenate((vv, [np.abs(t).dot(d2) + 1.0] * 2))
        return np.concatenate((inner, pair)), eta, vc, vv

    def _pair(self, nu: np.ndarray, d2: np.ndarray, inner: np.ndarray, sweep: bool) -> tuple:
        """The two roots of f beyond the bracket roots ``inner``, as a real
        or complex array of length 2, and for a real pair the arrays
        (tau, origin) of each root relative to its nearest pole (else None);
        with ``sweep`` each step runs over all poles and candidates at once.

        f * prod(nu + s) / prod(s - inner) is the quadratic -(s - u)(s - v).
        For m = 1 it is (alpha - s)(nu + s) - d^2.  Otherwise its center is
        half the trace of -LQ over the coupled block less the bracket roots,
        and its value and slope are read at the candidate point farthest
        from the bracket roots, next to which they lose accuracy (the next
        farthest where they are not finite).  A real root is then polished
        relative to its nearest pole (``_polish_real``), a complex one on f.
        """
        alpha = self.alpha
        nus, d2s, inn = nu.tolist(), d2.tolist(), inner.tolist()
        if len(nus) == 1:
            s = 0.5 * (alpha - nus[0])
            q = (alpha - s) * (nus[0] + s) - d2s[0]
            qp = alpha - nus[0] - 2.0 * s
        elif sweep:
            cands = 0.5 * (alpha - nu.sum() - inner.sum()) + self._size * np.array(_OFFSETS)
            qs, qps = _deflated_at(alpha, nu, d2, inner, cands)
            dist = np.abs(cands[:, None] - inner).min(axis=1)
            for k in np.argsort(-dist, kind="stable").tolist():
                s, q, qp = float(cands[k]), float(qs[k]), float(qps[k])
                if math.isfinite(q) and math.isfinite(qp):
                    break
        else:
            center = 0.5 * (alpha - sum(nus) - sum(inn))
            cands = sorted((center + self._size * o for o in _OFFSETS),
                           key=lambda x: -min(abs(x - r) for r in inn))
            for s in cands:
                q = _deflated(alpha, nus, d2s, inn, s)
                if q is not None:
                    q, qp = q
                    break
        # q(s + h) = q + qp h - h^2
        disc = qp * qp + 4.0 * q
        if not disc >= 0.0:
            z = complex(s + 0.5 * qp, 0.5 * math.sqrt(-disc))
            if len(nus) > 1:
                newton = _newton_rows(alpha, nu, d2) if sweep else _newton(alpha, nus, d2s)
                z = complex(_polish(z, newton))
            return np.array([z, z.conjugate()]), None
        h1 = 0.5 * (qp + math.copysign(math.sqrt(disc), qp))
        pair = np.array([s + h1, s - q / h1 if h1 != 0.0 else s])
        if sweep:
            tau, o = _polish_real_rows(alpha, nu, d2, pair, inner)
            root = tau - nu[o]
            if root[1] < root[0]:
                root, tau, o = root[::-1], tau[::-1], o[::-1]
            return root, (tau, o)
        near = sorted((_polish_real(alpha, nus, d2s, z, inn) for z in pair.tolist()),
                      key=lambda to: to[0] - nus[to[1]])
        return (np.array([t - nus[o] for t, o in near]),
                (np.array([t for t, _ in near]), np.array([o for _, o in near])))

    def _cluster(self) -> Block | None:
        """The exceptional cluster as a ``Block``, None without one: the
        roots of f with |eta| <= _CHAIN_TOL vv, the nearest root to a lone
        one (its partner), and the complex pair if any.  A complex pair with
        |Im z| <= sqrt(eps) max(1, |z|) is a double pole that rounding split,
        and a cluster of its own.  L has one negative square, so LQ has at
        most one such cluster, a Jordan chain of length <= 3 when exact
        (Gohberg, Lancaster and Rodman, *Indefinite Linear Algebra and
        Applications*, 2005)."""
        roots = self.roots
        chain = np.abs(self.eta) / self.vv.real <= _CHAIN_TOL
        if not chain.any():
            z = complex(roots[-1])  # the pair is last
            if 0.0 < abs(z.imag) <= math.sqrt(EPS) * max(1.0, abs(z)):
                return _block(self, roots.imag != 0.0)
            return None
        if chain.sum() == 1:
            chain[np.argsort(np.abs(roots - roots[chain]))[1]] = True
        return _block(self, chain | (roots.imag != 0.0))

    def _poles(self) -> list[float]:
        """The singular shifts sigma >= 0, sorted, with multiplicities: the
        decoupled -nu_j, the real roots of f outside the exceptional cluster,
        and the cluster as a pole of its size at its center ``block.m``; a
        complex pair outside it is no singular shift.  Shifts down to
        -ZERO_POLE_TOL * (1 + max|Q|) are poles at 0."""
        block, real = self.block, self.roots.imag == 0.0
        sig = (-self.free_nu).tolist()
        if block is not None:
            real &= ~block.chain
            sig += [block.m] * int(block.chain.sum())
        sig += self.roots[real].real.tolist()
        floor = -ZERO_POLE_TOL * self._scale
        return sorted(max(s, 0.0) for s in sig if s >= floor)


def _pole_cells(poles: list[float]) -> tuple[list[float], bool]:
    """Left ends [0, p1, p2, ...] of the cells between the sorted singular
    shifts ``poles``, merged, and whether 0 is itself a pole."""
    merged: list[float] = []
    for s in poles:
        if not merged or s - merged[-1] > 1e-9 * (1.0 + s):
            merged.append(s)
    zero_singular = bool(merged) and merged[0] <= 1e-12
    return [0.0] + (merged[1:] if zero_singular else merged), zero_singular


def _horner(c: tuple, t: float) -> tuple[float, float, float]:
    """c(t), c'(t) and c''(t), c lowest degree first."""
    v, d1, d2 = c[-1], 0.0, 0.0
    for a in c[-2::-1]:
        d2, d1, v = d2 * t + 2.0 * d1, d1 * t + v, v * t + a
    return v, d1, d2


@dataclass(frozen=True)
class Block:
    """The k <= 3 roots of f marked by ``chain`` around ``m`` as one term of
    the dual derivative g.  With u = sigma - m its part of N^2/f is
    P(u)/w(u), w monic with the cluster as roots, and of g
    -0.5 (P/w)' = 0.5 t^2 Phi(t), t = 1/u, ``Phi = (S/omega)'``, ``S = t^k
    P(1/t)``, ``omega = t^k w(1/t)`` (lowest degree first); at an exact
    chain omega = 1 and -Phi is the polynomial ``level`` = -S'."""

    m: float
    S: tuple
    omega: tuple
    level: tuple
    size: float  # of the terms P is made of
    chain: np.ndarray

    def phi(self, t: float) -> tuple[float, float]:
        """Phi and Phi' at t."""
        s0, s1, s2 = _horner(self.S, t)
        w0, w1, w2 = _horner(self.omega, t)
        Phi = (s1 * w0 - s0 * w1) / (w0 * w0)
        return Phi, (s2 * w0 - s0 * w2) / (w0 * w0) - 2.0 * Phi * w1 / w0


def _block(arrow: Arrowhead, chain: np.ndarray) -> Block:
    """The block of the roots in ``chain``: Weierstrass division splits f's
    Taylor series at m into w h, and P = (N^2/h) mod w (smooth there), so
    P/w sums ``vc^2/eta / (sigma - p)`` over the cluster, none formed.  m
    moves once, to w's mean root."""
    k = int(chain.sum())
    m = float(arrow.roots[chain].real.mean())
    for center in (True, False):
        f, N = (x.tolist() for x in arrow.taylor(m, _BLOCK_ORDER + k))
        a, h = [0.0] * k, f[k:]
        for _ in range(_MAX_STEPS):  # a from f's first k terms, then h from a
            new = []
            for j in range(k):
                new.append((f[j] - sum(new[i] * h[j - i] for i in range(j))) / h[0])
            for j in reversed(range(len(h))):
                h[j] = f[j + k] - sum(new[i] * h[j + k - i] for i in range(k) if j + k - i < len(h))
            if new == a:
                break
            a = new
        m -= a[-1] / k if center else 0.0
    phi = []  # N^2/h
    for j in range(len(h)):
        n2 = sum(N[i] * N[j - i] for i in range(j + 1))
        phi.append((n2 - sum(h[i] * phi[j - i] for i in range(1, j + 1))) / h[0])
    P = [0.0] * k
    for c in reversed(phi):  # P u + c mod w, by Horner
        P = [c - P[-1] * a[0]] + [P[i - 1] - P[-1] * a[i] for i in range(1, k)]
    terms = sum(map(abs, N[:k])) ** 2 / abs(h[0])
    if sum(map(abs, P)) <= EPS * (terms + arrow.c0 ** 2 + float(arrow.ct @ arrow.ct)):
        P = [0.0] * k  # c is orthogonal to the cluster's chain to rounding
    level = np.trim_zeros([-i * p for i, p in enumerate(P[::-1], 1)], "b")  # -S'
    return Block(m, (0.0, *P[::-1]), (1.0, *a[::-1]), tuple(level), terms, chain)


class Pencil:
    """The pencil Q + sigma*L of one problem ``p``, built once and passed
    down: the copy ``q`` of p in natural units (``model.natural_units``),
    its scales ``s`` and ``t``, and q's ``Arrowhead``.  Its methods take
    sigma, and return what they compute, in p's own units."""

    def __init__(self, p: ProblemInstance):
        self.p = p
        self.q, self.s, self.t = natural_units(p)
        self.arrow = Arrowhead(self.q)

    @property
    def poles(self) -> list[float]:
        return [self.s * pole for pole in self.arrow.poles]

    def inertia(self, sigma: float) -> tuple[int, int, int]:
        return self.arrow.inertia(sigma / self.s)

    def x(self, sigma: float) -> np.ndarray:
        return self.arrow.x(sigma / self.s) * (self.t / self.s)

    def dual(self, sigma: float) -> tuple[float, float]:
        """The dual value and derivative at sigma, scaled from natural units
        after the products, so that neither overflows before its value."""
        x, r = self.arrow.x(sigma / self.s), self.t / self.s
        return -0.5 * float(self.q.c @ x) * r * self.t, cone_quadratic(x) * r * r

    def min_eigenvalue(self, sigma: float) -> float:
        return self.s * self.arrow.min_eigenvalue(sigma / self.s)

    def pseudo_solve(self, sigma: float) -> tuple[np.ndarray, np.ndarray]:
        x, Z = self.arrow.pseudo_solve(sigma / self.s)
        return x * (self.t / self.s), Z


def _deflate_repeated(nu, d, ct, U, tol):
    """Rotate each run of nu within tol of each other, in place, so that
    only its first coordinate carries d: a Householder reflector maps d on
    the run to (||d||, 0, ...); diag(nu) is unchanged on the run up to tol."""
    start = 0
    for i in range(1, nu.size + 1):
        if i < nu.size and nu[i] - nu[i - 1] <= tol:
            continue
        if i - start > 1:
            run = slice(start, i)
            v = d[run].copy()
            norm = math.sqrt(float(v @ v))
            if norm > 0.0:
                v[0] += math.copysign(norm, v[0])
                v /= math.sqrt(float(v @ v))
                d[run] -= 2.0 * v * float(v @ d[run])
                ct[run] -= 2.0 * v * float(v @ ct[run])
                U[:, run] -= 2.0 * np.outer(U[:, run] @ v, v)
                d[start + 1:i] = 0.0
        start = i


def _bracket_roots(alpha: float, nu: np.ndarray, d2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One root of f in each bracket (a, b) = (-nu[i+1], -nu[i]), as
    ``sigma = -nu[origin] + tau`` with origin the pole nearer to it.

    f runs from -inf at a to +inf at b, so F = (sigma - a)(b - sigma) f,
    smooth at both poles, runs from -d_a^2 (b - a) to d_b^2 (b - a).  The
    half of the bracket holding a root is read from the sign of f at its
    middle; the start solves the model of F with every term but the two
    pole terms frozen there; then Newton on F, bisecting whenever a step
    leaves the current sign-change bracket (or is not finite, as at a start
    that rounds onto the pole).  Distances to the poles are
    (nu_j - nu[origin]) + tau, exact next to the origin.  The sums over the
    poles, O(m) per bracket, run over all brackets at once; the scalar
    Newton logic runs per bracket on floats.
    """
    m = nu.size
    if m < 2:
        return np.zeros(0, dtype=int), np.zeros(0)
    mid = -0.5 * (nu[1:] + nu[:-1])
    f_mid = (alpha - mid - (1.0 / (nu + mid[:, None])) @ d2).tolist()
    nus, d2s = nu.tolist(), d2.tolist()
    origin, A, B, tau = [], [], [], []
    for i, fm in enumerate(f_mid):
        gap = nus[i + 1] - nus[i]
        left = fm > 0.0
        origin.append(i + 1 if left else i)
        a, b = (0.0, gap) if left else (-gap, 0.0)  # tau of the poles
        A.append(a)
        B.append(b)
        # the start solves the model w (tau - a)(b - tau) - dl (b - tau) +
        # dr (tau - a) = 0, which has one root in (a, b), with w = alpha -
        # sigma less the terms of the other poles frozen at the middle
        dl, dr = d2s[i + 1], d2s[i]
        w = fm + 2.0 * (dl - dr) / gap
        qb = w * (a + b) + dl + dr
        qc = -w * a * b - dl * b - dr * a
        qq = -0.5 * (qb + math.copysign(math.sqrt(max(qb * qb + 4.0 * w * qc, 0.0)), qb))
        r = qq / -w if w != 0.0 else math.nan
        if not a < r < b:
            r = qc / qq if qq != 0.0 else 0.5 * (a + b)
        tau.append(min(max(r, 0.5 * a), 0.5 * b))
    lo = [0.5 * a for a in A]
    hi = [0.5 * b for b in B]
    a_ = (alpha + nu[origin]).tolist()
    base = nu - nu[origin][:, None]
    for _ in range(_MAX_STEPS):
        s1, s2 = _pole_sums(base, d2, tau)
        done = True
        for k, t in enumerate(tau):
            f = a_[k] - t - s1[k]
            ta, tb = t - A[k], B[k] - t
            F = ta * tb * f
            slope = (tb - ta) * f + ta * tb * (s2[k] - 1.0)
            if F < 0.0:
                lo[k] = t
            elif F > 0.0:
                hi[k] = t
            new = t - F / slope if slope != 0.0 else math.nan
            if not lo[k] <= new <= hi[k]:
                new = 0.5 * (lo[k] + hi[k])
            # a Newton step below _LAST_STEP relative is the last one
            # needed: the step after it would be at rounding
            done = done and abs(new - t) <= _LAST_STEP * abs(t)
            tau[k] = new
        if done:
            break
    return np.array(origin, dtype=int), np.array(tau)


def _pole_sums(base: np.ndarray, d2: np.ndarray, tau: list) -> tuple[list, list]:
    """``sum_j d2_j / delta_kj`` and ``sum_j d2_j / delta_kj^2`` per bracket k,
    with ``delta_kj = base_kj + tau_k``."""
    inv = 1.0 / (base + np.array(tau)[:, None])
    return (inv @ d2).tolist(), ((inv * inv) @ d2).tolist()


def _deflated(alpha: float, nus: list, d2s: list, inner: list, s: float) -> tuple | None:
    """Value and slope at s of the quadratic ``f * prod(nu + s) / prod(s -
    inner)``, each bracket root paired with the pole at its right; None
    where they are not finite."""
    f, fp, R, slope = alpha - s, -1.0, 1.0, 0.0
    try:
        for v, w in zip(nus, d2s):
            r = v + s
            f -= w / r
            fp += w / (r * r)
            slope += 1.0 / r
        for v, x in zip(nus, inner):
            R *= (v + s) / (s - x)
            slope -= 1.0 / (s - x)
    except ZeroDivisionError:
        return None
    R *= nus[-1] + s
    q, qp = f * R, R * (fp + f * slope)
    return (q, qp) if math.isfinite(q) and math.isfinite(qp) else None


def _polish_real(alpha: float, nus: list, d2s: list, z: float,
                 others: list) -> tuple[float, int]:
    """A real root z of f as (tau, o), ``z = -nu_o + tau`` for the nearest
    pole -nu_o, polished by Newton on ``tau f``, which is smooth there: a
    root closer to the pole than rounding of z resolves (as for a small
    coupling d_o) keeps its distance tau exactly.  Steps stop as in
    ``_polish``, measured to the other poles.  z is kept where the polish
    ends nearer to one of the roots ``others`` than to z, as it can from a
    nearly double root, where f' is nearly 0."""
    o = min(range(len(nus)), key=lambda j: abs(nus[j] + z))
    no, do = nus[o], d2s[o]
    tau, last = z + no, math.inf
    for _ in range(_MAX_STEPS):
        w, wp, dist = alpha + no - tau, -1.0, math.inf  # f without the pole term
        for j, (v, w2) in enumerate(zip(nus, d2s)):
            if j != o:
                r = (v - no) + tau
                if r == 0.0:
                    return tau, o
                dist = min(dist, abs(r))
                w -= w2 / r
                wp += w2 / (r * r)
        slope = w + tau * wp
        step = (tau * w - do) / slope if slope != 0.0 else math.inf
        if not abs(step) < min(last, 0.5 * dist):
            break
        tau -= step
        if abs(step) <= _LAST_STEP * abs(tau):
            break
        last = abs(step)
    root = tau - no
    if any(abs(root - x) < abs(root - z) for x in others):
        return z + no, o
    return tau, o


def _polish(z, newton):
    """Newton on f from the estimate z (real or complex), ``newton(z)``
    giving the step f/f' and the distance to the nearest pole, until a step
    stops shrinking, is the last one needed (see _LAST_STEP), or would reach
    half the distance to a pole."""
    last = math.inf
    for _ in range(_MAX_STEPS):
        step, dist = newton(z)
        if not abs(step) < min(last, 0.5 * dist):
            return z
        z -= step
        if abs(step) <= _LAST_STEP * abs(z):
            return z
        last = abs(step)
    return z


def _newton(alpha: float, nus: list, d2s: list):
    """The Newton step on f and the distance to the nearest pole, summed
    on Python floats (the distance 0 on a pole)."""
    def newton(z):
        f, fp, dist = alpha - z, -1.0, math.inf
        for v, w in zip(nus, d2s):
            r = v + z
            if r == 0.0:
                return math.inf, 0.0
            dist = min(dist, abs(r))
            f -= w / r
            fp += w / (r * r)
        return (f / fp if fp != 0.0 else math.inf), dist
    return newton


def _bracket_sweeps(alpha: float, nu: np.ndarray, d2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One root of f in each bracket (a, b) = (-nu[i+1], -nu[i]), as
    ``sigma = -nu[origin] + tau`` with origin the pole nearer to it.

    On F = tau (E - tau) f, E the tau of the other pole: the sign of f at
    the middle picks the half that holds the root, the middle way's model
    of f there gives the start, then Euler steps over all brackets at once,
    bisecting where a step leaves the sign-change bracket or does not
    shrink.  A bracket stops after a step of at most _LAST_STEP of its
    iterate; the stopped ones leave the arrays once they are half of them.
    Distances to the poles, (nu_j - nu[origin]) + tau, are exact next to it.
    """
    m = nu.size
    if m < 2:
        return np.zeros(0, dtype=int), np.zeros(0)
    gap = nu[1:] - nu[:-1]
    mid = -0.5 * (nu[1:] + nu[:-1])
    inv = np.reciprocal(nu + mid[:, None])
    f_mid = alpha - mid - inv.dot(d2)  # as in _bracket_roots, which picks the same halves
    # in x = tau / (E/2) the model is |f_mid| + A (1 - 1/x) + B (1/(2 - x) - 1),
    # A (B) the slope at the middle of the poles on the origin's (other) side
    # times |E|/2; its root in (0, 1] is the smaller root of w x^2 - 2 b x + 2 A
    left = f_mid > 0.0
    far = np.where(left, gap, -gap)  # E
    both = 0.25 * gap * np.square(inv).dot(d2)  # (A + B) / 2
    side = 0.25 * far * (np.abs(inv) * inv).dot(d2)  # (A - B) / 2
    A, w = both + side, np.abs(f_mid) + side + side
    b = w + both
    x = np.minimum((A + A) / (b + np.sqrt(np.maximum(b * b - 2.0 * w * A, 0.0))), 1.0)
    half = 0.5 * far
    tau, lo, hi = half * x, np.minimum(half, 0.0), np.maximum(half, 0.0)
    origin = np.arange(m - 1) + left
    a_, base = alpha + nu[origin], nu - nu[origin][:, None]
    out, rows, last = np.empty(m - 1), np.arange(m - 1), np.full(m - 1, np.inf)
    stopped = np.zeros(m - 1, dtype=bool)
    for _ in range(_MAX_STEPS):
        s1, s2, s3 = _sweep_sums(base, tau, d2)
        f, fp, u = a_ - s1 - tau, s2 - 1.0, far - tau
        P, Q = tau * u, u - tau
        F, F1 = P * f, Q * f + P * fp
        np.copyto(lo, tau, where=F < 0.0)
        np.copyto(hi, tau, where=F > 0.0)
        # the root of the model F - F' h - G h^2, G = -F''/2, or its vertex
        G = f - Q * fp + P * s3
        disc = F1 * F1 + 4.0 * F * G
        step = (F + F) / (F1 + np.copysign(np.sqrt(disc), F1))
        if np.count_nonzero(disc > 0.0) < disc.size:
            np.copyto(step, -F1 / (G + G), where=~(disc > 0.0))
        new, size = tau - step, np.abs(step)
        inside = (lo <= new) & (new <= hi) & (size < last)
        if np.count_nonzero(inside) < inside.size:
            np.copyto(new, 0.5 * (lo + hi), where=~inside)
            size = np.abs(new - tau)
        np.copyto(new, tau, where=stopped)
        stopped |= size <= _LAST_STEP * np.abs(tau)
        tau, last = new, size
        count = np.count_nonzero(stopped)
        if count == stopped.size:
            break
        if count + count >= stopped.size:  # a pass that drops rows costs about a sweep of them
            out[rows[stopped]] = tau[stopped]
            keep = ~stopped
            rows, tau, lo, hi, far, a_, base, stopped, last = (
                rows[keep], tau[keep], lo[keep], hi[keep], far[keep], a_[keep], base[keep],
                stopped[keep], last[keep])
    out[rows] = tau
    return origin, out


def _sweep_sums(base: np.ndarray, tau: np.ndarray, d2: np.ndarray) -> tuple:
    """``sum_j d2_j / delta_kj^p`` for p = 1, 2, 3 per bracket k, with
    ``delta_kj = base_kj + tau_k``: one sweep of ``_bracket_sweeps``."""
    inv = base + tau[:, None]
    np.reciprocal(inv, out=inv)
    inv2 = np.square(inv)
    return inv.dot(d2), inv2.dot(d2), np.multiply(inv2, inv, out=inv2).dot(d2)


def _deflated_at(alpha: float, nu: np.ndarray, d2: np.ndarray, inner: np.ndarray,
              s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Value and slope at each point of s of the quadratic ``f * prod(nu +
    s) / prod(s - inner)``, each bracket root paired with the pole at its
    right; not finite where s is on a pole or a bracket root."""
    r = nu + s[:, None]
    inv = np.reciprocal(r)
    x = s[:, None] - inner
    f = alpha - s - inv.dot(d2)
    R = np.prod(r[:, :-1] / x, axis=1) * r[:, -1]
    return f * R, R * (np.square(inv).dot(d2) - 1.0 + f * (inv.sum(axis=1) - (1.0 / x).sum(axis=1)))


def _polish_real_rows(alpha: float, nu: np.ndarray, d2: np.ndarray, z: np.ndarray,
                      others: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The two real roots z of f as (tau, o), ``z = -nu_o + tau`` for the
    nearest pole -nu_o, polished as in ``_polish_real``, with the sums over
    the poles for both roots at once and the Newton logic on floats."""
    o = np.abs(nu + z[:, None]).argmin(axis=1)
    no = nu[o]
    base = nu - no[:, None]
    base[(0, 1), o] = np.inf  # the pole's own term is -do/tau
    tau, an, do = (z + no).tolist(), (alpha + no).tolist(), d2[o].tolist()
    last, live = [math.inf] * 2, [True, True]
    for _ in range(_MAX_STEPS):
        r = base + np.array(tau)[:, None]
        inv = np.reciprocal(r)
        s1s, s2s = inv.dot(d2).tolist(), np.square(inv).dot(d2).tolist()
        for k, (s1, s2, dist) in enumerate(zip(s1s, s2s, np.abs(r).min(axis=1).tolist())):
            t, w = tau[k], an[k] - tau[k] - s1  # f without the pole term
            slope = w + t * (s2 - 1.0)
            step = (t * w - do[k]) / slope if slope != 0.0 else math.inf
            live[k] = live[k] and abs(step) < min(last[k], 0.5 * dist)
            if live[k]:
                tau[k], last[k] = t - step, abs(step)
                live[k] = abs(step) > _LAST_STEP * abs(tau[k])
        if not (live[0] or live[1]):
            break
    tau = np.array(tau)
    root = tau - no
    back = (np.abs(root[:, None] - others) < np.abs(root - z)[:, None]).any(axis=1)
    return np.where(back, z + no, tau), o


def _newton_rows(alpha: float, nu: np.ndarray, d2: np.ndarray):
    """``_newton`` with the sums as array calls."""
    def newton(z):
        r = nu + z
        inv = np.reciprocal(r)
        fp = np.square(inv).dot(d2) - 1.0
        return ((alpha - z - inv.dot(d2)) / fp if fp != 0.0 else math.inf), float(np.abs(r).min())
    return newton

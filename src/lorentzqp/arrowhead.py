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
pair or a complex pair.  The bracket roots come from safeguarded Newton on
``(sigma - a)(b - sigma) f``, smooth at the poles a and b, vectorized over
all brackets; the other two from f deflated by the known roots, which is a
quadratic, then Newton-polished.  Every real root is held relative to its
nearest pole, so that a root closer to a pole than the rounding of sigma
(a small coupling d_i puts it d_i^2 away) keeps the weight of its null
vector exact.
"""

from __future__ import annotations

import math

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
# A pair of roots of f closer than twice this times 1 + max|Q| (a complex
# pair this close to the real axis) counts as a double pole at its center.
DOUBLE_ROOT_TOL = 1e-7
# Coupling entries d_i, and gaps between the nu_i, at most this many eps
# times the size of the arrowhead are deflated (LAPACK's dlaed2 uses 8).
DEFLATION = 8.0
# Candidate points, in units of the arrowhead's size around the center of
# the two roots beyond the brackets, for reading their deflated quadratic.
_OFFSETS = (0.0, 0.382, -0.382, 0.618, -0.618, 1.618, -1.618)
# A Newton step at most this relative to its iterate ends the iteration
# after it is taken: convergence is quadratic there, so the next step would
# be below rounding.
_LAST_STEP = 1e-9
_EMPTY = np.zeros(0)
# Newton steps on the bracket roots and in each polish of the other two.
_MAX_STEPS = 100
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
    ``v = (1, -d / (nu + root))`` and ``vv = ||v||^2``; and ``poles``, the
    singular shifts sigma >= 0, sorted, with multiplicities.

    The roots (with eta, vc and vv) and the poles are computed on first
    access, as a per-shift solve needs none of them; they are deterministic,
    so threads that race to the first access only repeat work.
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

    def __getattr__(self, name: str):
        if name not in ("roots", "eta", "vc", "vv", "poles"):
            raise AttributeError(name)
        with np.errstate(**_QUIET):
            if name == "poles":
                self.poles = self._poles()
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
        a = self.alpha - sigma - float(r @ self.d)
        dj = float(self.d[j])
        return delta, j, r, a, dj * dj - a * float(delta[j])

    def _solve(self, piv: tuple, b0: float, bt: np.ndarray) -> tuple[float, np.ndarray]:
        """G(sigma) (x0, xt) = (b0, bt) in rotated coordinates, for the
        elimination ``piv = self._pivot(sigma)``."""
        delta, j, r, a, D = piv
        if j is None:
            return float(np.float64(b0) / a), bt / delta
        b = b0 - float(r @ bt)
        dj, ej, bj = float(self.d[j]), float(delta[j]), float(bt[j])
        x0 = float(np.float64(bj * dj - ej * b) / D)
        xt = (bt - self.d * x0) / delta
        xt[j] = np.float64(b * dj - a * bj) / D
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

    def newton_point(self, sigma: float) -> np.ndarray:
        """x(sigma) advanced to first order by the Newton step on g,
        ``x + (g/g') y`` with ``y = G^{-1} L x = -dx/dsigma`` and
        ``g' = -(Lx)'y``; x itself where g' = 0."""
        with np.errstate(**_QUIET):
            piv = self._pivot(sigma)
            x0, xt = self._solve(piv, self.c0, self.ct)
            y0, yt = self._solve(piv, -x0, xt)
            g = 0.5 * (float(xt @ xt) - x0 * x0)
            gp = x0 * y0 - float(xt @ yt)
            if gp != 0.0:
                x0, xt = x0 + (g / gp) * y0, xt + (g / gp) * yt
            return self._rotate_back(x0, xt)

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
        is c over the coupled coordinates."""
        nu, d, d2 = self._nuc, self._dc, self._d2c
        m = nu.size
        if m == 0:  # f = alpha - sigma
            return np.array([self.alpha]), np.array([-1.0]), np.array([self.c0]), np.ones(1)
        # one root per bracket (-nu[i+1], -nu[i]), relative to its nearer
        # pole; the other two from the deflated quadratic
        origin, tau = _bracket_roots(self.alpha, nu, d2)
        inner = tau - nu[origin]
        pair, near = self._pair(nu, d2, inner)
        roots = np.concatenate([inner, pair])
        delta = nu + roots[:, None]
        # the real roots relative to their nearest pole: exact next to it
        if m > 1:
            delta[:m - 1] = (nu - nu[origin][:, None]) + tau[:, None]
        if near is not None:
            delta[m - 1:] = [[(v - nu[o]) + t for v in nu.tolist()] for t, o in near]
        inv = 1.0 / delta
        t = inv * inv
        eta = t @ d2 - 1.0
        vc = self.c0 - inv @ (d * ct)
        vv = np.abs(t) @ d2 + 1.0 if delta.dtype.kind == "c" else eta + 2.0
        # a root rounded onto its pole -nu_j has the limit null vector e_j
        onto, j = (delta == 0.0).nonzero()
        eta[onto], vc[onto], vv[onto] = 1.0, ct[j], 1.0
        return roots, eta, vc, vv

    def _pair(self, nu: np.ndarray, d2: np.ndarray, inner: np.ndarray) -> tuple:
        """The two roots of f beyond the bracket roots ``inner``, as a real
        or complex array of length 2, and for a real pair each root as
        (tau, origin) relative to its nearest pole (else None).

        f * prod(nu + s) / prod(s - inner) is the quadratic -(s - u)(s - v).
        For m = 1 it is (alpha - s)(nu + s) - d^2.  Otherwise its center is
        half the trace of -LQ over the coupled block less the bracket roots,
        and its value and slope are read at the candidate point farthest
        from the bracket roots, next to which they lose accuracy (the next
        farthest where they are not finite).  A real root is then polished
        relative to its nearest pole (``_polish_real``), a complex one on f.
        """
        nus, d2s = nu.tolist(), d2.tolist()
        if len(nus) == 1:
            s = 0.5 * (self.alpha - nus[0])
            q = (self.alpha - s) * (nus[0] + s) - d2s[0]
            qp = self.alpha - nus[0] - 2.0 * s
        else:
            inn = inner.tolist()
            center = 0.5 * (self.alpha - sum(nus) - sum(inn))
            cands = sorted((center + self._size * o for o in _OFFSETS),
                           key=lambda x: -min(abs(x - r) for r in inn))
            for s in cands:
                q = _deflated(self.alpha, nus, d2s, inn, s)
                if q is not None:
                    q, qp = q
                    break
        # q(s + h) = q + qp h - h^2
        disc = qp * qp + 4.0 * q
        if disc >= 0.0:
            h1 = 0.5 * (qp + math.copysign(math.sqrt(disc), qp))
            pair = [s + h1, s - q / h1 if h1 != 0.0 else s]
        else:
            pair = [complex(s + 0.5 * qp, 0.5 * math.sqrt(-disc))]
        if isinstance(pair[0], complex):
            z = _polish(self.alpha, nus, d2s, pair[0]) if len(nus) > 1 else pair[0]
            return np.array([z, z.conjugate()]), None
        near = sorted((_polish_real(self.alpha, nus, d2s, z, inner.tolist()) for z in pair),
                      key=lambda to: to[0] - nus[to[1]])
        return np.array([t - nus[o] for t, o in near]), near

    def _poles(self) -> list[float]:
        """The singular shifts sigma >= 0, sorted, with multiplicities.

        The two roots beyond the brackets count as a double root at their
        center when they lie within 2 DOUBLE_ROOT_TOL of each other: a
        complex pair within DOUBLE_ROOT_TOL of the real axis, or a real pair
        that rounding split off a double root (Newton on f polishes both copies
        from one side, so their center is polished as a root of f').  A
        defective double pole (light-like null vector) can also split into
        a complex pair farther apart, which counts twice when G is singular
        at its real part.
        """
        floor = -ZERO_POLE_TOL * self._scale
        sig = (-self.free_nu).tolist() + self.roots[:-2].real.tolist()
        u, v = self.roots[-2:].tolist() if self.roots.size > 1 else (self.roots[0], None)
        if v is None:
            sig.append(u)
        elif abs(u - v) <= 2.0 * DOUBLE_ROOT_TOL * self._scale:
            center = 0.5 * (u + v).real
            if not isinstance(u, complex):  # both copies may sit on one side
                center = _critical(self.alpha, self._nuc.tolist(), self._d2c.tolist(), center)
            sig += [center, center]
        elif isinstance(u, complex):
            if u.real >= floor and self.inertia(max(u.real, 0.0))[1] > 0:
                sig += [u.real, u.real]
        else:
            sig += [u, v]
        return sorted(max(s, 0.0) for s in sig if s >= floor)


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


def _critical(alpha: float, nus: list, d2s: list, z: float) -> float:
    """Newton on f' from z, a few steps: the center of a double root of f,
    where f' has a simple root."""
    for _ in range(8):
        fp, fpp = -1.0, 0.0
        for v, w in zip(nus, d2s):
            r = v + z
            if r == 0.0:
                return z
            fp += w / (r * r)
            fpp -= 2.0 * w / (r * r * r)
        if fpp == 0.0:
            return z
        step = fp / fpp
        z -= step
        if abs(step) <= _LAST_STEP * abs(z):
            break
    return z


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


def _polish(alpha: float, nus: list, d2s: list, z):
    """Newton on f from the estimate z (real or complex), until a step
    stops shrinking, is the last one needed (see _LAST_STEP), or would reach
    half the distance to a pole."""
    last = math.inf
    for _ in range(_MAX_STEPS):
        f, fp, dist = alpha - z, -1.0, math.inf
        for v, w in zip(nus, d2s):
            r = v + z
            dist = min(dist, abs(r))
            if r == 0.0:
                return z
            f -= w / r
            fp += w / (r * r)
        step = f / fp if fp != 0.0 else math.inf
        if not abs(step) < min(last, 0.5 * dist):
            return z
        z -= step
        if abs(step) <= _LAST_STEP * abs(z):
            return z
        last = abs(step)
    return z

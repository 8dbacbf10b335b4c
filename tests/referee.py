"""Exact referee for the KKT multipliers of small rational problems.

Every double is a dyadic rational, so Q and c scale to integer matrices by
powers of two.  With ``G(sigma) = Q + sigma*L``, det G(sigma) and
``y(sigma) = adj G(sigma) c`` are then polynomials in sigma with integer
coefficients, found by cofactor expansion (n <= 5).  Off the poles,
``x(sigma) = y / det G`` and the dual derivative is ``g = y'Ly / (2 det^2)``,
so the multipliers sigma > 0 off the poles are the positive roots of the
square-free part of ``P = y'Ly`` with the factors it shares with det G
removed.  Sturm sequences (primitive pseudo-remainders) count them and
bisection at dyadic points isolates each one; on an isolating interval
clear of the roots of det G and y0, the nappe (the sign of x0) and the
inertia of G are read exactly at one rational point.  The inertia comes
from Descartes' rule of signs, exact for the characteristic polynomial of a
symmetric matrix, which is real-rooted.

Only Python integers and ``fractions.Fraction`` decide anything here; the
module is an independent cross-check of ``dual.enumerate_kkt``, like the
oracle.  ``judge`` memoizes det G and adj G per Q.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

# A polynomial is a tuple of ints, lowest degree first, with no trailing
# zero; the zero polynomial is ().  Only signs and roots are read, so every
# polynomial may be scaled by a positive constant.


def _trim(p) -> tuple[int, ...]:
    p = list(p)
    while p and p[-1] == 0:
        p.pop()
    return tuple(p)


def add(p, q) -> tuple[int, ...]:
    if len(p) < len(q):
        p, q = q, p
    return _trim(a + (q[i] if i < len(q) else 0) for i, a in enumerate(p))


def scale(p, s: int) -> tuple[int, ...]:
    return _trim(a * s for a in p)


def mul(p, q) -> tuple[int, ...]:
    if not p or not q:
        return ()
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return _trim(out)


def derivative(p) -> tuple[int, ...]:
    return _trim(i * a for i, a in enumerate(p) if i)


def _sign(x) -> int:
    return (x > 0) - (x < 0)


def primitive(p) -> tuple[int, ...]:
    """p divided by the positive gcd of its coefficients."""
    g = functools.reduce(math.gcd, p, 0)
    return tuple(a // g for a in p) if g > 1 else tuple(p)


def pseudo_divmod(p, q) -> tuple[tuple[int, ...], tuple[int, ...], int]:
    """(quotient, remainder, k) with ``lc(q)^k p = quotient q + remainder``."""
    r, lead = list(p), q[-1]
    steps = max(len(p) - len(q) + 1, 0)
    quot = [0] * steps
    for k in range(steps - 1, -1, -1):
        top = r[k + len(q) - 1]
        quot = [a * lead for a in quot]
        quot[k] = top
        r = [a * lead for a in r]
        for j, b in enumerate(q):
            r[k + j] -= top * b
    return _trim(quot), _trim(r[:len(q) - 1]), steps


def remainder(p, q) -> tuple[int, ...]:
    """A positive multiple of the remainder of p by q, made primitive."""
    _, r, k = pseudo_divmod(p, q)
    return primitive(scale(r, _sign(q[-1]) ** k))


def quotient(p, q) -> tuple[int, ...]:
    """A positive multiple of p / q for q dividing p, made primitive."""
    quot, _, k = pseudo_divmod(p, q)
    return primitive(scale(quot, _sign(q[-1]) ** k))


def gcd(p, q) -> tuple[int, ...]:
    """A greatest common divisor with positive leading coefficient (1 when
    p and q are coprime)."""
    while q:
        p, q = q, remainder(p, q)
    return scale(primitive(p), _sign(p[-1])) if p else (1,)


def squarefree(p) -> tuple[int, ...]:
    return quotient(p, gcd(p, derivative(p)))


def coprime_part(p, q) -> tuple[int, ...]:
    """p with every factor it shares with q divided out."""
    while True:
        d = gcd(p, q)
        if len(d) == 1:
            return p
        p = quotient(p, d)


def sign_at(p, x: Fraction) -> int:
    """The sign of p at x, in integer arithmetic."""
    return _sign_at(p, x.numerator, x.denominator)


def _sign_at(p, a: int, b: int) -> int:
    """The sign of p at a / b for b > 0."""
    v, bp = 0, 1
    for coef in reversed(p):
        v = v * a + coef * bp
        bp *= b
    return _sign(v)


def sturm(p) -> list[tuple[int, ...]]:
    seq = [p, derivative(p)]
    while len(seq[-1]) > 1:
        seq.append(scale(remainder(seq[-2], seq[-1]), -1))
    return [q for q in seq if q]


def _changes(signs) -> int:
    signs = [s for s in signs if s]
    return sum(a != b for a, b in zip(signs, signs[1:]))


def _variations(seq, x: Fraction) -> int:
    return _changes([sign_at(q, x) for q in seq])


def _root_bound(p) -> Fraction:
    """A power of two above Cauchy's bound on the roots of p."""
    bound = 1 + max(Fraction(abs(a), abs(p[-1])) for a in p[:-1])
    return Fraction(2) ** math.ceil(math.log2(bound))


def positive_roots(p, width=Fraction(1, 2**40)) -> list[tuple[Fraction, Fraction]]:
    """Isolating intervals [lo, hi] of the distinct roots of p in (0, inf),
    each narrowed to a relative width below ``width``: Sturm counts split
    (0, bound] until each interval holds one root, then the sign of p
    halves it."""
    p = squarefree(p)
    if len(p) < 2:
        return []
    seq = sturm(p)
    out, stack = [], [(Fraction(0), _root_bound(p))]
    while stack:
        lo, hi = stack.pop()
        count = _variations(seq, lo) - _variations(seq, hi)
        if count == 1:
            out.append(narrow(p, lo, hi, width))
        elif count > 1:
            mid = (lo + hi) / 2
            stack += [(lo, mid), (mid, hi)]
    return sorted(out)


def narrow(p, lo: Fraction, hi: Fraction, width: Fraction) -> tuple[Fraction, Fraction]:
    """Bisect [lo, hi], dyadic ends holding one simple root of p, by the
    sign of p until its width is at most ``width * hi``."""
    den = max(lo.denominator, hi.denominator)
    a, b = int(lo * den), int(hi * den)
    w_num, w_den = width.numerator, width.denominator
    s_hi = _sign_at(p, b, den)
    while (b - a) * w_den > w_num * b:
        mid, a, b, den = a + b, 2 * a, 2 * b, 2 * den
        s = _sign_at(p, mid, den)
        if s == 0:
            return Fraction(mid, den), Fraction(mid, den)
        a, b = (a, mid) if s == s_hi else (mid, b)
    return Fraction(a, den), Fraction(b, den)


def has_root(seq, lo: Fraction, hi: Fraction) -> bool:
    """Whether the polynomial of the Sturm sequence ``seq`` vanishes in
    [lo, hi]."""
    return sign_at(seq[0], lo) == 0 or _variations(seq, lo) != _variations(seq, hi)


def det(M) -> tuple[int, ...]:
    """Determinant of a square matrix of polynomials, by cofactor expansion."""
    n = len(M)
    if n == 1:
        return M[0][0]
    total = ()
    for j in range(n):
        if M[0][j]:
            minor = [row[:j] + row[j + 1:] for row in M[1:]]
            term = mul(M[0][j], det(minor))
            total = add(total, term if j % 2 == 0 else scale(term, -1))
    return total


def _dyadic(values) -> tuple[tuple[int, ...], int]:
    """Integers k_i and the power of two e with values = k / e."""
    fr = [Fraction(float(v)) for v in values]
    e = max(f.denominator for f in fr)
    return tuple(int(f * e) for f in fr), e


@functools.lru_cache(maxsize=None)
def _det_and_adjugate(q: tuple, n: int) -> tuple[tuple, tuple]:
    """det and adj of ``q + tau L`` for the integer q (flattened), as
    polynomials in tau, memoized per q."""
    G = [[_trim((q[i * n + j], (-1 if i == 0 else 1) if i == j else 0)) for j in range(n)]
         for i in range(n)]
    adj = [[()] * n for _ in range(n)]
    for i, j in itertools.product(range(n), repeat=2):
        minor = [row[:i] + row[i + 1:] for k, row in enumerate(G) if k != j]
        cof = det(minor) if n > 1 else (1,)
        adj[i][j] = cof if (i + j) % 2 == 0 else scale(cof, -1)
    return det(G), tuple(tuple(row) for row in adj)


def inertia(A) -> tuple[int, int, int]:
    """(n_pos, n_zero, n_neg) of an integer symmetric matrix, exactly:
    Descartes' rule of signs on its real-rooted characteristic polynomial."""
    n = len(A)
    chi = det([[_trim((-A[i][j], 1 if i == j else 0)) for j in range(n)] for i in range(n)])
    zero = next(i for i, a in enumerate(chi) if a)
    pos = _changes([_sign(a) for a in chi])
    neg = _changes([_sign(a) * (-1) ** i for i, a in enumerate(chi)])
    return pos, zero, neg


@dataclass(frozen=True)
class Multiplier:
    """An exact multiplier sigma > 0 off the poles, in [lo, hi]."""

    lo: Fraction
    hi: Fraction
    positive_nappe: bool
    inertia: tuple[int, int, int]

    def contains(self, sigma: float, rel: float) -> bool:
        """Whether the float sigma lies within rel * (1 + |sigma|) of the
        interval."""
        s = Fraction(sigma)
        slack = Fraction(rel) * (1 + max(abs(s), self.hi))
        return self.lo - slack <= s <= self.hi + slack


@dataclass(frozen=True)
class Verdict:
    vanishes: bool  # g = 0 for every sigma
    multipliers: tuple[Multiplier, ...]
    poles: tuple[tuple[Fraction, Fraction], ...]  # isolating intervals of det G

    def near_pole(self, sigma: float, rel: float) -> bool:
        """Whether sigma lies within rel relative of 0 or of a pole."""
        s = Fraction(sigma)
        slack = Fraction(rel) * (1 + abs(s))
        return abs(s) <= slack or any(lo - slack <= s <= hi + slack for lo, hi in self.poles)


def judge(Q, c) -> Verdict:
    """The exact multipliers sigma > 0 off the poles of (Q, c)."""
    n = len(c)
    q, s = _dyadic([v for row in Q for v in row])
    cq, _ = _dyadic(c)
    # s G(sigma) = q + tau L with tau = s sigma: the polynomials below are in
    # tau, and every root is divided by s
    d, adj = _det_and_adjugate(q, n)
    y = [()] * n
    for i in range(n):
        for j in range(n):
            if cq[j]:
                y[i] = add(y[i], scale(adj[i][j], cq[j]))
    P = scale(mul(y[0], y[0]), -1)
    for i in range(1, n):
        P = add(P, mul(y[i], y[i]))
    poles = tuple((lo / s, hi / s) for lo, hi in positive_roots(d)) if len(d) > 1 else ()
    if not P:
        return Verdict(True, (), poles)
    if not d:  # G(sigma) singular for every sigma: no multiplier off the poles
        return Verdict(False, (), poles)
    core = squarefree(coprime_part(P, d))
    d_seq = sturm(squarefree(d)) if len(d) > 1 else None
    y0_seq = sturm(squarefree(y[0])) if len(y[0]) > 1 else None
    shared = sturm(gcd(core, y[0])) if y[0] else None  # x0 = 0 at a root of these
    found = []
    for lo, hi in positive_roots(core):
        # shrink the interval until det G, and y0 unless it vanishes at the
        # multiplier, keep their signs on it
        at_zero = not y[0] or (len(shared[0]) > 1 and has_root(shared, lo, hi))
        while (d_seq and has_root(d_seq, lo, hi)) or (
                not at_zero and y0_seq and has_root(y0_seq, lo, hi)):
            lo, hi = narrow(core, lo, hi, (hi - lo) / (2 * hi))
        mid = (lo + hi) / 2
        num, den = mid.numerator, mid.denominator  # s G(mid) * den, an integer matrix
        G = [[q[i * n + j] * den + ((-num if i == 0 else num) if i == j else 0)
              for j in range(n)] for i in range(n)]
        x0_sign = 0 if at_zero else sign_at(y[0], mid) * sign_at(d, mid)
        found.append(Multiplier(lo / s, hi / s, x0_sign >= 0, inertia(G)))
    return Verdict(False, tuple(found), poles)

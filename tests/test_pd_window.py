"""The positive-definite window is the top pole cell.

L = diag(-1, 1, ..., 1) has one negative square, so a PD G(s) has exactly
one pole above s, and it is simple: only the top cell between the merged
poles can be PD.  The reference below is the cell scan that located the
window before that theorem was used: it factorizes the midpoint of every
cell from sigma = 0 upward and returns the first PD one.
"""

import itertools

import numpy as np
import pytest

from lorentzqp import DualInterval, ProblemInstance, dual, pd_interval, solve_problem
from lorentzqp.arrowhead import Arrowhead
from lorentzqp.fileio import GEN_KINDS, as_dense, gen_instance
from lorentzqp.linalg import factorize
from lorentzqp.model import lorentz_signs, natural_units, shifted_hessian


def scan_window(p: ProblemInstance) -> DualInterval | None:
    """Every pole cell's midpoint, from sigma = 0 up to Q[0,0]."""
    breaks, zero_singular = dual._pole_cells(Arrowhead(p).poles)
    cap = float(p.Q[0, 0])
    if cap <= 0.0:
        return None
    for i, (lo, hi) in enumerate(zip(breaks[:-1], breaks[1:])):
        if lo >= cap:
            break
        if factorize(shifted_hessian(p, 0.5 * (lo + hi))).positive_definite:
            return DualInterval(lo=lo, hi=hi, lo_singular=i > 0 or zero_singular,
                                hi_singular=True)
    return None


def coercive(rng, n: int) -> ProblemInstance:
    """Q = P - mu*L with P PD: indefinite, with mu inside its window."""
    A = rng.standard_normal((n, n))
    P = A @ A.T + 0.1 * np.eye(n)
    mu = rng.uniform(0.2, 3.0) * float(np.max(np.abs(P)))
    return ProblemInstance(Q=P - mu * np.diag(lorentz_signs(n)), c=rng.standard_normal(n))


def light_like_pole(rng, k: int) -> ProblemInstance:
    """Q = M - s*L with M u = 0 for a light-like u: a defective pole at s."""
    n = int(rng.integers(2, 6))
    t = rng.standard_normal(n - 1)
    u = np.concatenate(([1.0], t / np.linalg.norm(t)))
    X = rng.standard_normal((n, n))
    Pu = np.eye(n) - np.outer(u, u) / (u @ u)
    c = rng.standard_normal(n)
    if k % 3 == 0:
        c = c - (c @ u) / (u @ u) * u + 1e-6 * u
    s = rng.uniform(0.1, 2.0)
    return ProblemInstance(Q=Pu @ X @ X.T @ Pu - s * np.diag(lorentz_signs(n)), c=c)


def census():
    for kind in GEN_KINDS:
        for n in (2, 3, 5, 20, 50):
            for seed in range(12 if n < 20 else 2):
                yield as_dense(gen_instance(kind, n, 40_000 + seed))
    rng = np.random.default_rng(41)
    for _ in range(150):
        yield coercive(rng, int(rng.integers(2, 7)))
    rng = np.random.default_rng(42)
    for k in range(150):
        yield light_like_pole(rng, k)
    for e in itertools.islice(itertools.product((-2.0, -1.0, 1.0, 2.0), repeat=6), 0, 4096, 4):
        Q = [[e[0], e[1], e[2]], [e[1], e[3], e[4]], [e[2], e[4], e[5]]]
        yield ProblemInstance(Q=Q, c=[1.0001, 0.6, 0.8])
    rng = np.random.default_rng(43)
    for _ in range(150):
        n = int(rng.integers(2, 6))
        c = rng.choice([-1.0, 0.0, 0.5, 1.0], n)
        c[0] = c[0] or 1.0
        yield ProblemInstance(Q=np.diag(rng.choice([-2.0, -1.0, 0.5, 1.0, 2.0], n)), c=c)


def test_top_cell_equals_the_cell_scan():
    windows, above_a_cell = 0, 0
    for k, p in enumerate(census()):
        w = pd_interval(p)
        assert w == scan_window(p), k
        windows += w is not None
        above_a_cell += w is not None and w.lo > 0.0
    assert windows > 250 and above_a_cell > 100


def counted_eigh(monkeypatch) -> list[np.ndarray]:
    """Record every matrix passed to ``np.linalg.eigh``."""
    seen = []

    def counted(G, *args, _eigh=np.linalg.eigh, **kwargs):
        seen.append(np.array(G))
        return _eigh(G, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    return seen


def test_window_costs_no_factorization(monkeypatch):
    # three cells below the window: the scan factorized four midpoints; the
    # arrowhead decides the window from the inertia of its midpoint, and its
    # one eigh is of the tail block
    p = coercive(np.random.default_rng(0), 5)
    breaks, _ = dual._pole_cells(Arrowhead(p).poles)
    assert len(breaks) >= 5
    seen = counted_eigh(monkeypatch)
    w = pd_interval(p)
    assert w is not None and w.lo == breaks[-2] and w.hi == breaks[-1]
    assert [G.shape for G in seen] == [(4, 4)]
    # poles 1, 2, 3: the top cell [2, 3] starts above Q[0,0] = 1
    assert pd_interval(ProblemInstance(Q=np.diag([1.0, -2.0, -3.0]), c=[1, 1, 1])) is None
    assert [G.shape for G in seen] == [(4, 4), (2, 2)]


@pytest.mark.parametrize("Q, c", [
    (np.eye(2), [0.0, 1.0]),
    (np.diag([2.0, 1.0, 3.0]), [0.0, 1.0, 0.0]),
])
def test_window_fallback_factorizes_no_midpoint(monkeypatch, Q, c):
    # no multiplier inside the window: the hard-case sign of g at the
    # midpoint comes from an arrowhead solve there, and the hard case's
    # null space from the same arrowhead at the pole; the only eigh is of
    # the tail block of the problem in natural units
    p = ProblemInstance(Q=Q, c=c)
    q, _, _ = natural_units(p)
    seen = counted_eigh(monkeypatch)
    rep = solve_problem(p)
    assert rep.exit_code == 3
    assert len(seen) == 1 and np.array_equal(seen[0], q.Q[1:, 1:])

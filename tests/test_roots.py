"""The roots of the secular function f: the two executions of one iteration
(``_bracket_roots`` and ``Arrowhead._pair``), the array sweeps that serve
from ``_SWEEP_POLES`` coupled poles up and the per-bracket steps on Python
floats below, against each other, with a numpy.longdouble Newton polish
and the backward error of each root as the referees of accuracy."""

import itertools

import numpy as np
import pytest

from lorentzqp import ProblemInstance, arrowhead, solve_problem
from lorentzqp.arrowhead import Pencil
from lorentzqp.fileio import as_dense, gen_instance
from conftest import census_720, integer_census, light_like_family, repeated_entry_instances
from test_arrowhead import instances

LD = np.longdouble
EPS = float(np.finfo(float).eps)
# the largest number of sweeps of the bracket iteration on CORPORA
SWEEP_BOUND = 18
# per size n of gen_instance convex/indefinite seeds 0-29 (the sizes of the
# dense benchmark): the sweeps of all 60 arrowheads and of the slowest one
DENSE_SWEEPS = {20: (234, 5), 50: (250, 6), 100: (263, 6)}
# the exceptional cluster's roots from the two executions agree to this,
# relative to 1 + |root|: its real roots have the same bits, its complex
# pair differs by the rounding of the polish (up to 1.4e-7 on the integer
# census, where the cluster is a split double pole)
NEAR = 1e-6


def distinct_q(problems):
    """The roots of f depend on Q alone: one problem per distinct Q."""
    seen = set()
    for p in problems:
        if p.Q.tobytes() not in seen:
            seen.add(p.Q.tobytes())
            yield p


CORPORA = {
    "instances": lambda: instances(),
    "census": census_720,
    "integer": lambda: distinct_q(integer_census()),
    "repeated": repeated_entry_instances,
    "rng2": lambda: light_like_family("rng2", 400),
    "rng3": lambda: light_like_family("rng3", 600),
    # 29 and 30 coupled poles, either side of _SWEEP_POLES, and 32 and 49
    "crossover": lambda: (as_dense(gen_instance(kind, n, 60_000 + seed))
                          for n in (30, 31, 33, 50) for kind in ("convex", "indefinite")
                          for seed in range(4)),
}


def both_paths(a):
    """(origin, tau) of every real root and the complex root (or None) of
    the arrowhead a, from the array sweeps and from the scalar loops."""
    nu, d2 = a._nuc, a._d2c
    out = []
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for rows in (True, False):
            origin, tau = arrowhead._bracket_roots(a.alpha, nu, d2, rows)
            pair, near = a._pair(nu, d2, tau - nu[origin], rows)
            if near is None:
                out.append((origin, tau, pair[0]))
            else:
                out.append((np.concatenate((origin, near[1])), np.concatenate((tau, near[0])), None))
    return out


def referee(a, origin, tau, z=None):
    """For each real root (tau, origin) of the arrowhead a: its longdouble
    Newton polish on tau f, each step less than half the distance to the
    nearest other root of f (z and its conjugate among them), so that it
    does not cross from a nearly multiple root to its neighbour; the radius
    of the band in which rounding leaves f in doubles there, from the bound
    e = (m + 4) eps S of its evaluation error, S the sum of the absolute
    values of its terms (see ``_band``); and the backward error of tau,
    |f(tau)| over 2 e + 4 ulps of tau times |f'(tau)|, at most 1 for a root
    of f to rounding (2 e is |f'| times the band of a simple root)."""
    nu, d2 = a._nuc.astype(LD), a._d2c.astype(LD)
    m, rows = nu.size, np.arange(tau.size)
    if not tau.size:
        return tau, tau, tau
    roots = np.concatenate((tau - a._nuc[origin], [] if z is None else [z, np.conj(z)]))
    gaps = np.abs(roots[:tau.size, None] - roots)
    gaps[rows, rows] = np.inf
    half = 0.5 * gaps.min(axis=1)
    no, do = nu[origin], d2[origin]
    base = nu - no[:, None]
    base[rows, origin] = np.inf

    def terms(t):
        """1 / (nu_j - nu_o + t) over the other poles, f without the pole
        term, and the error bound e of f."""
        inv = 1 / (base + t[:, None])
        size = abs(a.alpha) + np.abs(no) + np.abs(t) + np.abs(inv) @ d2 + do / np.abs(t)
        return inv, (LD(a.alpha) + no - t) - inv @ d2, (m + 4) * EPS * size

    t, last = tau.astype(LD), np.full(tau.size, np.inf)
    inv, w, e = terms(t)
    slope = (inv * inv) @ d2 + do / (t * t) - 1
    backward = (np.abs(w - do / t) / (2 * e + np.abs(slope) * 4 * np.spacing(np.abs(tau)))).astype(float)
    for _ in range(200):  # each root until its step stops shrinking
        step = (t * w - do) / (w + t * ((inv * inv) @ d2 - 1))
        live = np.abs(step) < np.minimum(last, half)
        if not live.any():
            break
        t, last = np.where(live, t - step, t), np.where(live, np.abs(step), 0)
        inv, w, e = terms(t)
    slopes = [(inv * inv) @ d2 + do / (t * t) - 1]
    slopes += [(-inv) ** (k + 1) @ d2 + do / (-t) ** (k + 1) for k in (2, 3)]
    return t, _band(e, slopes), backward


def complex_referee(a, z):
    """A longdouble Newton polish of the complex root z on f, and its band
    as in ``referee``."""
    nu, d2 = a._nuc.astype(LD), a._d2c.astype(LD)
    w = np.clongdouble(z)
    last = np.inf
    for _ in range(200):
        inv = 1 / (nu + w)
        step = (LD(a.alpha) - w - inv @ d2) / ((inv * inv) @ d2 - 1)
        if not abs(step) < last:
            break
        w, last = w - step, abs(step)
    inv = 1 / (nu + w)
    slopes = [(inv * inv) @ d2 - 1] + [(-inv) ** (k + 1) @ d2 for k in (2, 3)]
    return w, float(_band((nu.size + 4) * EPS * (abs(a.alpha) + abs(w) + np.abs(inv) @ d2), slopes))


def _band(e, slopes):
    """The radius within which rounding may leave f, whose value has the
    error bound e, from its first three Taylor coefficients ``slopes`` at
    the root: twice the least of (e / |s_k|)^(1/k), where the radius of
    the k-th term alone would be (e / |s_k|)^(1/k) and the others cancel
    at most as much again."""
    return 2 * np.min([(e / np.abs(s)) ** (1 / k) for k, s in enumerate(slopes, 1)],
                  axis=0).astype(float)


@pytest.mark.parametrize("corpus", list(CORPORA))
def test_sweeps_against_the_scalar_loops(corpus, monkeypatch):
    # both executions alike to the band that rounding of f leaves
    # (``compare_roots``); the same roots in the exceptional cluster, and
    # the same poles to the rounding of their roots
    compared = 0
    for p in CORPORA[corpus]():
        a = Pencil(p).arrow
        if a._nuc.size:
            with np.errstate(divide="ignore", invalid="ignore"):  # a root on its pole
                compare_roots(a)
        got = {}
        for threshold in (0, 10 ** 9):  # every arrowhead on the sweeps, then on the loops
            monkeypatch.setattr(arrowhead, "_SWEEP_POLES", threshold)
            b = Pencil(p).arrow
            got[threshold] = (np.sort_complex(b.roots[b.block.chain] if b.block else []),
                              b.poles)
        (chain, poles), (chain_old, poles_old) = got[0], got[10 ** 9]
        assert len(chain) == len(chain_old), p.Q.tolist()
        assert np.all(np.abs(chain - chain_old) <= NEAR * (1 + np.abs(chain))), p.Q.tolist()
        assert poles == pytest.approx(poles_old, rel=1e-9, abs=1e-12), p.Q.tolist()
        compared += 1
    assert compared > 0


def compare_roots(a):
    """Both executions of the iteration on the arrowhead a: the same
    origins and the pair real or complex alike; each root within the band
    that rounding of f leaves there (``referee``) plus 4 ulps of the other
    execution's root and of its longdouble polish (but on its pole, where
    that polish does not start); and each real root a root of f to within
    the error of f's evaluation in doubles (its backward error), which
    judges a nearly multiple cluster too, where the polish cannot separate
    the roots."""
    (o_rows, t_rows, z_rows), (o_loops, t_loops, z_loops) = both_paths(a)
    np.testing.assert_array_equal(o_rows, o_loops)
    assert (z_rows is None) == (z_loops is None), (a._nuc, z_rows, z_loops)
    ref, band, backward = referee(a, o_rows, t_rows, z_rows)
    ulp = 4 * np.spacing(np.abs(t_rows))
    off = t_rows != 0.0
    gap, err = np.abs(t_rows - t_loops), np.abs(t_rows - ref).astype(float)
    assert np.all(gap <= band + ulp), (a.alpha, a._nuc, a._d2c, gap, band)
    assert np.all((err <= band + ulp)[off]), (a.alpha, a._nuc, a._d2c, err, band)
    assert np.all(backward[off] <= 1.0), (a.alpha, a._nuc, a._d2c, backward)
    if z_rows is not None:
        w, band = complex_referee(a, z_rows)
        ulp = 4 * np.spacing(abs(z_rows))
        assert abs(z_rows - z_loops) <= band + ulp, (a._nuc, z_rows, z_loops, band)
        assert float(abs(z_rows - w)) <= band + ulp, (a._nuc, z_rows, w, band)


def test_the_bracket_sweeps_are_bounded(monkeypatch):
    # every bracket stops after a step of at most _LAST_STEP of its
    # iterate; the sweeps that take all of them there are bounded
    counts = []

    def counted(*args, _sums=arrowhead._sweep_sums):
        counts[-1] += 1
        return _sums(*args)

    monkeypatch.setattr(arrowhead, "_sweep_sums", counted)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for p in itertools.chain(*(corpus() for corpus in CORPORA.values())):
            a = Pencil(p).arrow
            for rows in (True, False):
                counts.append(0)
                arrowhead._bracket_roots(a.alpha, a._nuc, a._d2c, rows)
    assert 0 < max(counts[0::2]) <= SWEEP_BOUND and 0 < max(counts[1::2]) <= SWEEP_BOUND


def test_sweeps_per_arrowhead_at_the_dense_sizes(monkeypatch):
    # the start and the steps take most arrowheads through in about three
    # or four sweeps: their total and maximum at each size may only fall
    counts = []

    def counted(*args, _sums=arrowhead._sweep_sums):
        counts[-1] += 1
        return _sums(*args)

    monkeypatch.setattr(arrowhead, "_sweep_sums", counted)
    for n, (total, most) in DENSE_SWEEPS.items():
        for rows in (True, False):
            counts.clear()
            for kind in ("convex", "indefinite"):
                for seed in range(30):
                    a = Pencil(as_dense(gen_instance(kind, n, seed))).arrow
                    counts.append(0)
                    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
                        arrowhead._bracket_roots(a.alpha, a._nuc, a._d2c, rows)
            assert sum(counts) <= total and max(counts) <= most, (n, rows, counts)


def test_split_double_pole_lists_the_same_poles_at_every_scale():
    # rng-3 instance #240 has a double pole at 1.3711052 that rounding splits
    # into the complex pair 0.3427763 +- 2.4e-10 i of f in natural units,
    # where no root passes the _CHAIN_TOL test: the pair is the exceptional
    # cluster, a double pole at its center, at x1, x1e-6 and x1e6 alike
    p = list(light_like_family("rng3", 241))[240]
    poles = {}
    for scale in (1.0, 1e-6, 1e6):
        q = ProblemInstance(Q=scale * p.Q, c=p.c)
        poles[scale] = [pole / scale for pole in Pencil(q).poles]
        report = solve_problem(q)
        assert (report.exit_code, len(report.critical_points)) == (4, 0)
    assert len(poles[1.0]) == 3
    for scale in (1e-6, 1e6):
        assert poles[scale] == pytest.approx(poles[1.0], rel=1e-9)
    assert poles[1.0] == pytest.approx([0.98673083, 1.37110520, 1.37110520], rel=1e-7)

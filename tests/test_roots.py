"""The roots of the secular function f: the array sweeps (``_bracket_sweeps``
and the sweep branch of ``Arrowhead._pair``) against the per-bracket scalar
loops that serve fewer than ``_SWEEP_POLES`` coupled poles, with a
numpy.longdouble Newton polish as the referee of accuracy."""

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
# roots of f nearer than this, relative to max(1, |root|), are a nearly
# multiple cluster: rounding decides which of them a bracket holds and
# whether the pair beyond the brackets is real or complex
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
    # 29 and 32 coupled poles, either side of _SWEEP_POLES, and 49
    "crossover": lambda: (as_dense(gen_instance(kind, n, 60_000 + seed))
                          for n in (30, 33, 50) for kind in ("convex", "indefinite")
                          for seed in range(4)),
}


def both_paths(a):
    """(origin, tau) of every real root and the complex root (or None) of
    the arrowhead a, from the array sweeps and from the scalar loops."""
    nu, d2 = a._nuc, a._d2c
    out = []
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for sweep, brackets in ((True, arrowhead._bracket_sweeps),
                                (False, arrowhead._bracket_roots)):
            origin, tau = brackets(a.alpha, nu, d2)
            pair, near = a._pair(nu, d2, tau - nu[origin], sweep)
            if near is None:
                out.append((origin, tau, pair[0]))
            else:
                out.append((np.concatenate((origin, near[1])), np.concatenate((tau, near[0])), None))
    return out


def referee(a, origin, tau):
    """A longdouble Newton polish of each real root (tau, origin) on tau f,
    and the radius of the band in which rounding leaves f in doubles, from
    the bound (m + 4) eps S of its evaluation error, S the sum of the
    absolute values of its terms (see ``_band``)."""
    nu, d2 = a._nuc.astype(LD), a._d2c.astype(LD)
    m, rows = nu.size, np.arange(tau.size)
    if not tau.size:
        return tau, tau
    no, do = nu[origin], d2[origin]
    base = nu - no[:, None]
    base[rows, origin] = np.inf
    t, last = tau.astype(LD), np.full(tau.size, np.inf)
    for _ in range(200):  # each root until its step stops shrinking
        inv = 1 / (base + t[:, None])
        w = (LD(a.alpha) + no - t) - inv @ d2
        step = (t * w - do) / (w + t * ((inv * inv) @ d2 - 1))
        live = np.abs(step) < last
        if not live.any():
            break
        t, last = np.where(live, t - step, t), np.where(live, np.abs(step), 0)
    inv = 1 / (base + t[:, None])
    size = abs(a.alpha) + np.abs(no) + np.abs(t) + np.abs(inv) @ d2 + do / np.abs(t)
    slopes = [(inv * inv) @ d2 + do / (t * t) - 1]
    slopes += [(-inv) ** (k + 1) @ d2 + do / (-t) ** (k + 1) for k in (2, 3)]
    return t, _band((m + 4) * EPS * size, slopes)


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
    # the same origins; each root no farther from its longdouble polish
    # than the scalar root, or than the band that rounding of f leaves,
    # plus 4 ulps; the same roots in the exceptional cluster, and the same
    # poles to the rounding of their roots
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
    """The roots of both paths to NEAR of each other; outside a nearly
    multiple cluster, where rounding decides which root a bracket holds and
    whether a pair is real, the same origins and each root to the
    referee."""
    (o_new, t_new, z_new), (o_old, t_old, z_old) = both_paths(a)
    roots = [np.sort_complex(np.concatenate((t - a._nuc[o], [] if z is None else [z, np.conj(z)])))
             for o, t, z in ((o_new, t_new, z_new), (o_old, t_old, z_old))]
    scale = NEAR * max(1.0, float(np.abs(roots[0]).max()))
    assert np.abs(roots[0] - roots[1]).max() <= scale, (a._nuc, roots)
    if np.abs(np.diff(roots[0])).min() <= scale:
        return
    np.testing.assert_array_equal(o_new, o_old)
    ref, band = referee(a, o_new, t_new)
    ulp = 4 * np.spacing(np.abs(t_new))
    new, old = np.abs(t_new - ref).astype(float), np.abs(t_old - ref).astype(float)
    assert np.all(new <= np.maximum(old, band) + ulp), (a.alpha, a._nuc, a._d2c, new, old, band)
    assert (z_new is None) == (z_old is None)
    if z_new is not None:
        w, band = complex_referee(a, z_new)
        new, old = float(abs(z_new - w)), float(abs(z_old - w))
        assert new <= max(old, band) + 4 * np.spacing(abs(z_new)), (a._nuc, z_new, z_old, band)


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
            counts.append(0)
            arrowhead._bracket_sweeps(a.alpha, a._nuc, a._d2c)
    assert 0 < max(counts) <= SWEEP_BOUND


def test_sweeps_per_arrowhead_at_the_dense_sizes(monkeypatch):
    # the start and the steps take most arrowheads through in about three
    # or four sweeps: their total and maximum at each size may only fall
    counts = []

    def counted(*args, _sums=arrowhead._sweep_sums):
        counts[-1] += 1
        return _sums(*args)

    monkeypatch.setattr(arrowhead, "_sweep_sums", counted)
    for n, (total, most) in DENSE_SWEEPS.items():
        counts.clear()
        for kind in ("convex", "indefinite"):
            for seed in range(30):
                a = Pencil(as_dense(gen_instance(kind, n, seed))).arrow
                counts.append(0)
                with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
                    arrowhead._bracket_sweeps(a.alpha, a._nuc, a._d2c)
        assert sum(counts) <= total and max(counts) <= most, (n, counts)


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

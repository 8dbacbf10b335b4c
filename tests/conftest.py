import itertools
import pathlib

import numpy as np
import pytest

from lorentzqp import DiagonalInstance, ProblemInstance
from lorentzqp.fileio import as_dense, gen_instance
from lorentzqp.model import lorentz_signs

PROBLEM_DIR = pathlib.Path(__file__).resolve().parent.parent / "problems"


@pytest.fixture
def problem_dir() -> pathlib.Path:
    return PROBLEM_DIR


@pytest.fixture
def dense_2d() -> ProblemInstance:
    """2-D coupled instance with a certified boundary minimum at (0.55, 0.55)."""
    return ProblemInstance(Q=[[1.8, 0.4], [0.4, -0.6]], c=[0.5, 0.6])


@pytest.fixture
def dense_3d() -> ProblemInstance:
    """3-D indefinite instance; its best KKT point carries no certificate."""
    return ProblemInstance(Q=[[2.0, -1.0, 2.0], [-1.0, -2.0, 0.0], [2.0, 0.0, 1.0]],
                           c=[1.5, -0.5, 1.5])


@pytest.fixture
def diag_saddle() -> DiagonalInstance:
    """Diagonal instance whose only cone-feasible KKT point is a saddle."""
    return DiagonalInstance(q=[0.1, -0.3], c=[0.5, -0.3])


@pytest.fixture
def diag_certified() -> DiagonalInstance:
    """Diagonal instance with a certified solution sigma=0.45, x=(2,-2)."""
    return DiagonalInstance(q=[0.7, -0.3], c=[0.5, -0.3])


@pytest.fixture
def roots_and_eighs(monkeypatch) -> dict:
    """Counts of ``Arrowhead._roots`` and ``numpy.linalg.eigh`` calls, from
    this fixture on; reset them with ``update(roots=0, eigh=0)``."""
    from lorentzqp.arrowhead import Arrowhead

    calls = {"roots": 0, "eigh": 0}

    def roots(self, *args, _roots=Arrowhead._roots):
        calls["roots"] += 1
        return _roots(self, *args)

    def eigh(*args, _eigh=np.linalg.eigh, **kwargs):
        calls["eigh"] += 1
        return _eigh(*args, **kwargs)

    monkeypatch.setattr(Arrowhead, "_roots", roots)
    monkeypatch.setattr(np.linalg, "eigh", eigh)
    return calls


@pytest.fixture
def hardcase_2d() -> ProblemInstance:
    """Q = I, c = (0, 1): dual supremum only at the singular boundary."""
    return ProblemInstance(Q=np.eye(2), c=[0.0, 1.0])


def random_orthogonal(rng, m: int) -> np.ndarray:
    A = rng.standard_normal((m, m))
    Qm, R = np.linalg.qr(A)
    return Qm * np.sign(np.diag(R))


# ---------------------------------------------------------------------------
# corpora shared by several test modules


def census_720():
    """gen_instance of kinds convex, indefinite and diagonal at n in
    {2, 3, 5, 20}, seeds 20000-20059."""
    for kind in ("convex", "indefinite", "diagonal"):
        for n in (2, 3, 5, 20):
            for seed in range(20000, 20060):
                yield as_dense(gen_instance(kind, n, seed))


def integer_census():
    """Every symmetric Q in {-1,0,1}^{3x3} with six c, and every symmetric Q
    in {-2,-1,1,2}^{3x3} with c = (1.0001, 0.6, 0.8): 8,470 instances with
    exactly singular Q, defective poles at 0 that round-off moves off 0,
    and G(sigma) proportional to (sigma - pole)."""
    def sym(e):
        return [[e[0], e[1], e[2]], [e[1], e[3], e[4]], [e[2], e[4], e[5]]]

    cs = [(1, 0.3, -0.2), (0.5, 1, 0), (1, 1, 0), (2, -1, 0.5), (1, 0, 0), (0, 1, 0)]
    for e in itertools.product((-1.0, 0.0, 1.0), repeat=6):
        for c in cs:
            yield ProblemInstance(Q=sym(e), c=c)
    for e in itertools.product((-2.0, -1.0, 1.0, 2.0), repeat=6):
        yield ProblemInstance(Q=sym(e), c=(1.0001, 0.6, 0.8))


def repeated_entry_instances():
    """Diagonal entries from {-2, -1, 0.5, 1, 2}, every second instance with
    a random tail rotation: repeated eigenvalues of L Q throughout."""
    rng = np.random.default_rng(11)
    for k in range(800):
        n = int(rng.integers(2, 7))
        Q = np.diag(rng.choice([-2.0, -1.0, 0.5, 1.0, 2.0], n))
        c = rng.choice([-1.0, 0.0, 0.5, 1.0], n)
        c[0] = c[0] or 1.0
        if k % 2:
            T = np.eye(n)
            T[1:, 1:] = np.linalg.qr(rng.standard_normal((n - 1, n - 1)))[0]
            Q, c = T.T @ Q @ T, T.T @ c
        yield ProblemInstance(Q=Q, c=c)


def light_like_family(family: str, count: int):
    """Q = M - s*L with M u = 0 for a light-like u: a nearly defective pole
    at s.  "rng3": M = Pu X X' Pu, every third c nearly orthogonal to u (a
    1e-6 component along it); "rng2": M = P (B + B') P, every third c with
    a component of 1e-14 to 1e-6 along u."""
    rng = np.random.default_rng(3 if family == "rng3" else 2)
    for k in range(count):
        if family == "rng3":
            n = int(rng.integers(2, 6))
            t = rng.standard_normal(n - 1)
            u = np.concatenate(([1.0], t / np.linalg.norm(t)))
            X = rng.standard_normal((n, n))
            Pu = np.eye(n) - np.outer(u, u) / (u @ u)
            M = Pu @ X @ X.T @ Pu
            s = rng.uniform(0.1, 2.0)
            c = rng.standard_normal(n)
            if k % 3 == 0:
                c = c - (c @ u) / (u @ u) * u + 1e-6 * u
        else:
            n = int(rng.integers(2, 5))
            u = np.ones(n)
            t = rng.standard_normal(n - 1)
            u[1:] = t / np.linalg.norm(t)
            B = rng.standard_normal((n, n))
            P = np.eye(n) - np.outer(u, u) / (u @ u)
            M = P @ (B + B.T) @ P
            s = rng.uniform(0.1, 3.0)
            c = rng.uniform(-2.0, 2.0, n)
            if k % 3 == 0:
                c = c - (c @ u) / (u @ u) * u + 10.0 ** rng.uniform(-14, -6) * u
        yield ProblemInstance(Q=M - s * np.diag(lorentz_signs(n)), c=c)

import pathlib

import numpy as np
import pytest

from lorentzqp import DiagonalInstance, ProblemInstance

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

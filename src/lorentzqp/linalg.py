"""Dense symmetric linear algebra, the reference that the arrowhead form of
the pencil (``arrowhead``) is tested against, and the singular shifts of
det(Q + sigma*L) = 0.  ``factorize`` computes G = U diag(w) U' with LAPACK
and reads its inertia, singularity, solves and null space under the zero
band ``arrowhead.TOL_EIG``; no package path calls it, as ``Arrowhead`` gives
each of these in O(n) per shift.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .arrowhead import TOL_EIG, Pencil
from .model import ProblemInstance

__all__ = [
    "SingularMatrixError",
    "Factorization",
    "factorize",
    "solve_linear",
    "min_eigenvalue",
    "pencil_singular_sigmas",
]


class SingularMatrixError(np.linalg.LinAlgError):
    """Raised when a solve hits a (numerically) singular shifted Hessian."""

    def __init__(self, message: str, sigma: float | None = None):
        super().__init__(message)
        self.sigma = sigma


@dataclass(frozen=True)
class Factorization:
    """Symmetric eigendecomposition G = U diag(w) U', eigenvalues ascending.

    Eigenvalues with |w| <= band count as zero, where
    ``band = TOL_EIG * max(1, ||G||_inf)``.
    """

    G: np.ndarray
    w: np.ndarray
    U: np.ndarray
    band: float

    @property
    def n(self) -> int:
        return self.G.shape[0]

    @property
    def null(self) -> np.ndarray:
        """Mask of the eigenvalues inside the zero band."""
        return np.abs(self.w) <= self.band

    @property
    def inertia(self) -> tuple[int, int, int]:
        """(n_pos, n_zero, n_neg) under the zero band."""
        n_pos = int(np.sum(self.w > self.band))
        n_zero = int(np.sum(self.null))
        return n_pos, n_zero, self.n - n_pos - n_zero

    @property
    def singular(self) -> bool:
        return bool(np.any(self.null))

    @property
    def positive_definite(self) -> bool:
        return bool(self.w[0] > self.band)


def factorize(G: np.ndarray) -> Factorization:
    """Eigendecomposition of a symmetric matrix with the zero band
    ``|lambda| <= TOL_EIG * max(1, ||G||_inf)``.  Singularity is reported,
    not raised; only subsequent solves raise.
    """
    G = np.asarray(G, dtype=float)
    w, U = np.linalg.eigh(G)
    band = TOL_EIG * max(1.0, float(np.abs(G).sum(axis=1).max()))
    return Factorization(G=G, w=w, U=U, band=band)


def solve_linear(f: Factorization, rhs) -> np.ndarray:
    """Solve G x = rhs as U (U' rhs / w).

    Raises SingularMatrixError on singular factorizations; those systems
    belong to the hard-case path instead.
    """
    if f.singular:
        raise SingularMatrixError(
            "shifted Hessian is singular; evaluate via the hard-case path instead"
        )
    return f.U @ ((f.U.T @ np.asarray(rhs, dtype=float)) / f.w)


def min_eigenvalue(G: np.ndarray) -> float:
    """Smallest eigenvalue of a symmetric matrix."""
    return float(np.linalg.eigvalsh(np.asarray(G, dtype=float))[0])


def pencil_singular_sigmas(p: ProblemInstance) -> list[float]:
    """All real sigma >= 0 with det(Q + sigma * diag(-1,1,...,1)) = 0, sorted.

    Multiplicities are kept.  ``Pencil(p).poles``, under the name that
    ``bench/tracer.py`` times."""
    return Pencil(p).poles

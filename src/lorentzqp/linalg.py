"""Dense symmetric linear algebra: one eigendecomposition per shifted
Hessian, and the singular shifts of det(Q + sigma*L) = 0.

Desk scale only (n up to a few hundred), backed by LAPACK through numpy.
``factorize`` computes G = U diag(w) U' once; its inertia, singularity,
solves and null space are all read from that decomposition under one
scale-free zero band.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import ProblemInstance, shifted_hessian

__all__ = [
    "SingularMatrixError",
    "Factorization",
    "factorize",
    "solve_linear",
    "min_eigenvalue",
    "lq_matrix",
    "spectrum_poles",
    "pencil_singular_sigmas",
]

DEFAULT_TOL_EIG = 1e-10
# Singular shifts down to -ZERO_POLE_TOL * (1 + max|Q|) are poles at 0.
ZERO_POLE_TOL = 1e-9


class SingularMatrixError(np.linalg.LinAlgError):
    """Raised when a solve hits a (numerically) singular shifted Hessian."""

    def __init__(self, message: str, sigma: float | None = None):
        super().__init__(message)
        self.sigma = sigma


@dataclass(frozen=True)
class Factorization:
    """Symmetric eigendecomposition G = U diag(w) U', eigenvalues ascending.

    Eigenvalues with |w| <= band count as zero, where
    ``band = tol_eig * max(1, ||G||_inf)``.
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


def factorize(G: np.ndarray, tol_eig: float = DEFAULT_TOL_EIG) -> Factorization:
    """Eigendecomposition of a symmetric matrix with a scale-free zero band
    ``|lambda| <= tol_eig * max(1, ||G||_inf)``.  Singularity is reported,
    not raised; only subsequent solves raise.
    """
    G = np.asarray(G, dtype=float)
    band = tol_eig * max(1.0, float(np.abs(G).sum(axis=1).max()))
    w, U = np.linalg.eigh(G)
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


def lq_matrix(p: ProblemInstance) -> np.ndarray:
    """L Q with L = diag(-1,1,...,1).  With L^2 = I, Q + sigma*L =
    L (L Q + sigma*I), so the singular shifts are its negated real
    eigenvalues."""
    LQ = p.Q.copy()
    LQ[0, :] = -LQ[0, :]
    return LQ


def spectrum_poles(p: ProblemInstance, w: np.ndarray) -> list[float]:
    """The singular shifts sigma >= 0, sorted and with multiplicities, read
    from the eigenvalues w of ``lq_matrix(p)``."""
    scale = 1.0 + float(np.max(np.abs(p.Q)))
    # A loose realness filter keeps nearly-real pairs (possible at eigenvalue
    # collisions); an extra breakpoint is harmless downstream.  A defective
    # double pole (light-like null vector) can split into a pair farther from
    # the real axis; such a pair counts twice when G is singular at its real
    # part.
    sig = list(-w[np.abs(w.imag) <= 1e-7 * scale].real)
    for lam in w[w.imag > 1e-7 * scale]:
        s = -float(lam.real)
        if s >= -ZERO_POLE_TOL * scale and factorize(shifted_hessian(p, max(s, 0.0))).singular:
            sig += [s, s]
    return sorted(float(max(s, 0.0)) for s in sig if s >= -ZERO_POLE_TOL * scale)


def pencil_singular_sigmas(p: ProblemInstance) -> list[float]:
    """All real sigma >= 0 with det(Q + sigma * diag(-1,1,...,1)) = 0, sorted.

    Multiplicities are kept.  ``spectrum_poles`` of the eigenvalues of L Q.
    """
    return spectrum_poles(p, np.linalg.eigvals(lq_matrix(p)))

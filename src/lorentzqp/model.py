"""Problem data and the basic cone geometry.

A problem instance is ``minimize 0.5*x'Qx - c'x`` over the closed Lorentz
(second-order) cone ``{x : ||x[1:]|| <= x[0]}``.  The signature vector
``(-1, 1, ..., 1)`` turns cone membership into the scalar inequality
``cone_quadratic(x) <= 0`` together with ``x[0] >= 0``; the same signature
shifts the Hessian into the one-parameter family ``Q + sigma*diag(-1,1,...,1)``
that the dual machinery works with.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

__all__ = [
    "ProblemInstance",
    "cone_quadratic",
    "primal_objective",
    "is_feasible",
    "shifted_hessian",
    "lagrangian",
    "lorentz_signs",
    "natural_scales",
    "natural_units",
]

# Relative asymmetry above this is treated as corrupt input rather than noise.
SYMMETRY_RTOL = 1e-12


@lru_cache(maxsize=64)
def lorentz_signs(n: int) -> np.ndarray:
    """Diagonal of the cone signature matrix: (-1, 1, ..., 1). Never stored densely.

    One read-only array per n, shared by every caller: copy it to modify it.
    """
    s = np.ones(n)
    s[0] = -1.0
    s.setflags(write=False)
    return s


def _frozen(a) -> np.ndarray:
    out = np.array(a, dtype=float)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class ProblemInstance:
    """Immutable quadratic-over-cone instance (symmetric Q, vector c, n >= 2).

    Q is symmetrized on construction; asymmetry beyond ``SYMMETRY_RTOL``
    relative to its magnitude is rejected as an input error.
    """

    Q: np.ndarray
    c: np.ndarray
    name: str | None = None
    n: int = field(init=False)

    def __post_init__(self):
        Q = np.asarray(self.Q, dtype=float)
        c = np.asarray(self.c, dtype=float)
        if Q.ndim != 2 or Q.shape[0] != Q.shape[1]:
            raise ValueError("Q must be a square matrix")
        n = Q.shape[0]
        if n < 2:
            raise ValueError("dimension must be at least 2 (cone needs a tail block)")
        if c.shape != (n,):
            raise ValueError(f"c must have length {n}, got shape {c.shape}")
        if not np.isfinite(Q).all() or not np.isfinite(c).all():
            raise ValueError("Q and c must be finite")
        scale = max(1.0, float(np.abs(Q).max()))
        if float(np.abs(Q - Q.T).max()) > SYMMETRY_RTOL * scale:
            raise ValueError("Q is not symmetric (relative asymmetry above 1e-12)")
        # Halving first gives the bits of 0.5 (Q + Q.T) without its overflow
        # for entries above half the float maximum.
        object.__setattr__(self, "Q", _frozen(0.5 * Q + 0.5 * Q.T))
        object.__setattr__(self, "c", _frozen(c))
        object.__setattr__(self, "n", n)


def cone_quadratic(x) -> float:
    """0.5 * (||x[1:]||^2 - x[0]^2); nonpositive exactly on the two cone nappes."""
    x = np.asarray(x, dtype=float)
    return 0.5 * (float(x[1:] @ x[1:]) - float(x[0] * x[0]))


def primal_objective(p: ProblemInstance, x) -> float:
    """0.5*x'Qx - c'x."""
    x = np.asarray(x, dtype=float)
    return 0.5 * float(x @ (p.Q @ x)) - float(p.c @ x)


def is_feasible(x, tol: float = 0.0) -> tuple[bool, float]:
    """Closed-cone membership test.

    Returns ``(ok, violation)`` with violation = max(||x[1:]|| - x[0], -x[0], 0).
    Points on the negative nappe (x[0] < 0) are infeasible even though the
    quadratic relaxation accepts them.
    """
    if tol < 0:
        raise ValueError("tol must be nonnegative")
    x = np.asarray(x, dtype=float)
    x1 = float(x[0])
    tail = float(np.linalg.norm(x[1:]))
    violation = max(tail - x1, -x1, 0.0)
    return violation <= tol, violation


def shifted_hessian(p: ProblemInstance, sigma: float) -> np.ndarray:
    """Q shifted by sigma along the cone signature: subtracts sigma at (0,0), adds it elsewhere on the diagonal."""
    G = p.Q.copy()
    G.flat[::p.n + 1] += sigma * lorentz_signs(p.n)
    return G


def lagrangian(p: ProblemInstance, x, sigma: float) -> float:
    """0.5*x'G(sigma)x - c'x, defined for sigma >= 0.

    Equals primal_objective(p, x) + sigma * cone_quadratic(x); at a dual
    critical pair it coincides with both the primal and the dual value.
    """
    if sigma < 0:
        raise ValueError("lagrangian is only defined for sigma >= 0")
    x = np.asarray(x, dtype=float)
    return primal_objective(p, x) + sigma * cone_quadratic(x)


def natural_scales(Q, c) -> tuple[float, float]:
    """The powers of two s <= max|Q| and t <= max|c| (1 for a zero Q or c)."""
    q_max, c_max = float(np.abs(Q).max()), float(np.abs(c).max())
    return (math.ldexp(0.5, math.frexp(q_max)[1]) if q_max else 1.0,
            math.ldexp(0.5, math.frexp(c_max)[1]) if c_max else 1.0)


def natural_units(p: ProblemInstance) -> tuple[ProblemInstance, float, float]:
    """The copy (Q/s, c/t) of p, exact and so not validated again, and the
    scales s, t of ``natural_scales`` (p itself where s = t = 1)."""
    s, t = natural_scales(p.Q, p.c)
    if s == t == 1.0:
        return p, s, t
    q = object.__new__(ProblemInstance)
    q.__dict__.update(p.__dict__, Q=_frozen(p.Q / s), c=_frozen(p.c / t))
    return q, s, t

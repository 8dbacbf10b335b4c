"""End-to-end solve: one KKT enumeration, solution selection from it,
verification residuals, optional oracle comparison, and the sweep table
behind the CSV output.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .dual import (
    CERT_GLOBAL,
    CERT_HARD,
    CERT_KKT,
    DEFAULT_TOL_KKT,
    CriticalPoint,
    _maximize_with_notes,
    enumerate_kkt,
)
from .linalg import factorize, solve_linear
from .model import ProblemInstance, cone_quadratic, natural_units, shifted_hessian
from .verify import (
    KKTResiduals,
    OracleResult,
    brute_force_min,
    check_oracle_dimension,
    default_oracle_radius,
    kkt_check,
)

__all__ = [
    "SolveReport",
    "Tolerances",
    "solve_problem",
    "sweep_table",
    "EXIT_CERTIFIED",
    "EXIT_UNCERTIFIED",
    "EXIT_HARD_CASE",
    "EXIT_NO_SOLUTION",
    "EXIT_BAD_INPUT",
    "EXIT_DIMENSION_MISMATCH",
]

EXIT_CERTIFIED = 0
EXIT_UNCERTIFIED = 2
EXIT_HARD_CASE = 3
EXIT_NO_SOLUTION = 4
EXIT_BAD_INPUT = 64
EXIT_DIMENSION_MISMATCH = 65

# Relative duality gap ``lorentzqp check`` accepts, unless the report
# carries its own.
DEFAULT_TOL_GAP = 1e-8


@dataclass(frozen=True)
class Tolerances:
    """The tolerance that defines a verdict: the KKT gate of a multiplier
    (``tol_kkt``).  The zero band of the inertia is the constant
    ``arrowhead.TOL_EIG``, applied in natural units."""

    tol_kkt: float = DEFAULT_TOL_KKT


@dataclass(frozen=True)
class SolveReport:
    """Self-contained solve outcome; serializable and re-verifiable."""

    problem: ProblemInstance
    solution: CriticalPoint | None
    critical_points: list[CriticalPoint]
    residuals: KKTResiduals | None
    oracle: OracleResult | None
    warnings: list[str]
    tolerances: Tolerances = field(default_factory=Tolerances)

    @property
    def exit_code(self) -> int:
        """Semantic exit code, a function of the certificate field only."""
        if self.solution is None:
            return EXIT_NO_SOLUTION
        return {
            CERT_GLOBAL: EXIT_CERTIFIED,
            CERT_KKT: EXIT_UNCERTIFIED,
            CERT_HARD: EXIT_HARD_CASE,
        }[self.solution.certificate]


def solve_problem(
    p: ProblemInstance,
    tol: Tolerances = Tolerances(),
    oracle: bool = False,
    oracle_radius: float | None = None,
    oracle_resolution: int = 128,
) -> SolveReport:
    """Solve the cone-constrained quadratic and assemble the report.

    All dual KKT points are enumerated once.  The dual maximum over the
    positive-definite window, selected from them, is the solution when it is
    certified or is the hard-case boundary point; otherwise the best
    cone-feasible point (lowest objective, then lowest multiplier) is
    selected without a certificate.  Points recovered on the negative nappe
    are kept in the report but never selected.  With ``oracle``, n above
    ORACLE_MAX_N raises OracleError before the solve.
    """
    if oracle:
        check_oracle_dimension(p.n)
    points = enumerate_kkt(p, tol.tol_kkt)
    best, warnings = _maximize_with_notes(p, points, tol.tol_kkt)
    if best is not None and best.certificate == CERT_HARD:
        # The boundary point sits at a pole, outside the enumeration; its
        # limit value weakly dominates every cone-feasible KKT point.
        points = sorted(points + [best], key=lambda cp: cp.sigma)
    if best is not None and best.certificate != CERT_KKT:
        solution = best
    else:
        feasible = [cp for cp in points if cp.nappe_ok]
        solution = min(feasible, key=lambda cp: (cp.primal_value, cp.sigma), default=None)

    if any(not cp.nappe_ok for cp in points):
        rejected = ", ".join(f"{cp.sigma:.6g}" for cp in points if not cp.nappe_ok)
        warnings.append(
            f"negative-nappe rejection: critical point(s) at sigma={rejected} recover "
            "x with x[0] < 0 and are excluded from solution selection"
        )
    if solution is None:
        warnings.append("no cone-feasible KKT point found; dual approach is inconclusive here")
    elif solution.certificate == CERT_KKT:
        warnings.append("certificate unavailable: G(sigma) not positive definite")

    residuals = None
    if solution is not None:
        residuals = kkt_check(p, solution.x, solution.sigma)

    oracle_result = None
    if oracle:
        certified = solution if (solution is not None and solution.certified) else None
        radius = oracle_radius if oracle_radius is not None else default_oracle_radius(p, certified)
        oracle_result = brute_force_min(p, radius, oracle_resolution)
        if oracle_result.unbounded_direction is not None:
            warnings.append(
                "oracle found a feasible direction of negative curvature; the objective "
                "is unbounded below on the cone"
            )
        if solution is not None:
            margin = 1e-6 * (1.0 + abs(solution.primal_value))
            if oracle_result.best_value < solution.primal_value - margin:
                warnings.append(
                    f"oracle found a better feasible point (value {oracle_result.best_value!r} "
                    f"vs solution {solution.primal_value!r})"
                )

    return SolveReport(
        problem=p,
        solution=solution,
        critical_points=list(points),  # a plain list, without the arrowhead
        residuals=residuals,
        oracle=oracle_result,
        warnings=warnings,
        tolerances=tol,
    )


def sweep_table(
    p: ProblemInstance,
    sigma_min: float,
    sigma_max: float,
    steps: int,
) -> list[tuple[float, float | None, float | None, float, bool]]:
    """Rows (sigma, dual_value, dual_derivative, min_eigenvalue, is_pd).

    Every field of a row comes from one ``factorize`` of G(sigma) on the
    problem in natural units (``model.natural_units``), mapped back.  Value
    fields are None exactly where the shifted Hessian is singular under the
    zero band, or where a value overflows in the problem's own units; those
    rows serialize as empty CSV cells.  is_pd comes from the inertia alone.
    """
    if steps < 2:
        raise ValueError("steps must be at least 2")
    q, s, t = natural_units(p)
    rows = []
    for sigma in np.linspace(sigma_min, sigma_max, steps):
        sigma = float(sigma)
        f = factorize(shifted_hessian(q, sigma / s))
        lam = s * float(f.w[0])
        if f.singular:
            rows.append((sigma, None, None, lam, False))
            continue
        x = solve_linear(f, q.c)
        dv = -0.5 * float(q.c @ x) * (t / s) * t
        dd = cone_quadratic(x) * (t / s) * (t / s)
        if not (math.isfinite(dv) and math.isfinite(dd)):
            dv = dd = None
        rows.append((sigma, dv, dd, lam, f.positive_definite))
    return rows

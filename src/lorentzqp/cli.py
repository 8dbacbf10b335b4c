"""Command-line surface.

Subcommands: solve, enumerate, sweep, check, oracle, gen.  Exit codes are
semantic: 0 certified global minimum, 2 KKT point(s) without certificate,
3 hard case solved without certificate, 4 no KKT point found, 64 malformed
input, 65 dimension mismatch.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import __version__
from .arrowhead import Pencil
from .dual import HardCaseError, _require_null_space, enumerate_kkt
from .model import primal_objective
from .fileio import (
    GEN_KINDS,
    ProblemFormatError,
    as_dense,
    dumps_json,
    gen_instance,
    load_problem,
    oracle_to_jsonable,
    point_to_jsonable,
    problem_to_jsonable,
    report_to_jsonable,
    sweep_csv,
    write_text_atomic,
)
from .solver import (
    DEFAULT_TOL_GAP,
    EXIT_BAD_INPUT,
    EXIT_DIMENSION_MISMATCH,
    Tolerances,
    solve_problem,
    sweep_table,
)
from .verify import (
    OracleError,
    brute_force_min,
    check_oracle_dimension,
    default_oracle_radius,
    kkt_check,
)


def _add_tolerance_flag(sp):
    d = Tolerances()
    sp.add_argument("--tol-kkt", type=float, default=d.tol_kkt,
                    help="KKT gate: a multiplier is kept when |x'Lx| <= tol*||x||^2 "
                         "and its KKT residuals, scaled to max|Q| = ||c|| = 1, are "
                         f"within tol (default {d.tol_kkt:g})")


def _finite_positive(value) -> bool:
    return math.isfinite(value) and value > 0.0


# Numeric flags (by argparse dest) and the values they accept; any other value
# is malformed input.  A flag a subcommand lacks, or left at None, is skipped.
_FLAG_RULES = {
    "tol_kkt": (_finite_positive, "finite and > 0"),
    "oracle_radius": (_finite_positive, "finite and > 0"),
    "oracle_resolution": (lambda v: v >= 16, "at least 16"),
    "radius": (_finite_positive, "finite and > 0"),
    "resolution": (lambda v: v >= 16, "at least 16"),
    "steps": (lambda v: v >= 2, "at least 2"),
    "sigma_min": (math.isfinite, "finite"),
    "sigma_max": (math.isfinite, "finite"),
}


def _flag_error(args) -> str | None:
    for dest, (accepts, rule) in _FLAG_RULES.items():
        value = getattr(args, dest, None)
        if value is not None and not accepts(value):
            return f"--{dest.replace('_', '-')} must be {rule}, got {value!r}"
    return None


def _emit(text: str, output: str | None):
    if output is None:
        sys.stdout.write(text)
    else:
        write_text_atomic(output, text)


def _emit_json(obj, output: str | None) -> bool:
    """``_emit`` of obj as JSON; False, after a one-line error, where a value is not finite."""
    try:
        text = dumps_json(obj) + "\n"
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return False
    _emit(text, output)
    return True


def _load(path):
    try:
        return load_problem(path)
    except FileNotFoundError:
        print(f"error: cannot read problem file: {path}", file=sys.stderr)
        raise SystemExit(EXIT_BAD_INPUT)
    except ProblemFormatError as exc:
        print(f"error: invalid problem file {path}: {exc}", file=sys.stderr)
        raise SystemExit(EXIT_BAD_INPUT)


def cmd_solve(args) -> int:
    p = as_dense(_load(args.problem))
    try:
        if args.oracle:
            check_oracle_dimension(p.n)
        report = solve_problem(
            p, Tolerances(tol_kkt=args.tol_kkt), oracle=args.oracle,
            oracle_radius=args.oracle_radius, oracle_resolution=args.oracle_resolution,
        )
    except OracleError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    if not _emit_json(report_to_jsonable(report, __version__), args.output):
        return EXIT_BAD_INPUT
    return report.exit_code


def cmd_enumerate(args) -> int:
    p = as_dense(_load(args.problem))
    points = enumerate_kkt(p, args.tol_kkt)
    out = {
        "tool": {"name": "lorentzqp", "version": __version__},
        "problem": problem_to_jsonable(p),
        "critical_points": [point_to_jsonable(cp) for cp in points],
    }
    return 0 if _emit_json(out, args.output) else EXIT_BAD_INPUT


def cmd_sweep(args) -> int:
    p = as_dense(_load(args.problem))
    rows = sweep_table(p, args.sigma_min, args.sigma_max, args.steps)
    _emit(sweep_csv(rows), args.output)
    return 0


def _claim(report) -> tuple[np.ndarray, float, float, float] | None:
    """(x, sigma, tol_kkt, tol_gap) of a report, None without a solution;
    ValueError where it is malformed.  Each tolerance must be a number that
    passes the rule of ``--tol-kkt``; tol_gap is carried by older reports."""
    if not isinstance(report, dict):
        raise ValueError("malformed report: not a JSON object")
    solution, tols = report.get("solution"), report.get("tolerances", {})
    if solution is None:
        return None
    try:
        x, sigma = np.asarray(solution["x"], dtype=float), float(solution["sigma"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed solution block: {exc}") from None
    if x.ndim != 1:
        raise ValueError(f"malformed solution block: x has shape {x.shape}, not a vector")
    if not isinstance(tols, dict):
        raise ValueError("malformed tolerances block: not a JSON object")
    accepts, rule = _FLAG_RULES["tol_kkt"]
    tol = {"tol_kkt": Tolerances().tol_kkt, "tol_gap": DEFAULT_TOL_GAP}
    for key, default in tol.items():
        value = tols.get(key, default)
        try:
            ok = not isinstance(value, (bool, str)) and accepts(float(value))
        except (TypeError, OverflowError):
            ok = False
        if not ok:
            raise ValueError(f"malformed tolerances block: {key} must be {rule}, got {value!r}")
        tol[key] = float(value)
    return x, sigma, tol["tol_kkt"], tol["tol_gap"]


def cmd_check(args) -> int:
    p = as_dense(_load(args.problem))
    try:
        with open(args.report, "r", encoding="utf-8") as fh:
            report = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: cannot read report file {args.report}: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    try:
        claim = _claim(report)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    if claim is None:
        print("check: report carries no solution; nothing to verify")
        return 0
    x, sigma, tol_kkt, tol_gap = claim
    if x.shape != (p.n,):
        print(f"error: dimension mismatch: problem has n={p.n}, report solution has "
              f"{x.shape[0]} components", file=sys.stderr)
        return EXIT_DIMENSION_MISMATCH

    res = kkt_check(p, x, sigma)
    pencil = Pencil(p)
    inertia = pencil.inertia(sigma)
    try:
        if inertia[1] == 0:
            x_sigma = pencil.x(sigma)
        else:
            # At a singular shift the dual's limit value -0.5 c'G^+ c exists
            # when c is orthogonal to the null space of G (the hard case).
            x_sigma, Z = pencil.pseudo_solve(sigma)
            _require_null_space(pencil, sigma, Z, inertia, tol_kkt)
        dv = -0.5 * float(p.c @ x_sigma)
        gap = abs(dv - primal_objective(p, x))
        gap_ok = gap <= tol_gap * (1.0 + abs(dv))
    except HardCaseError:
        gap, gap_ok = float("inf"), False

    ok = gap_ok
    for label, value in vars(res).items():  # the residuals, in field order
        passed = value <= tol_kkt
        ok = ok and passed
        print(f"check: {label} = {value:.3e} ({'ok' if passed else 'FAIL'}, tol {tol_kkt:.1e})")
    print(f"check: duality_gap = {gap:.3e} ({'ok' if gap_ok else 'FAIL'}, tol {tol_gap:.1e})")
    return 0 if ok else 1


def cmd_oracle(args) -> int:
    p = as_dense(_load(args.problem))
    radius = args.radius if args.radius is not None else default_oracle_radius(p, None)
    try:
        check_oracle_dimension(p.n)
        result = brute_force_min(p, radius, args.resolution)
    except OracleError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    out = {
        "tool": {"name": "lorentzqp", "version": __version__},
        "problem": problem_to_jsonable(p),
        "radius": radius,
        "oracle": oracle_to_jsonable(result),
    }
    _emit(dumps_json(out) + "\n", args.output)
    return 0


def cmd_gen(args) -> int:
    try:
        instance = gen_instance(args.kind, args.n, args.seed)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    _emit(dumps_json(problem_to_jsonable(instance)) + "\n", args.output)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lorentzqp",
        description="Globally minimize (possibly nonconvex) quadratics over the "
                    "Lorentz cone via the one-dimensional concave dual.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("solve", help="solve a problem file and write a report")
    sp.add_argument("problem")
    sp.add_argument("-o", "--output", help="report path (stdout if omitted)")
    sp.add_argument("--oracle", action="store_true",
                    help="also run the brute-force oracle and compare")
    sp.add_argument("--oracle-radius", type=float, default=None)
    sp.add_argument("--oracle-resolution", type=int, default=128)
    _add_tolerance_flag(sp)
    sp.set_defaults(func=cmd_solve)

    sp = sub.add_parser("enumerate", help="report every dual KKT point")
    sp.add_argument("problem")
    sp.add_argument("-o", "--output")
    _add_tolerance_flag(sp)
    sp.set_defaults(func=cmd_enumerate)

    sp = sub.add_parser("sweep", help="CSV of the dual curve over a sigma range")
    sp.add_argument("problem")
    sp.add_argument("--sigma-min", type=float, default=0.0)
    sp.add_argument("--sigma-max", type=float, required=True)
    sp.add_argument("--steps", type=int, required=True)
    sp.add_argument("-o", "--output")
    sp.set_defaults(func=cmd_sweep)

    sp = sub.add_parser("check", help="re-verify a report against its problem")
    sp.add_argument("problem")
    sp.add_argument("report")
    sp.set_defaults(func=cmd_check)

    sp = sub.add_parser("oracle", help="brute-force grid search over the cone")
    sp.add_argument("problem")
    sp.add_argument("--radius", type=float, default=None,
                    help="slice radius (default: deterministic fallback 10)")
    sp.add_argument("--resolution", type=int, default=128)
    sp.add_argument("-o", "--output")
    sp.set_defaults(func=cmd_oracle)

    sp = sub.add_parser("gen", help="generate a seeded problem file")
    sp.add_argument("kind", choices=GEN_KINDS)
    sp.add_argument("n", type=int)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("-o", "--output")
    sp.set_defaults(func=cmd_gen)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    error = _flag_error(args)
    if error is not None:
        print(f"error: {error}", file=sys.stderr)
        return EXIT_BAD_INPUT
    try:
        return args.func(args)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0


if __name__ == "__main__":
    sys.exit(main())

"""Problem-file and report serialization, CSV sweeps, instance generation.

Problem files are JSON with keys ``n``, ``Q`` (row-major) or ``"diagonal":
true`` with ``q``, ``c``, and an optional ``name``.  All numeric output is
written with 17 significant digits so files round-trip bit-exactly; the
sweep CSV always uses '.' as the decimal separator.
"""

from __future__ import annotations

import json
import math
import os
import tempfile

import numpy as np

from .model import ProblemInstance
from .secular import DiagonalInstance
from .solver import SolveReport

__all__ = [
    "ProblemFormatError",
    "parse_problem",
    "load_problem",
    "as_dense",
    "problem_to_jsonable",
    "report_to_jsonable",
    "point_to_jsonable",
    "oracle_to_jsonable",
    "dumps_json",
    "sweep_csv",
    "gen_instance",
    "write_text_atomic",
]

SWEEP_HEADER = "sigma,dual_value,dual_derivative,min_eigenvalue,is_pd"

GEN_KINDS = ("convex", "indefinite", "diagonal", "hardcase")


class ProblemFormatError(ValueError):
    """Malformed problem file; carries the offending field name."""

    def __init__(self, field: str, message: str):
        super().__init__(f"field '{field}': {message}")
        self.field = field


# ---------------------------------------------------------------------------
# deterministic JSON with fixed 17-significant-digit floats


# what ``json.dumps`` encodes a string with by default (ensure_ascii)
_encode_str = json.encoder.encode_basestring_ascii


def _fmt_float(v: float) -> str:
    if not math.isfinite(v):
        raise ValueError(f"cannot serialize non-finite value {v!r}")
    return format(float(v), ".16e")


def _float_row(values: list) -> str:
    return "[" + ", ".join([format(v, ".16e") for v in values]) + "]"


def _float_array(a: np.ndarray, indent: int) -> str:
    """``dumps_json`` of a 1-D or 2-D float array, byte for byte."""
    finite = np.isfinite(a)
    if not finite.all():
        _fmt_float(float(a[~finite][0]))  # raises, naming the first one
    if a.ndim == 1:
        return _float_row(a.tolist())
    if not len(a):
        return "[]"
    inner = "  " * (indent + 1)
    rows = ",\n".join(inner + _float_row(row) for row in a.tolist())
    return "[\n" + rows + "\n" + "  " * indent + "]"


def dumps_json(value, indent: int = 0) -> str:
    """Deterministic JSON: two-space indentation, lists of scalars on one
    line, every float with 17 significant digits (``_fmt_float``), and
    ASCII strings escaped as ``json.dumps`` escapes them.  Float arrays of
    one or two dimensions, which hold nearly every number of a report, are
    checked for finiteness once and formatted row by row."""
    if isinstance(value, (float, np.floating)):
        return _fmt_float(value)
    if isinstance(value, str):
        return _encode_str(value)
    if value is None:
        return "null"
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, np.ndarray):
        if value.dtype.kind == "f" and value.ndim in (1, 2):
            return _float_array(value, indent)
        value = value.tolist()
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        items = [dumps_json(v, indent + 1) for v in value]
        if all(not isinstance(v, (list, tuple, dict, np.ndarray)) for v in value):
            return "[" + ", ".join(items) + "]"
        return "[\n" + ",\n".join(inner + s for s in items) + "\n" + pad + "]"
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = [
            f"{inner}{_encode_str(str(k))}: {dumps_json(v, indent + 1)}"
            for k, v in value.items()
        ]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    raise TypeError(f"cannot serialize {type(value)!r}")


# ---------------------------------------------------------------------------
# problem files


def _require_number(obj, field: str) -> float:
    if isinstance(obj, bool) or not isinstance(obj, (int, float)):
        raise ProblemFormatError(field, f"expected a number, got {obj!r}")
    return float(obj)


def _require_vector(obj, field: str, n: int) -> np.ndarray:
    if not isinstance(obj, list) or len(obj) != n:
        raise ProblemFormatError(field, f"expected a list of {n} numbers")
    return np.array([_require_number(v, f"{field}[{i}]") for i, v in enumerate(obj)])


def parse_problem(text: str) -> ProblemInstance | DiagonalInstance:
    """Parse a problem file; diagonal files come back as DiagonalInstance."""
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ProblemFormatError("<document>", f"not valid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise ProblemFormatError("<document>", "top level must be an object")

    if "n" not in obj:
        raise ProblemFormatError("n", "missing")
    n = obj["n"]
    if isinstance(n, bool) or not isinstance(n, int):
        raise ProblemFormatError("n", f"expected an integer, got {n!r}")
    if n < 2:
        raise ProblemFormatError("n", "dimension must be at least 2")

    name = obj.get("name")
    if name is not None and not isinstance(name, str):
        raise ProblemFormatError("name", "expected a string")

    if "c" not in obj:
        raise ProblemFormatError("c", "missing")
    c = _require_vector(obj["c"], "c", n)

    if obj.get("diagonal"):
        if "q" not in obj:
            raise ProblemFormatError("q", "missing (required when diagonal is true)")
        q = _require_vector(obj["q"], "q", n)
        return DiagonalInstance(q=q, c=c, name=name)

    if "Q" not in obj:
        raise ProblemFormatError("Q", "missing")
    rows = obj["Q"]
    if not isinstance(rows, list) or len(rows) != n:
        raise ProblemFormatError("Q", f"expected {n} rows")
    Q = np.stack([_require_vector(r, f"Q[{i}]", n) for i, r in enumerate(rows)])
    try:
        return ProblemInstance(Q=Q, c=c, name=name)
    except ValueError as exc:
        raise ProblemFormatError("Q", str(exc)) from exc


def load_problem(path) -> ProblemInstance | DiagonalInstance:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_problem(fh.read())


def as_dense(instance) -> ProblemInstance:
    if isinstance(instance, DiagonalInstance):
        return instance.to_dense()
    return instance


def problem_to_jsonable(instance) -> dict:
    out: dict = {}
    if instance.name is not None:
        out["name"] = instance.name
    out["n"] = instance.n
    if isinstance(instance, DiagonalInstance):
        out["diagonal"] = True
        out["q"] = instance.q
    else:
        out["Q"] = instance.Q
    out["c"] = instance.c
    return out


# ---------------------------------------------------------------------------
# reports


def point_to_jsonable(cp) -> dict:
    return {
        "sigma": cp.sigma,
        "x": cp.x,
        "primal_value": cp.primal_value,
        "dual_value": cp.dual_value,
        "certificate": cp.certificate,
        "inertia": list(cp.inertia),
        "nappe_ok": cp.nappe_ok,
    }


def report_to_jsonable(report: SolveReport, version: str) -> dict:
    out: dict = {
        "tool": {"name": "lorentzqp", "version": version},
        "problem": problem_to_jsonable(report.problem),
        "tolerances": {"tol_kkt": report.tolerances.tol_kkt},
        "solution": None,
        "critical_points": [point_to_jsonable(cp) for cp in report.critical_points],
        "kkt_residuals": None,
        "oracle": None,
        "warnings": list(report.warnings),
    }
    if report.solution is not None:
        out["solution"] = point_to_jsonable(report.solution)
    if report.residuals is not None:
        r = report.residuals
        out["kkt_residuals"] = {
            "stationarity": r.stationarity,
            "primal_feasibility": r.primal_feasibility,
            "nappe_violation": r.nappe_violation,
            "dual_feasibility": r.dual_feasibility,
            "complementarity": r.complementarity,
        }
    if report.oracle is not None:
        out["oracle"] = oracle_to_jsonable(report.oracle)
    return out


def oracle_to_jsonable(result) -> dict:
    return {
        "best_x": result.best_x,
        "best_value": result.best_value,
        "grid_resolution": result.grid_resolution,
        "refined": result.refined,
        "unbounded_direction": result.unbounded_direction,
    }


# ---------------------------------------------------------------------------
# sweep CSV


def sweep_csv(rows) -> str:
    lines = [SWEEP_HEADER]
    for sigma, dv, dd, lam, is_pd in rows:
        dv_s = "" if dv is None else _fmt_float(dv)
        dd_s = "" if dd is None else _fmt_float(dd)
        lines.append(
            f"{_fmt_float(sigma)},{dv_s},{dd_s},{_fmt_float(lam)},"
            f"{'true' if is_pd else 'false'}"
        )
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# seeded generation


def gen_instance(kind: str, n: int, seed: int) -> ProblemInstance | DiagonalInstance:
    """Deterministic instance generator; identical (kind, n, seed) gives
    identical bytes once serialized."""
    if kind not in GEN_KINDS:
        raise ValueError(f"unknown kind {kind!r}; choose from {GEN_KINDS}")
    if n < 2:
        raise ValueError("n must be at least 2")
    rng = np.random.default_rng(seed)
    label = f"{kind}-n{n}-seed{seed}"
    if kind == "diagonal":
        q = rng.uniform(-2.0, 2.0, n)
        c = rng.uniform(-2.0, 2.0, n)
        return DiagonalInstance(q=q, c=c, name=label)
    if kind == "hardcase":
        c = rng.uniform(-2.0, 2.0, n)
        c[0] = 0.0
        if float(np.max(np.abs(c[1:]))) < 1e-6:
            c[1] = 1.0
        return ProblemInstance(Q=np.eye(n), c=c, name=label)
    A = rng.uniform(-2.0, 2.0, (n, n))
    Q = 0.5 * (A + A.T)
    c = rng.uniform(-2.0, 2.0, n)
    if kind == "convex":
        lam = float(np.linalg.eigvalsh(Q)[0])
        Q = Q + (0.1 + max(0.0, -lam)) * np.eye(n)
    return ProblemInstance(Q=Q, c=c, name=label)


# ---------------------------------------------------------------------------
# atomic writes


def write_text_atomic(path, text: str):
    """Write via a sibling temp file and rename, so readers never see a torn file."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", text=True)
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise

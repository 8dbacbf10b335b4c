"""In-memory span tracer installed from outside the package.

The package binds names at import time (``from .dual import enumerate_kkt``),
so a wrapper is effective only if it replaces the function object under
every name that refers to it.  ``Tracer.install`` walks every loaded
``lorentzqp`` module and swaps each attribute that *is* a traced function;
``uninstall`` puts the originals back.  The dense kernels are wrapped on the
``numpy.linalg`` and ``scipy.linalg`` namespaces, which the package looks
up at call time.

Each span records (id, parent id, op id, name, start, end) plus the matrix
count and computed flops for kernel spans.  Spans stay in memory until the
run ends; ``summarize`` derives the per-layer metrics from them.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
import time
from collections import defaultdict

import numpy as np
import scipy.linalg

from lorentzqp import cli, dual, fileio, linalg, model, secular, solver, verify

# (span name, module, attribute).  Names follow the metric names: the layer
# is the package module, ``lapack`` is the dense kernels underneath.
PACKAGE_SPANS = [
    ("model.shifted_hessian", model, "shifted_hessian"),
    ("linalg.factorize", linalg, "factorize"),
    ("linalg.solve_linear", linalg, "solve_linear"),
    ("linalg.min_eigenvalue", linalg, "min_eigenvalue"),
    ("linalg.pencil_singular_sigmas", linalg, "pencil_singular_sigmas"),
    ("dual.pd_interval", dual, "pd_interval"),
    ("dual.maximize", dual, "_maximize_with_notes"),
    ("dual.enumerate_kkt", dual, "enumerate_kkt"),
    ("dual.build_critical_point", dual, "build_critical_point"),
    ("dual.hard_case_solve", dual, "hard_case_solve"),
    ("secular.secular_enumerate", secular, "secular_enumerate"),
    ("verify.kkt_check", verify, "kkt_check"),
    ("verify.brute_force_min", verify, "brute_force_min"),
    ("verify.default_oracle_radius", verify, "default_oracle_radius"),
    ("solver.solve_problem", solver, "solve_problem"),
    ("solver.sweep_table", solver, "sweep_table"),
    ("fileio.parse_problem", fileio, "parse_problem"),
    ("fileio.report_to_jsonable", fileio, "report_to_jsonable"),
    ("fileio.dumps_json", fileio, "dumps_json"),
    ("fileio.write_text_atomic", fileio, "write_text_atomic"),
    ("cli.main", cli, "main"),
]


def _n(a) -> int:
    return int(np.shape(a)[-1])


def _batch(a) -> int:
    return int(np.prod(np.shape(a)[:-2], dtype=np.int64))


def _rhs_cols(b) -> int:
    shape = np.shape(b)
    return 1 if len(shape) <= 1 else int(shape[-1])


# Standard LAPACK operation counts from the matrix size n (leading terms):
# LU 2n^3/3, triangular solves 2n^2 per right-hand side, Bunch-Kaufman LDL'
# n^3/3, symmetric eigenvalues 4n^3/3 (values) or 9n^3 (with vectors), and
# the nonsymmetric QR algorithm 10n^3 (values) or 25n^3 (with vectors).
def _flops_solve(a, b, *_, **__):
    n = _n(a)
    return _batch(a), _batch(a) * (2 * n**3 / 3 + 2 * n**2 * _rhs_cols(b))


def _flops_cubic(coeff):
    def flops(a, *_, **__):
        return _batch(a), _batch(a) * coeff * _n(a) ** 3
    return flops


def _flops_lu_solve(lu_and_piv, b, *_, **__):
    n = _n(lu_and_piv[0])
    return 1, 2 * n**2 * _rhs_cols(b)


# (span name, namespace, attribute, work counter).  The eig group covers the
# symmetric, nonsymmetric and generalized (QZ) routines so that a later
# pencil-based engine is counted under the same name.
KERNEL_SPANS = [
    ("lapack.solve", np.linalg, "solve", _flops_solve),
    ("lapack.eig", np.linalg, "eigvalsh", _flops_cubic(4 / 3)),
    ("lapack.eig", np.linalg, "eigh", _flops_cubic(9)),
    ("lapack.eig", np.linalg, "eigvals", _flops_cubic(10)),
    ("lapack.eig", np.linalg, "eig", _flops_cubic(25)),
    ("lapack.eig", scipy.linalg, "eigvalsh", _flops_cubic(4 / 3)),
    ("lapack.eig", scipy.linalg, "eigh", _flops_cubic(9)),
    ("lapack.eig", scipy.linalg, "eigvals", _flops_cubic(10)),
    ("lapack.eig", scipy.linalg, "eig", _flops_cubic(25)),
    ("lapack.eig", scipy.linalg, "qz", _flops_cubic(30)),
    ("lapack.eig", scipy.linalg, "ordqz", _flops_cubic(30)),
    ("lapack.ldl", scipy.linalg, "ldl", _flops_cubic(1 / 3)),
    ("lapack.lu", scipy.linalg, "lu_factor", _flops_cubic(2 / 3)),
    ("lapack.lu", scipy.linalg, "lu_solve", _flops_lu_solve),
]

# Span kind for the phase after the timed ops: only the secular cross-check
# is read from it.
CHECK_OP = -1


class Tracer:
    """Records spans around the wrapped functions while installed."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.op_id = 0
        self._stack: list[tuple[int, str]] = []
        self._next_id = 1
        self._errors: dict[str, int] = defaultdict(int)
        self._bytes_written = 0
        self._kkt_points = 0
        self._restore: list[tuple[object, str, object]] = []

    # -- wrappers ----------------------------------------------------------

    def _wrap(self, name, fn, work=None):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if name == "fileio.dumps_json" and stack and stack[-1][1] == name:
                return fn(*args, **kwargs)  # recursive call: outermost span only
            sid = self._next_id
            self._next_id += 1
            parent = stack[-1][0] if stack else 0
            stack.append((sid, name))
            matrices, flops = work(*args, **kwargs) if work else (0, 0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                self._count_error(name, exc, matrices)
                raise
            finally:
                t1 = clock()
                stack.pop()
                spans.append((sid, parent, self.op_id, name, t0, t1, matrices, flops))
            if name == "dual.enumerate_kkt" and self.op_id != CHECK_OP:
                self._kkt_points += len(result)
            return result
        return traced

    def _count_error(self, name, exc, matrices):
        if self.op_id == CHECK_OP:
            return
        self._errors[name] += 1
        if name == "lapack.solve" and matrices > 1 and isinstance(exc, np.linalg.LinAlgError):
            self._errors["lapack.solve.batch_fallbacks"] += 1
        if name == "linalg.solve_linear" and isinstance(exc, linalg.SingularMatrixError):
            self._errors["linalg.singular_errors"] += 1

    def _count_bytes(self, fn):
        @functools.wraps(fn)
        def counted(path, text):
            if self.op_id != CHECK_OP:
                self._bytes_written += len(text.encode("utf-8"))
            return fn(path, text)
        return counted

    def _replace(self, owner, attr, new):
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self):
        """Replace every binding of the traced functions with a wrapper."""
        modules = [m for key, m in sorted(sys.modules.items())
                   if m is not None and (key == "lorentzqp" or key.startswith("lorentzqp."))]
        for name, owner, attr in PACKAGE_SPANS:
            original = getattr(owner, attr)
            if name == "fileio.write_text_atomic":
                wrapped = self._wrap(name, self._count_bytes(original))
            else:
                wrapped = self._wrap(name, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._replace(module, key, wrapped)
        for name, owner, attr, work in KERNEL_SPANS:
            if hasattr(owner, attr):
                self._replace(owner, attr, self._wrap(name, getattr(owner, attr), work))

    def uninstall(self):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    # -- output ------------------------------------------------------------

    def write(self, path):
        """Write the spans as gzipped JSON lines, times relative to the earliest start."""
        base = min((span[4] for span in self.spans), default=0.0)
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write(json.dumps({"fields": ["id", "parent", "op", "name", "start_s",
                                            "end_s", "matrices", "flops"]}) + "\n")
            for sid, parent, op, name, t0, t1, m, f in self.spans:
                fh.write(json.dumps([sid, parent, op, name, round(t0 - base, 9),
                                     round(t1 - base, 9), m, f]) + "\n")

    def summarize(self) -> dict:
        """Per-layer totals over the op spans.

        Self time is a span's duration minus the durations of its direct
        children.  Secular totals come from the check phase, the only place
        the secular path runs.
        """
        child = defaultdict(float)
        names = {}
        for sid, parent, op, name, t0, t1, *_ in self.spans:
            child[parent] += t1 - t0
            names[sid] = name
        calls = defaultdict(int)
        self_s = defaultdict(float)
        # Durations summed per name count each call once: the traced package
        # functions do not recurse, except dumps_json, whose inner calls
        # carry no span.
        inclusive_s = defaultdict(float)
        matrices = defaultdict(int)
        flops = 0.0
        parent_of = {}
        for sid, parent, op, name, t0, t1, m, f in self.spans:
            parent_of[sid] = parent
            if (op == CHECK_OP) != name.startswith("secular."):
                continue
            calls[name] += 1
            self_s[name] += (t1 - t0) - child[sid]
            inclusive_s[name] += t1 - t0
            matrices[name] += m
            flops += f
        # Kernel work under an enumerate_kkt span.
        enum_solves = 0
        enum_kernel_s = 0.0
        for sid, parent, op, name, t0, t1, m, f in self.spans:
            if not name.startswith("lapack.") or op == CHECK_OP:
                continue
            p = parent
            while p:
                if names[p] == "dual.enumerate_kkt":
                    enum_kernel_s += (t1 - t0) - child[sid]
                    if name == "lapack.solve":
                        enum_solves += m
                    break
                p = parent_of[p]
        return {
            "calls": dict(calls),
            "self_s": dict(self_s),
            "inclusive_s": dict(inclusive_s),
            "matrices": dict(matrices),
            "flops": flops,
            "errors": dict(self._errors),
            "bytes_written": self._bytes_written,
            "enumerate_solves": enum_solves,
            "enumerate_kernel_self_s": enum_kernel_s,
            "kkt_points": self._kkt_points,
            "spans": len(self.spans),
        }


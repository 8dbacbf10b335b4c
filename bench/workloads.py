"""Workload corpora, ops and output checks.

Every workload is a closed loop with one client: the next op starts only
after the previous one returns.  A corpus is a fixed list of entries built
from the benchmark seed; a run cycles through it in order.  The op code
looks functions up on the package modules at call time, so the tracer's
wrappers take effect.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import shutil
import subprocess
import sys
from collections import Counter
from dataclasses import dataclass, field, replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np

import lorentzqp
from lorentzqp import cli, dual, fileio, secular, solver, verify

WORKLOADS = ("small", "dense", "oracle", "cli")

# ROADMAP baseline defects: two strictly convex tail misses and the
# absolute-gate miss.  All three exit 4 at the commit that added the
# benchmark; they stay in the corpus so a fix shows up in the verdicts.
DEFECT_INSTANCES = [("convex", 2, 9021), ("convex", 2, 9050), ("diagonal", 5, 5038)]

# small: per-call overhead dominates, so many cheap classes and a large corpus.
SMALL_CLASSES = [(kind, n) for n in (2, 3, 5) for kind in fileio.GEN_KINDS]
SMALL_PER_CLASS = 40

# dense: KKT enumeration and the dense solves under it dominate.  One op
# costs 5-600 ms depending on the instance and a run holds a few hundred
# ops, so a corpus drawn entirely from the benchmark seed would move the
# throughput from seed to seed.  Most of each class is a fixed core (drawn
# with CORE_SEED) and the benchmark seed draws the rest.
DENSE_CLASSES = [(kind, n) for n in (20, 50, 100) for kind in ("convex", "indefinite")]
DENSE_FIXED_PER_CLASS = 9
DENSE_SEEDED_PER_CLASS = 3
CORE_SEED = 0

# oracle: one op costs 10-800 ms depending on the instance, and a run only
# has room for about a hundred ops.  A fully seeded corpus of that size
# moves the medians by 10-50% from seed to seed, so most of each class is
# the fixed instance set of acceptance criterion 5 (gen seeds 30000+i) and
# the benchmark seed draws the rest.
ORACLE_CLASSES = [(kind, n) for n in (2, 3) for kind in ("convex", "indefinite")]
ORACLE_FIXED_PER_CLASS = 9
ORACLE_SEEDED_PER_CLASS = 1
ORACLE_RESOLUTION = 64

# cli: interpreter start and imports dominate each call.
CLI_GENERATED = [("convex", 3), ("indefinite", 5)]
CLI_SWEEP = ("indefinite", 50)
CLI_SWEEP_ARGS = ["--sigma-max", "10", "--steps", "201"]

# Ops that fail at the commit that added the benchmark, by entry name, with
# the defect.  A timed workload holds only ops that succeed, so these are
# taken out of the timed loop; every run executes each of them once after
# the loop, checks it like any other op and prints the outcome, so the
# defect stays in view and its fix shows.
KNOWN_DEFECTS = {
    "check:hardcase_2d": "lorentzqp check exits 1 on the hard-case report: dual_value "
                         "raises at its singular sigma, so the duality gap reads inf",
}

VALID_EXITS = (0, 2, 3, 4)
KKT_RESIDUAL_MAX = 1e-7
GAP_RTOL = 1e-8
ORACLE_RTOL = 1e-6
SECULAR_TOL = 1e-8
CLI_MATCH_RTOL = 1e-12


def gen_seed(workload: str, kind: str, n: int, seed: int, i: int) -> int:
    """Instance seed derived from the benchmark seed."""
    digest = hashlib.sha256(f"{workload}/{kind}/{n}/{seed}/{i}".encode()).digest()
    return int.from_bytes(digest[:4], "little")


@dataclass
class Entry:
    """One corpus entry; a run executes entries in corpus order, cyclically."""

    name: str
    instance: object = None          # as generated or parsed (diagonal kept)
    text: str | None = None          # problem JSON (small)
    argv: list[str] = field(default_factory=list)   # cli arguments
    command: str = "solve"           # cli subcommand
    problem_path: str | None = None  # cli problem file
    output_path: str | None = None   # cli output file
    report_path: str | None = None   # cli check: the report it reads


@dataclass
class Outcome:
    exit_code: int | None
    detail: str
    payload: object = None

    @property
    def key(self) -> str:
        return f"{self.exit_code}|{self.detail}"


def _sigma_text(sigma) -> str:
    """sigma rounded to 1e-6 relative, the resolution of the verdict digest."""
    return "none" if sigma is None else f"{sigma:.6e}"


# ---------------------------------------------------------------------------
# corpora


def _problem_text(instance) -> str:
    return fileio.dumps_json(fileio.problem_to_jsonable(instance)) + "\n"


def _generated(workload, classes, seed, count, first=0):
    """Instances ``first .. first+count-1`` of each class, classes interleaved
    so that a partly finished pass keeps the class mix."""
    return [fileio.gen_instance(kind, n, gen_seed(workload, kind, n, seed, i))
            for i in range(first, first + count) for kind, n in classes]


def _fixtures(root: Path) -> list[Path]:
    return sorted((root / "problems").glob("*.json"))


def build_corpus(workload: str, seed: int, root: Path, workdir: Path) -> list[Entry]:
    if workload == "small":
        entries = []
        for path in _fixtures(root):
            text = path.read_text(encoding="utf-8")
            entries.append(Entry(name=path.stem, instance=fileio.parse_problem(text), text=text))
        for kind, n, s in DEFECT_INSTANCES:
            inst = fileio.gen_instance(kind, n, s)
            entries.append(Entry(name=inst.name, instance=inst, text=_problem_text(inst)))
        for inst in _generated(workload, SMALL_CLASSES, seed, SMALL_PER_CLASS):
            entries.append(Entry(name=inst.name, instance=inst, text=_problem_text(inst)))
        return entries
    if workload == "dense":
        fixed = _generated(workload, DENSE_CLASSES, CORE_SEED, DENSE_FIXED_PER_CLASS)
        seeded = _generated(workload, DENSE_CLASSES, seed, DENSE_SEEDED_PER_CLASS,
                            first=DENSE_FIXED_PER_CLASS)
        return [Entry(name=inst.name, instance=inst) for inst in fixed + seeded]
    if workload == "oracle":
        fixed = []
        for i in range(len(ORACLE_CLASSES) * ORACLE_FIXED_PER_CLASS):
            # The instance pattern of acceptance criterion 5.
            kind = "convex" if i % 2 == 0 else "indefinite"
            n = 2 if i % 4 < 2 else 3
            fixed.append(fileio.gen_instance(kind, n, 30_000 + i))
        seeded = _generated(workload, ORACLE_CLASSES, seed, ORACLE_SEEDED_PER_CLASS)
        return [Entry(name=inst.name, instance=inst) for inst in fixed + seeded]
    if workload == "cli":
        return _cli_corpus(seed, root, workdir)
    raise ValueError(f"unknown workload {workload!r}")


def _cli_corpus(seed: int, root: Path, workdir: Path) -> list[Entry]:
    files = list(_fixtures(root))
    for j, (kind, n) in enumerate(CLI_GENERATED):
        inst = fileio.gen_instance(kind, n, gen_seed("cli", kind, n, seed, j))
        path = workdir / f"{inst.name}.json"
        path.write_text(_problem_text(inst), encoding="utf-8")
        files.append(path)
    entries = []
    for path in files:
        report = workdir / f"{path.stem}.report.json"
        points = workdir / f"{path.stem}.points.json"
        entries.append(Entry(name=f"solve:{path.stem}", command="solve",
                             argv=["solve", str(path), "-o", str(report)],
                             problem_path=str(path), output_path=str(report)))
        entries.append(Entry(name=f"enumerate:{path.stem}", command="enumerate",
                             argv=["enumerate", str(path), "-o", str(points)],
                             problem_path=str(path), output_path=str(points)))
        entries.append(Entry(name=f"check:{path.stem}", command="check",
                             argv=["check", str(path), str(report)],
                             problem_path=str(path), report_path=str(report)))
    kind, n = CLI_SWEEP
    inst = fileio.gen_instance(kind, n, gen_seed("cli-sweep", kind, n, seed, 0))
    path = workdir / f"{inst.name}.json"
    path.write_text(_problem_text(inst), encoding="utf-8")
    curve = workdir / f"{inst.name}.sweep.csv"
    entries.append(Entry(name=f"sweep:{inst.name}", command="sweep",
                         argv=["sweep", str(path), *CLI_SWEEP_ARGS, "-o", str(curve)],
                         problem_path=str(path), output_path=str(curve)))
    return entries


def split_known_defects(corpus: list[Entry]) -> tuple[list[Entry], list[Entry]]:
    """The timed corpus and the known-defect entries, each in corpus order."""
    return ([e for e in corpus if e.name not in KNOWN_DEFECTS],
            [e for e in corpus if e.name in KNOWN_DEFECTS])


def is_solve(workload: str, entry: Entry) -> bool:
    return workload != "cli" or entry.command == "solve"


# ---------------------------------------------------------------------------
# ops


def op_small(entry: Entry):
    instance = fileio.parse_problem(entry.text)
    report = solver.solve_problem(fileio.as_dense(instance))
    text = fileio.dumps_json(fileio.report_to_jsonable(report, lorentzqp.__version__))
    return report, text


def op_dense(entry: Entry):
    return solver.solve_problem(entry.instance)


def op_oracle(entry: Entry):
    return solver.solve_problem(entry.instance, oracle=True,
                                oracle_resolution=ORACLE_RESOLUTION)


def op_cli_subprocess(entry: Entry):
    # No timeout: with one, subprocess polls for the exit in sleeps of up to
    # 50 ms, which quantizes the latency.  bench/run.py kills the whole
    # process group if a run overstays its budget.  The child inherits this
    # process's environment, BLAS pinning and PYTHONPATH included.
    proc = subprocess.run([sys.executable, "-m", "lorentzqp.cli", *entry.argv],
                          stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    return proc.returncode


def op_cli_inprocess(entry: Entry):
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(list(entry.argv))


def describe(workload: str, entry: Entry, raw) -> Outcome:
    """Exit code and digest detail of one op; read outside the timed region."""
    if workload == "small":
        report, _ = raw
        return Outcome(report.exit_code, _sigma_text(report.solution and report.solution.sigma),
                       report)
    if workload in ("dense", "oracle"):
        return Outcome(raw.exit_code, _sigma_text(raw.solution and raw.solution.sigma), raw)
    code = raw
    if entry.command == "solve":
        data = json.loads(Path(entry.output_path).read_text(encoding="utf-8"))
        sol = data.get("solution")
        return Outcome(code, _sigma_text(sol and sol["sigma"]), data)
    if entry.command == "enumerate":
        data = json.loads(Path(entry.output_path).read_text(encoding="utf-8"))
        sigmas = [cp["sigma"] for cp in data["critical_points"]]
        return Outcome(code, ",".join(_sigma_text(s) for s in sigmas), sigmas)
    if entry.command == "sweep":
        text = Path(entry.output_path).read_text(encoding="utf-8")
        rows = text.count("\n") - 1
        return Outcome(code, f"rows={rows}:{hashlib.sha256(text.encode()).hexdigest()[:16]}",
                       text)
    return Outcome(code, "")


# ---------------------------------------------------------------------------
# checks


def check_solution(p, sol) -> list[str]:
    """Failures of one reported solution (empty when it passes)."""
    out = []
    res = verify.kkt_check(p, sol.x, sol.sigma).max_residual
    if not res <= KKT_RESIDUAL_MAX:
        out.append(f"KKT residual {res:.3e} > {KKT_RESIDUAL_MAX:g}")
    gap = abs(sol.primal_value - sol.dual_value)
    if not gap <= GAP_RTOL * (1.0 + abs(sol.dual_value)):
        out.append(f"|primal - dual| = {gap:.3e} > {GAP_RTOL:g}*(1+|dual|)")
    if not sol.nappe_ok:
        out.append("solution is on the mirror nappe (nappe_ok false)")
    return out


def check_report(report, with_oracle: bool) -> list[str]:
    out = []
    if report.exit_code not in VALID_EXITS:
        out.append(f"exit code {report.exit_code} not in {VALID_EXITS}")
    sol = report.solution
    if sol is not None:
        out += check_solution(report.problem, sol)
    if with_oracle and report.exit_code == solver.EXIT_CERTIFIED:
        v = sol.primal_value
        if report.oracle.best_value < v - ORACLE_RTOL * (1.0 + abs(v)):
            out.append(f"oracle value {report.oracle.best_value!r} beats certified {v!r}")
    return out


def check_secular(d) -> list[str]:
    """The diagonal closed form and the dense enumeration must agree."""
    sec = secular.secular_enumerate(d)
    den = dual.enumerate_kkt(d.to_dense())
    if len(sec) != len(den):
        return [f"secular path finds {len(sec)} KKT points, dense path {len(den)}"]
    out = []
    for a, b in zip(sec, den):
        if abs(a.sigma - b.sigma) > SECULAR_TOL or a.certificate != b.certificate:
            out.append(f"secular ({a.sigma!r}, {a.certificate}) vs dense "
                       f"({b.sigma!r}, {b.certificate})")
    return out


def _close(a, b) -> bool:
    return abs(a - b) <= CLI_MATCH_RTOL * (1.0 + abs(b))


class CliReference:
    """In-process results for the files the CLI ops read, computed once each."""

    def __init__(self):
        self._problems, self._reports = {}, {}

    def problem(self, path):
        if path not in self._problems:
            self._problems[path] = fileio.as_dense(fileio.load_problem(path))
        return self._problems[path]

    def report(self, path):
        if path not in self._reports:
            self._reports[path] = solver.solve_problem(self.problem(path))
        return self._reports[path]


def check_cli(entry: Entry, outcome: Outcome, ref: CliReference, reports: dict) -> list[str]:
    p = ref.problem(entry.problem_path)
    if entry.command == "solve":
        expected = ref.report(entry.problem_path)
        if outcome.exit_code not in VALID_EXITS:
            return [f"exit code {outcome.exit_code} not in {VALID_EXITS}"]
        out = []
        if outcome.exit_code != expected.exit_code:
            out.append(f"exit {outcome.exit_code} but in-process solve gives {expected.exit_code}")
        sol = outcome.payload["solution"]
        if (sol is None) != (expected.solution is None):
            out.append("solution presence differs from the in-process solve")
        elif sol is not None:
            x = np.asarray(sol["x"], dtype=float)
            if not (_close(sol["sigma"], expected.solution.sigma)
                    and all(_close(a, b) for a, b in zip(x, expected.solution.x))):
                out.append("solution differs from the in-process solve")
            out += check_solution(p, SimpleNamespace(
                sigma=float(sol["sigma"]), x=x, primal_value=float(sol["primal_value"]),
                dual_value=float(sol["dual_value"]), nappe_ok=bool(sol["nappe_ok"])))
        return out
    if outcome.exit_code != 0:
        carries = reports.get(entry.report_path, {}).get("solution") is not None
        what = "a report that carries a solution" if carries else "a report"
        return [f"{entry.command} exits {outcome.exit_code} on {what}"]
    if entry.command == "enumerate":
        expected = [cp.sigma for cp in dual.enumerate_kkt(p)]
        if len(expected) != len(outcome.payload) or not all(
                _close(a, b) for a, b in zip(outcome.payload, expected)):
            return ["critical points differ from the in-process enumeration"]
    if entry.command == "sweep":
        argv = entry.argv
        rows = solver.sweep_table(p, 0.0, float(argv[argv.index("--sigma-max") + 1]),
                                  int(argv[argv.index("--steps") + 1]))
        if fileio.sweep_csv(rows) != outcome.payload:
            return ["sweep CSV differs from the in-process sweep_table"]
    return []


def check_corpus(workload: str, corpus: list[Entry], first: list[Outcome]) -> dict[int, list[str]]:
    """Failures by corpus index, for the first outcome of each entry."""
    failures: dict[int, list[str]] = {}
    ref = CliReference()
    reports = {e.output_path: o.payload for e, o in zip(corpus, first)
               if e.command == "solve" and isinstance(o.payload, dict)}
    for i, (entry, outcome) in enumerate(zip(corpus, first)):
        if outcome.exit_code is None:
            failures[i] = [outcome.detail]
            continue
        if workload == "cli":
            found = check_cli(entry, outcome, ref, reports)
        else:
            found = check_report(outcome.payload, workload == "oracle")
            if isinstance(entry.instance, secular.DiagonalInstance):
                found += check_secular(entry.instance)
        if found:
            failures[i] = found
    return failures


def self_check(workload: str, corpus: list[Entry], first: list[Outcome]) -> str:
    """Plant a perturbed x in a copy of one solution; the checker must count it."""
    for entry, outcome in zip(corpus, first):
        if workload == "cli":
            if entry.command != "solve" or not outcome.payload or not outcome.payload["solution"]:
                continue
            data = json.loads(json.dumps(outcome.payload))
            data["solution"]["x"] = [v + 1e-3 * (1.0 + abs(v)) for v in data["solution"]["x"]]
            planted = Outcome(outcome.exit_code, outcome.detail, data)
        else:
            report = outcome.payload
            if report is None or report.solution is None:
                continue
            sol = report.solution
            bad = replace(sol, x=sol.x + 1e-3 * (1.0 + np.abs(sol.x)))
            planted = Outcome(outcome.exit_code, outcome.detail, replace(report, solution=bad))
        found = check_corpus(workload, [entry], [planted])
        if not found:
            raise RuntimeError(f"checker missed a perturbed solution planted in {entry.name}")
        return f"planted perturbed x in {entry.name}: counted ({found[0][0]})"
    raise RuntimeError("no solution in the corpus to plant a perturbed x into")


def digest(corpus: list[Entry], first: list[Outcome]) -> str:
    text = "\n".join(f"{e.name}|{o.key}" for e, o in zip(corpus, first))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def histogram(first: list[Outcome]) -> dict[str, int]:
    counts = Counter(str(o.exit_code) for o in first)
    return dict(sorted(counts.items()))


def make_workdir(root: Path) -> Path:
    path = root / ".bench_out" / f"work-{os.getpid()}"
    path.mkdir(parents=True, exist_ok=True)
    return path


def remove_workdir(path: Path):
    shutil.rmtree(path, ignore_errors=True)

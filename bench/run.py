"""Benchmark for lorentzqp: four closed-loop workloads with checked outputs.

Run from the root of a checkout::

    python3 bench/run.py --workload {small,dense,oracle,cli} [--seed N]
                         [--seconds S] [--trace 0|1]

Each workload runs in a fresh interpreter with OPENBLAS_NUM_THREADS,
OMP_NUM_THREADS and MKL_NUM_THREADS set to 1, importing the package from
``src/``.  With ``--trace 0`` the run is untraced and reports the end-to-end
metrics; with ``--trace 1`` the corpus runs once untraced and once with
span wrappers installed from ``bench/tracer.py`` (one pass each, whatever
``--seconds`` says) and the run reports the per-layer metrics.
Human-readable lines come first; the last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and the metrics
that ``BENCHMARK.json`` lists for the mode.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("small", "dense", "oracle", "cli")
DEFAULT_SEED = 20261017
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# Set-up is sampled in this many fresh interpreters per run (the measured
# run's own set-up is one of them); setup_s is their median.
SETUP_SAMPLES = 7
IMPORT_SAMPLES = 3
BUDGET_S = 170.0


class BenchError(RuntimeError):
    pass


def worker_env() -> dict:
    env = dict(os.environ)
    env.update({k: "1" for k in THREAD_VARS})
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_child(cmd, env, deadline, what) -> subprocess.CompletedProcess:
    """Run a child in its own process group; on timeout kill the whole group,
    so that a CLI process started by a worker does not outlive it."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError(f"time budget exhausted before {what}")
    with subprocess.Popen(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, start_new_session=True) as proc:
        try:
            out, err = proc.communicate(timeout=timeout)
        except BaseException:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise
    if proc.returncode != 0:
        raise BenchError(f"{what} failed with exit code {proc.returncode}:\n{err}")
    return subprocess.CompletedProcess(cmd, proc.returncode, out, err)


def run_worker(mode, args, env, deadline) -> dict:
    t0 = time.monotonic()
    cmd = [sys.executable, str(HERE / "worker.py"), mode, args.workload, str(args.seed),
           str(args.seconds), repr(t0), str(ROOT)]
    proc = run_child(cmd, env, deadline, f"{mode} worker")
    return json.loads(proc.stdout.strip().splitlines()[-1])


# ---------------------------------------------------------------------------
# start-up breakdown


def parse_importtime(text: str) -> dict:
    """Seconds spent importing numpy, scipy and the package's own modules.

    ``-X importtime`` prints one line per module after its children, indented
    two spaces per level; reading the lines backwards gives each module's
    ancestors.  numpy and scipy count their outermost entries' cumulative
    time; the package counts the self time of its modules.
    """
    rows = []
    for line in text.splitlines():
        parts = line.split("|")
        if not line.startswith("import time:") or len(parts) != 3:
            continue
        try:
            self_us = int(parts[0].split(":")[1])
            cum_us = int(parts[1])
        except ValueError:
            continue  # the header line
        name = parts[2]
        depth = (len(name) - len(name.lstrip(" ")) - 1) // 2
        rows.append((depth, name.strip(), self_us, cum_us))
    out = {"numpy": 0, "scipy": 0, "lorentzqp": 0}
    stack: list[str] = []
    for depth, name, self_us, cum_us in reversed(rows):
        ancestors = stack[:depth]
        top = name.split(".")[0]
        if top in ("numpy", "scipy") and not any(a.split(".")[0] == top for a in ancestors):
            out[top] += cum_us
        if top == "lorentzqp":
            out["lorentzqp"] += self_us
        stack = ancestors + [name]
    return {k: v * 1e-6 for k, v in out.items()}


def startup_breakdown(env, deadline) -> dict:
    interp, imports = [], []
    for _ in range(IMPORT_SAMPLES):
        # A blocking wait: run_child's timeout would poll for the exit.
        t = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], env=env, cwd=ROOT, check=True)
        interp.append(time.perf_counter() - t)
        proc = run_child([sys.executable, "-X", "importtime", "-c",
                          "import lorentzqp, lorentzqp.cli"], env, deadline, "import timing")
        imports.append(parse_importtime(proc.stderr))
    return {
        "setup.interpreter_s": statistics.median(interp),
        "setup.import_numpy_s": statistics.median(s["numpy"] for s in imports),
        "setup.import_scipy_s": statistics.median(s["scipy"] for s in imports),
        "setup.import_lorentzqp_self_s": statistics.median(s["lorentzqp"] for s in imports),
    }


# ---------------------------------------------------------------------------
# metrics


def end_to_end(res: dict, setups: list[float], workload: str) -> dict:
    """Every end-to-end metric as (value, unit, note)."""
    cert, solves = res["certified"]
    nosol, _ = res["no_solution"]
    return {
        "setup_s": (statistics.median(setups), "s",
                    f"median of {len(setups)} set-ups: "
                    + " ".join(f"{v:.3f}" for v in setups)),
        "op_p50_ms": (res["op_p50_ms"], "ms", f"{res['samples']} ops"),
        "op_tail_ms": (res["op_tail_ms"], "ms",
                       f"p{res['tail_pct']:.2f} of {res['samples']} ops, "
                       f"{res['tail_beyond']} beyond"),
        "ops_per_s": (res["ops_per_s"], "1/s",
                      f"{res['ops']} ops in {res['wall_s']:.2f} s, "
                      f"{res['passes']:.2f} passes over {res['corpus']} entries"),
        "ops_per_s_norm": (res["ops_per_s_norm"], "1/s",
                           "ops / summed op latency, each latency divided by the host "
                           f"slowness probed before it (median {res['slowness']:.3f} of "
                           f"{res['probes']} probes, 1 = nominal)"),
        "peak_rss_mb": (res["peak_rss_mb"], "MB",
                        "ru_maxrss of the CLI child processes" if workload == "cli"
                        else "ru_maxrss of the workload process"),
        "error_frac": (res["error_frac"], "frac", f"{res['failed']} of {res['ops']} ops"),
        "certified_frac": (cert / solves if solves else 0.0, "frac",
                           f"exit 0 in {cert} of {solves} solve ops"),
        "no_solution_frac": (nosol / solves if solves else 0.0, "frac",
                             f"exit 4 in {nosol} of {solves} solve ops"),
    }


def per_layer(res: dict, startup: dict) -> dict:
    """Every per-layer metric as (value, unit, note)."""
    s = res["summary"]
    calls, self_s, errors = s["calls"], s["self_s"], s["errors"]
    out = {}

    def c(name):
        out[f"{name}.calls"] = (calls.get(name, 0), "count", "")

    def t(name):
        out[f"{name}.self_s"] = (self_s.get(name, 0.0), "s", "")

    for name in ("lapack.solve", "lapack.eig"):
        c(name)
        t(name)
    out["lapack.solve.matrices"] = (s["matrices"].get("lapack.solve", 0), "count",
                                    "batched solves count one per matrix")
    out["lapack.solve.batch_fallbacks"] = (errors.get("lapack.solve.batch_fallbacks", 0),
                                           "count", "batched solves that raised LinAlgError")
    out["lapack.flops_computed"] = (s["flops"], "flop",
                                    "computed from matrix sizes, not measured")
    c("lapack.ldl")
    c("lapack.lu")
    for name in ("linalg.min_eigenvalue", "linalg.pencil_singular_sigmas", "linalg.factorize"):
        c(name)
        t(name)
    c("linalg.solve_linear")
    out["linalg.singular_errors"] = (errors.get("linalg.singular_errors", 0), "count",
                                     "SingularMatrixError out of solve_linear")
    c("model.shifted_hessian")
    for name in ("dual.pd_interval", "dual.maximize", "dual.enumerate_kkt",
                 "dual.hard_case_solve"):
        c(name)
        t(name)
    out["dual.hard_case_solve.errors"] = (errors.get("dual.hard_case_solve", 0), "count", "")
    c("dual.build_critical_point")
    points, solves = s["kkt_points"], s["enumerate_solves"]
    out["dual.kkt_points"] = (points, "count", "points returned by enumerate_kkt")
    out["dual.solves_per_kkt_point"] = (
        solves / max(points, 1), "ratio",
        f"{solves} matrices solved under enumerate_kkt / max(1, {points} points)")
    t("solver.solve_problem")
    c("solver.sweep_table")
    t("solver.sweep_table")
    for name in ("verify.brute_force_min", "verify.kkt_check"):
        c(name)
        t(name)
    t("verify.default_oracle_radius")
    for name in ("cli.main", "fileio.parse_problem", "fileio.report_to_jsonable",
                 "fileio.dumps_json", "fileio.write_text_atomic"):
        t(name)
    out["fileio.bytes_written"] = (s["bytes_written"], "bytes", "through write_text_atomic")
    c("secular.secular_enumerate")
    t("secular.secular_enumerate")
    for key, value in startup.items():
        out[key] = (value, "s", "python -X importtime" if "import" in key else "python -c pass")
    base, traced = res["untraced_ops_per_s"], res["traced_ops_per_s"]
    out["trace.overhead_frac"] = (1.0 - traced / base, "frac",
                                  f"1 - traced/untraced ops_per_s = 1 - {traced:.3f}/{base:.3f}")
    out["trace.op_time_s"] = (res["op_time_s"], "s", "summed op latency in the traced pass")
    return out


# ---------------------------------------------------------------------------
# output


def load_benchmark() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def print_common(args, res, bench):
    m = res["machine"]
    threads = " ".join(f"{k}={v}" for k, v in m["threads"].items())
    caller = " ".join(f"{k}={os.environ.get(k, 'unset')}" for k in THREAD_VARS)
    print(f"lorentzqp benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    print(f"machine: nproc={m['nproc']} affinity={m['affinity']} python={m['python']} "
          f"numpy={m['numpy']} scipy={m['scipy']} blas={m['blas']}")
    print(f"threads: workers {threads}; caller {caller}")
    why = {w["name"]: w["why"] for w in bench["workloads"]}.get(args.workload, "")
    print(f"workload: {why}")
    print("load: closed loop, one client, next op after the previous one returns; "
          f"corpus of {res['corpus']} entries run in order")


def print_verdicts(res):
    hist = " ".join(f"{k}:{v}" for k, v in res["histogram"].items())
    print(f"exit codes over the corpus: {hist}")
    print(f"verdict digest: {res['digest']}")
    print(f"self-check: {res['self_check']}")
    for d in res["known_defects"]:
        state = ("still fails: " + "; ".join(d["why"]) if d["why"] else
                 "passes now: take it out of KNOWN_DEFECTS in bench/workloads.py")
        print(f"known defect, run once outside the timed loop: {d['instance']} "
              f"({d['defect']}); outcome {d['outcome']}; {state}")
    if res["failures"]:
        print(f"failed checks ({len(res['failures'])} entries):")
        for f in res["failures"]:
            print(f"  {f['instance']}: {'; '.join(f['why'])}")
    else:
        print("failed checks: none")


def print_metrics(title, metrics):
    print(title)
    for name, (value, unit, note) in metrics.items():
        print(f"  {name:<36} {value:>14.6g} {unit:<6} {note}")


def print_shares(res):
    s = res["summary"]
    total = res["op_time_s"]
    inc = s["inclusive_s"]
    print(f"where the traced op time goes ({total:.3f} s over {res['traced_ops']} ops):")
    enum = s["self_s"].get("dual.enumerate_kkt", 0.0) + s["enumerate_kernel_self_s"]
    print(f"  dual.enumerate_kkt self + lapack under it   {enum / total:7.1%}")
    for name in ("dual.enumerate_kkt", "verify.brute_force_min", "dual.maximize",
                 "dual.pd_interval", "solver.sweep_table", "cli.main"):
        print(f"  {name + ' (inclusive)':<44} {inc.get(name, 0.0) / total:7.1%}")
    top = sorted(((k, v) for k, v in s["self_s"].items() if not k.startswith("secular.")),
                 key=lambda kv: -kv[1])[:8]
    print("  largest self times: " + ", ".join(f"{k} {v / total:.1%}" for k, v in top))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "lorentzqp" / "__init__.py").is_file():
        print(f"error: no package source at {ROOT / 'src' / 'lorentzqp'}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    deadline = time.monotonic() + BUDGET_S
    env = worker_env()
    try:
        setups = [run_worker("setup", args, env, deadline)["setup_s"]
                  for _ in range(SETUP_SAMPLES - 1)]
        res = run_worker("run" if args.trace == 0 else "trace", args, env, deadline)
        setups.append(res["setup_s"])
        startup = startup_breakdown(env, deadline) if args.trace else None
    except subprocess.TimeoutExpired:
        print("error: the run did not finish within its time budget", file=sys.stderr)
        return 1
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    bench = load_benchmark()
    print_common(args, res, bench)
    correct = not res["failures"]
    if args.trace == 0:
        metrics = end_to_end(res, setups, args.workload)
        print_metrics("end-to-end metrics (untraced):", metrics)
        print("waits: none measured - one client and no pool, so no layer queues or waits")
        declared = bench["end_to_end"]
    else:
        metrics = per_layer(res, startup)
        print_metrics("per-layer metrics (traced pass; *.self_s = span time minus child spans):",
                      metrics)
        print_shares(res)
        same = res["digest"] == res["traced_digest"]
        correct = correct and same
        print(f"traced digest: {res['traced_digest']} "
              f"({'equals' if same else 'DIFFERS FROM'} the untraced digest)")
        print(f"spans written to {res['span_file']} ({res['summary']['spans']} spans)")
        declared = bench["per_layer"]
    print_verdicts(res)
    unmatched = [d["name"] for d in declared
                 if d["name"] not in metrics or metrics[d["name"]][1] != d["unit"]]
    if unmatched:
        print(f"error: BENCHMARK.json lists metrics this run does not compute with the "
              f"declared unit: {unmatched}", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": correct,
        "attempted": res["ops"],
        "failed": res["failed"],
        "metrics": {d["name"]: {"value": metrics[d["name"]][0], "unit": d["unit"]}
                    for d in declared},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

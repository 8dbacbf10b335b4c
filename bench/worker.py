"""One benchmark process: set up a workload, then optionally measure it.

Started by ``bench/run.py`` in a fresh interpreter with the BLAS thread
variables pinned, so that set-up time includes interpreter start and every
import.  Usage::

    worker.py MODE WORKLOAD SEED SECONDS T0 ROOT

MODE is ``setup`` (set up and exit), ``run`` (the untraced timed loop) or
``trace`` (one untraced and one traced pass over the corpus).  T0 is the
parent's ``time.monotonic()`` just before it started this process.  The
last line of standard output is the result as JSON.
"""

import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

import numpy
import scipy

import workloads as wl


def machine_record() -> dict:
    try:
        blas_info = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas_info['name']} {blas_info['version']}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "threads": {k: os.environ.get(k) for k in
                    ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def runner_for(workload: str, inprocess: bool):
    if workload == "cli":
        return wl.op_cli_inprocess if inprocess else wl.op_cli_subprocess
    return {"small": wl.op_small, "dense": wl.op_dense, "oracle": wl.op_oracle}[workload]


# Host-speed probe.  On a shared host the CPU speed one process sees drifts
# by up to 50% within a minute, invisibly from inside (no steal time), and
# the drift moves interpreted code, small numpy calls and vectorized array
# code by different amounts.  Every PROBE_EVERY_S, between ops, the probe
# times one fixed piece of each kind; ops_per_s_norm divides each op's
# latency by the probe taken just before it.  On 150 s of ops cut into
# 12.5 s pieces, this cut the piece-to-piece relative s.d. of throughput
# from 0.085 to 0.035 on dense, 0.037 to 0.027 on small and 0.091 to 0.067
# on oracle; scaling by an interpreter loop alone gave 0.050, 0.042, 0.069.
PROBE_EVERY_S = 0.25
# Median time of each piece on the 2-core Xeon host where the benchmark was
# defined: interpreter loop, small numpy calls, vectorized array code.
PROBE_NOMINAL_S = (0.95e-3, 1.15e-3, 0.8e-3)
_A = numpy.array([[2.0, 0.3, 0.1], [0.3, 1.0, 0.2], [0.1, 0.2, 3.0]])
_B = numpy.ones(3)
_ROWS = numpy.random.default_rng(0).standard_normal((8000, 3))


def probe() -> float:
    """Host slowness now: the pieces' mean time relative to nominal, so 1.0
    at the nominal speed and 1.2 when the host runs 20% slower."""
    clock = time.perf_counter
    t0 = clock()
    s = 0.0
    for i in range(15_000):
        s += i * 0.5
    t1 = clock()
    for _ in range(60):
        numpy.linalg.eigvalsh(_A)
        numpy.linalg.solve(_A, _B)
    t2 = clock()
    x = _ROWS
    for _ in range(5):
        x = x - 0.01 * (x @ _A - _B)
        float(numpy.max(numpy.abs(x)))
    t3 = clock()
    times = (t1 - t0, t2 - t1, t3 - t2)
    return sum(t / nominal for t, nominal in zip(times, PROBE_NOMINAL_S)) / len(times)


class Pass:
    """Ops executed in corpus order, with their latencies and outcomes."""

    def __init__(self, workload, corpus):
        self.workload, self.corpus = workload, corpus
        self.latencies: list[float] = []
        self.index: list[int] = []
        self.keys: list[str] = []
        self.first: list = [None] * len(corpus)
        self.probes: list[float] = []
        self.norm_s = 0.0
        self.wall_s = 0.0

    def run(self, runner, seconds=0.0, tracer=None, probing=False):
        """Cycle through the corpus until ``seconds`` passed and every entry
        ran once.  With ``probing``, run the host-speed probe between ops,
        sum the latencies divided by the slowness it reads into ``norm_s``,
        and leave its own time out of ``wall_s``."""
        clock = time.perf_counter
        n = len(self.corpus)
        start = clock()
        deadline = start + seconds
        next_probe = start
        probe_s = 0.0
        i = 0
        while i < n or clock() < deadline:
            if probing and clock() >= next_probe:
                t = clock()
                self.probes.append(probe())
                probe_end = clock()
                probe_s += probe_end - t
                next_probe = probe_end + PROBE_EVERY_S
            entry = self.corpus[i % n]
            if tracer is not None:
                tracer.op_id = i
            t = clock()
            try:
                raw = runner(entry)
            except Exception as exc:  # a failed op is counted, the run goes on
                raw = exc
            self.latencies.append(clock() - t)
            if probing:
                self.norm_s += self.latencies[-1] / self.probes[-1]
            outcome = self._outcome(entry, raw)
            if self.first[i % n] is None:
                self.first[i % n] = outcome
            self.index.append(i % n)
            self.keys.append(outcome.key)
            i += 1
        self.wall_s = clock() - start - probe_s
        return self

    def _outcome(self, entry, raw):
        if not isinstance(raw, Exception):
            try:
                return wl.describe(self.workload, entry, raw)
            except (OSError, ValueError, KeyError) as exc:  # unreadable CLI output
                raw = exc
        return wl.Outcome(None, f"error: {type(raw).__name__}: {raw}")

    def failed_ops(self, failures: dict) -> int:
        """Ops that raised, whose entry failed a check, or that disagree with
        the entry's first result."""
        return sum(1 for j, key in zip(self.index, self.keys)
                   if j in failures or key != self.first[j].key)

    def mismatches(self) -> dict:
        out = {}
        for j, key in zip(self.index, self.keys):
            if key != self.first[j].key:
                out[j] = [f"repeat gave {key!r}, first run {self.first[j].key!r}"]
        return out

    def frac(self, exit_code: int) -> tuple[int, int]:
        ops = [j for j in self.index if wl.is_solve(self.workload, self.corpus[j])]
        hits = sum(1 for j in ops if self.first[j].exit_code == exit_code)
        return hits, len(ops)


def latency_summary(latencies: list[float]) -> dict:
    """Median and tail of the op latencies.  The tail is the highest
    percentile with at least ten samples beyond it: the eleventh-largest."""
    ms = sorted(v * 1e3 for v in latencies)
    n = len(ms)
    rank = max(n - 10, 1)
    return {
        "op_p50_ms": statistics.median(ms),
        "op_tail_ms": ms[rank - 1],
        "tail_pct": 100.0 * rank / n,
        "tail_beyond": n - rank,
        "samples": n,
    }


def merge_failures(*dicts) -> dict:
    out: dict = {}
    for d in dicts:
        for k, v in d.items():
            out.setdefault(k, []).extend(v)
    return out


def failure_list(corpus, failures: dict) -> list:
    return [{"instance": corpus[j].name, "why": why} for j, why in sorted(failures.items())]


def main(argv):
    mode, workload, seed, seconds, t0, root = argv
    seed, seconds, t0, root = int(seed), float(seconds), float(t0), Path(root)
    workdir = wl.make_workdir(root)
    try:
        corpus, defects = wl.split_known_defects(wl.build_corpus(workload, seed, root, workdir))
        setup_s = time.monotonic() - t0
        if mode == "setup":
            return {"setup_s": setup_s}
        result = {"setup_s": setup_s, "corpus": len(corpus), "machine": machine_record()}
        if mode == "run":
            result.update(measure(workload, corpus, defects, seconds))
        else:
            result.update(trace(workload, corpus, defects, root, seed))
        return result
    finally:
        wl.remove_workdir(workdir)


def checked(workload, corpus, p, known):
    """Check the timed pass ``p`` and the known-defect pass ``known``.  They
    are checked together because a CLI ``check`` reads the report that a
    ``solve`` op of the timed pass wrote; only the timed pass's failures
    count against the run."""
    n = len(corpus)
    found = wl.check_corpus(workload, corpus + known.corpus, p.first + known.first)
    failures = merge_failures({j: why for j, why in found.items() if j < n}, p.mismatches())
    defects = [{"instance": e.name, "defect": wl.KNOWN_DEFECTS[e.name], "outcome": o.key,
                "why": found.get(n + j, [])}
               for j, (e, o) in enumerate(zip(known.corpus, known.first))]
    return failures, {
        "digest": wl.digest(corpus, p.first),
        "histogram": wl.histogram(p.first),
        "failures": failure_list(corpus, failures),
        "known_defects": defects,
        "self_check": wl.self_check(workload, corpus, p.first),
    }


def measure(workload, corpus, defects, seconds) -> dict:
    runner = runner_for(workload, inprocess=False)
    p = Pass(workload, corpus).run(runner, seconds, probing=True)
    who = resource.RUSAGE_CHILDREN if workload == "cli" else resource.RUSAGE_SELF
    peak_rss_mb = resource.getrusage(who).ru_maxrss / 1024.0
    known = Pass(workload, defects).run(runner)
    failures, out = checked(workload, corpus, p, known)
    failed = p.failed_ops(failures)
    certified, solves = p.frac(0)
    no_solution, _ = p.frac(4)
    out.update(latency_summary(p.latencies))
    out.update({
        "ops": len(p.latencies),
        "failed": failed,
        "passes": len(p.latencies) / len(corpus),
        "ops_per_s": len(p.latencies) / p.wall_s,
        "slowness": statistics.median(p.probes),
        "probes": len(p.probes),
        "ops_per_s_norm": len(p.latencies) / p.norm_s,
        "wall_s": p.wall_s,
        "peak_rss_mb": peak_rss_mb,
        "error_frac": failed / len(p.latencies),
        "certified": [certified, solves],
        "no_solution": [no_solution, solves],
    })
    return out


def trace(workload, corpus, defects, root, seed) -> dict:
    from tracer import CHECK_OP, Tracer

    runner = runner_for(workload, inprocess=True)
    base = Pass(workload, corpus).run(runner)
    known = Pass(workload, defects).run(runner)
    tracer = Tracer()
    with tracer:
        traced = Pass(workload, corpus).run(runner, tracer=tracer)
        tracer.op_id = CHECK_OP
        failures, out = checked(workload, corpus, base, known)
    summary = tracer.summarize()
    span_file = root / ".bench_out" / f"spans-{workload}-seed{seed}.jsonl.gz"
    tracer.write(span_file)
    differs = {j: [f"traced run gave {t.key!r}, untraced {b.key!r}"]
               for j, (b, t) in enumerate(zip(base.first, traced.first)) if b.key != t.key}
    failures = merge_failures(failures, differs)
    out.update({
        "failures": failure_list(corpus, failures),
        "ops": len(base.latencies) + len(traced.latencies),
        "failed": base.failed_ops(failures) + traced.failed_ops(failures),
        "traced_digest": wl.digest(corpus, traced.first),
        "untraced_ops_per_s": len(base.latencies) / base.wall_s,
        "traced_ops_per_s": len(traced.latencies) / traced.wall_s,
        "traced_ops": len(traced.latencies),
        "op_time_s": sum(traced.latencies),
        "summary": summary,
        "span_file": str(span_file.relative_to(root)),
    })
    return out


if __name__ == "__main__":
    print(json.dumps(main(sys.argv[1:])))

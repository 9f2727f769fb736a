"""The evalcomb benchmark: one workload, one seed, one closed-loop caller.

    python3 bench/run.py --workload combine-small --seed 1 --seconds 25 --trace 0

Run from the root of a checkout; evalcomb is imported from its ``src``.
One process, one thread, thread pools pinned to 1; the caller sends
the next call only after the previous one returns.  Every output is
checked, and a failure is an exception, a non-zero exit code or a
failed check.

``--trace 0`` times ops for ``--seconds`` (rounded up to whole rounds)
and reports the end-to-end metrics.  ``--trace 1`` runs the workload's
fixed traced op list round by round, untraced and then with spans
around every public evalcomb function, and reports the per-layer
metrics and the tracing overhead.  The last line of stdout is the result; the line
before it holds provenance, input sizes and properties, sample counts
and the first failures.
"""

from __future__ import annotations

import os

from entry import ROOT, SRC, THREAD_VARS, load_program, warm_up

# Pinned before numpy is first imported, below, and inherited by the
# set-up probes.
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse
import hashlib
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
import warnings

import numpy as np

from spans import Tracer
from workloads import WORKLOADS

SETUP_PROBES = 5
# A key's latency is this percentile of its ops' latencies.  The host
# runs at its usual speed most of the time, with episodes about 1.5x
# faster that come and go over seconds to minutes; the median reads
# them as soon as they fill half a run, this percentile only once they
# fill nine tenths of it.
KEY_PERCENTILE = 90
PROBE = str(ROOT / "bench" / "entry.py")
TMP = ROOT / ".bench_tmp"
SPANS_DIR = ROOT / ".bench_out"
MAX_FAILURES_SHOWN = 5


def _git_commit() -> str | None:
    """HEAD of the checkout's own .git, or None outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def provenance(ec, seed: int) -> dict:
    return {
        "git_commit": _git_commit(),
        "source_sha256": _source_digest(),
        "evalcomb": ec.__version__,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "thread_env": {var: os.environ[var] for var in THREAD_VARS},
        "seed": seed,
    }


def measure_setup(spec: dict) -> list[float]:
    """Import plus warm-up call, each in a fresh interpreter, one at a time."""
    samples = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run([sys.executable, PROBE, json.dumps(spec)], cwd=ROOT,
                              capture_output=True, text=True, timeout=120)
        if done.returncode != 0:
            raise SystemExit(f"bench: set-up probe failed: {done.stderr.strip()}")
        samples.append(float(done.stdout.strip().splitlines()[-1]))
    return samples


def run_ops(workload, indices, before_op=None):
    """Time each op alone.  Returns the latencies, the results by op and
    the failures of ops that raised."""
    latencies, results, failures = [], {}, []
    for i in indices:
        if before_op is not None:
            before_op(i)
        start = time.perf_counter_ns()
        try:
            results[i] = workload.op(i)
        except Exception as exc:  # a raising call is a counted failure
            failures.append(f"op {i}: {type(exc).__name__}: {exc}")
        latencies.append(time.perf_counter_ns() - start)
    return latencies, results, failures


def check_ops(workload, results: dict) -> list[str]:
    """Output checks, run after the ops: outside every timer and outside
    the tracer, so a check that calls the program again is not counted."""
    failures = []
    for i, result in results.items():
        try:
            problem = workload.check(i, result)
        except Exception as exc:  # malformed output
            problem = f"op {i}: output check raised {type(exc).__name__}: {exc}"
        if problem:
            failures.append(problem)
    return failures


def timed_run(workload, seconds: float):
    """Whole rounds until ``seconds`` of wall time have passed."""
    latencies, failures, ops = [], [], 0
    started = time.perf_counter()
    while ops == 0 or time.perf_counter() - started < seconds:
        lat, results, fail = run_ops(workload, range(ops, ops + workload.round_size))
        latencies += lat
        failures += fail + check_ops(workload, results)
        ops += workload.round_size
    return np.array(latencies, dtype=float), failures


def end_to_end(workload, latencies_ns: np.ndarray, setup_samples: list[float]):
    """Latency and throughput from each key's latency.

    Every key (an input, or a ``simulate`` scenario) recurs many times in
    a run, and its latency is the ``KEY_PERCENTILE`` of its ops; the
    percentiles and rates then range over all ops, each at its key's
    latency.
    """
    keys = [workload.key(i) for i in range(latencies_ns.size)]
    by_key: dict = {}
    for key, latency in zip(keys, latencies_ns):
        by_key.setdefault(key, []).append(latency)
    typical = {key: float(np.percentile(values, KEY_PERCENTILE)) for key, values in by_key.items()}
    per_op_ms = np.array([typical[key] for key in keys]) / 1e6
    busy_s = per_op_ms.sum() / 1e3
    reps = sum(workload.reps(i) for i in range(latencies_ns.size))
    metrics = {
        "setup_s": (statistics.median(setup_samples), "s"),
        "ops_per_s": (latencies_ns.size / busy_s, "1/s"),
        "latency_p50_ms": (float(np.percentile(per_op_ms, 50)), "ms"),
        "latency_p90_ms": (float(np.percentile(per_op_ms, 90)), "ms"),
        "reps_per_s": (reps / busy_s, "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    samples = {"ops": int(latencies_ns.size), "keys": len(by_key),
               "ops_per_key_min": min(len(v) for v in by_key.values()),
               "wall_op_s": float(latencies_ns.sum() / 1e9)}
    return metrics, samples


def per_layer(tracer: Tracer, leaked: int, overhead: float):
    self_s, total_s, calls = tracer.totals()
    counters = tracer.counters

    def layer_self(layer: str) -> float:
        return sum(t for name, t in self_s.items() if name.split(".")[0] == layer)

    def per_cell(name: str) -> float:
        cells = counters[f"{name}.cells"]
        return self_s[name] * 1e9 / cells if cells else 0.0

    betting_calls = calls["betting.optimize_lambda"]
    metrics = {
        f"{name}.self_s": (self_s[name], "s")
        for name in ("cli.main", "core.validate_evalues", "sympoly.log_esp",
                     "sympoly.log_esp_batch", "betting.optimize_lambda",
                     "testkit.test_max_average", "testkit.test_optimized_betting",
                     "testkit.test_ville", "simlab.replication_stream", "simlab.mc_type1",
                     "simlab.mc_power", "simlab.enumerate_exact", "ratpoly.esp_fractions",
                     "ratpoly.poly_max_reaches")
    }
    metrics.update({f"{layer}.self_s": (layer_self(layer), "s") for layer in
                    ("cli", "core", "sympoly", "betting", "testkit", "simlab", "ratpoly")})
    metrics.update({
        "sympoly.log_esp.ns_per_cell": (per_cell("sympoly.log_esp"), "ns"),
        "sympoly.log_esp_batch.ns_per_cell": (per_cell("sympoly.log_esp_batch"), "ns"),
        "betting.iterations": (counters["betting.iterations"], "count"),
        "betting.interior_share": (
            counters["betting.interior"] / betting_calls if betting_calls else 0.0, "ratio"),
        "simlab.replication_stream.calls": (calls["simlab.replication_stream"], "count"),
        "ratpoly.poly_max_reaches.total_s": (total_s["ratpoly.poly_max_reaches"], "s"),
        "ratpoly.sturm_chain.calls": (calls["ratpoly.sturm_chain"], "count"),
        "warnings.leaked": (leaked, "count"),
        "trace.overhead": (overhead, "ratio"),
    })
    return metrics


def traced_run(workload, seed: int):
    """The fixed traced op list, round by round untraced and then traced,
    so that both see the same state of the machine."""
    tracer = Tracer()
    plain, traced, failures, leaked = [], [], [], 0

    def mark_op(i: int) -> None:
        tracer.op = i

    size = workload.round_size
    for r in range(workload.trace_rounds):
        indices = range(r * size, (r + 1) * size)
        plain += run_ops(workload, indices)[0]
        with warnings.catch_warnings(record=True) as caught, tracer.installed():
            warnings.simplefilter("always", RuntimeWarning)
            latencies, results, round_failures = run_ops(workload, indices, before_op=mark_op)
        traced += latencies
        failures += round_failures + check_ops(workload, results)
        leaked += sum(issubclass(w.category, RuntimeWarning) for w in caught)
    SPANS_DIR.mkdir(exist_ok=True)
    spans_file = SPANS_DIR / f"spans-{workload.name}-seed{seed}.tsv"
    tracer.write(spans_file)
    samples = {"ops": len(traced), "spans": tracer.spans,
               "spans_file": str(spans_file.relative_to(ROOT))}
    return per_layer(tracer, leaked, sum(traced) / sum(plain)), failures, samples


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    ec = load_program()
    workdir = TMP / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        workload = WORKLOADS[args.workload](ec, args.seed, workdir)
        setup_samples = [] if args.trace else measure_setup(workload.warmup)
        warm_up(ec, workload.warmup)
        if args.trace:
            metrics, failures, samples = traced_run(workload, args.seed)
        else:
            latencies, failures = timed_run(workload, args.seconds)
            metrics, samples = end_to_end(workload, latencies, setup_samples)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = samples["ops"]
    detail = {
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "provenance": provenance(ec, args.seed),
        **workload.describe(attempted),
        "samples": samples,
        "setup_samples_s": setup_samples,
        "failure_ratio": len(failures) / attempted,
        "failures": failures[:MAX_FAILURES_SHOWN],
        "threads": threading.active_count(),
    }
    print(json.dumps({"bench": detail}))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

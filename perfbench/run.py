"""Benchmark of the staircase library.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Run it from the repository root.  Workloads (see workloads.py for why each
was chosen): ``verify_all``, ``decompose_deep`` and ``cli_queries``.

Every repetition runs in a fresh worker process (worker.py), so the library's
caches start cold as they do for a user's command, and a cache's memory
shows in ``peak_rss_mb``.  Load comes from this one process: a closed loop
with one caller and no threads, repeated until ``--seconds`` are measured.

With ``--trace 0`` it reports, as medians over the repetitions:

* ``setup_s``: worker time from importing the library to having the inputs,
  also sampled by a few set-up-only workers;
* ``job_s``: one repetition's operations -- the eight ``run_check`` calls
  (``verify_s``), all trees built, rendered and round-tripped
  (``decompose_s``), or the whole query stream;
* ``ops_per_s``: operations per second (``queries_per_s`` on cli_queries);
* ``op_p50_ms`` / ``op_p99_ms``: per-operation latency percentiles within a
  repetition (nearest rank; 1200 queries leave 12 samples beyond p99);
* ``peak_rss_mb``: the worker's peak resident memory.

Every time is scaled to a fixed reference speed: each worker times a fixed
loop of the benchmark's own code between operations, and each operation's
time is multiplied by REFERENCE_S / (the loop's time around it; the
median loop time for set-up and per-layer times).  On a
host whose cores are shared, speed drifts by up to half over tens of
seconds; the scaling takes that drift out, so runs taken minutes apart (and
two commits) compare.  The unscaled job time and the factor are printed as
``wall.job_s`` and ``wall.speed_ratio``.

An operation is one ``run_check`` call, one diagram's tree, or one query;
``failed / attempted`` is the fail ratio.  With ``--trace 1`` it alternates
untraced and traced repetitions and reports per-layer counts and self times
(see tracer.py); every count must repeat exactly across traced repetitions.

The last line of output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the metrics are the ones declared
in BENCHMARK.json.  The exit status is 0 when every output was correct.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
WORKER = ROOT / "perfbench" / "worker.py"
WORKLOADS = ("verify_all", "decompose_deep", "cli_queries")
DEFAULT_SEED = 0
SETUP_PROBES = 5
MIN_ROUNDS = 3  # untraced; a traced run needs two traced repetitions to compare counts
MIN_TRACED_ROUNDS = 2
MAX_ROUNDS = 200
WORKER_TIMEOUT_S = 150
# Reported times are seconds at the speed where the reference loop
# (workloads.reference_seconds) takes REFERENCE_S: about its time on an
# undisturbed 2-core x86-64 host with Python 3.11.
REFERENCE_S = 0.013
# the label of each operation names a check, a diagram shape or a command
LABEL_METRIC = {
    "verify_all": "oracle.{}_s",
    "decompose_deep": "objects.decompose_{}_s",
    "cli_queries": "cli.{}.p50_ms",
}


class WorkerFailed(Exception):
    pass


def machine() -> dict:
    gil = getattr(sys, "_is_gil_enabled", lambda: True)()
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "gil": "on" if gil else "off",
    }


def call_worker(workload: str, seed: int, mode: str) -> dict:
    command = [sys.executable, str(WORKER), "--workload", workload, "--seed", str(seed), "--mode", mode]
    try:
        done = subprocess.run(
            command, cwd=ROOT, capture_output=True, text=True, timeout=WORKER_TIMEOUT_S
        )
    except subprocess.TimeoutExpired as error:  # run() has killed and reaped it
        raise WorkerFailed(f"{mode} worker timed out after {error.timeout} s") from error
    if done.returncode != 0:
        raise WorkerFailed(f"{mode} worker exited {done.returncode}: {done.stderr.strip()[-2000:]}")
    try:
        return json.loads(done.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError) as error:
        raise WorkerFailed(f"{mode} worker printed no result: {done.stdout[-500:]!r}") from error


def percentile(values, q: float) -> float:
    """Nearest-rank percentile, q in (0, 100]."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100 * len(ordered)) - 1)]


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Repeat cold repetitions until `seconds` are used; collect worker results."""
    start = perf_counter()
    setups = [call_worker(workload, seed, "setup") for _ in range(SETUP_PROBES)]
    runs, traced, rounds = [], [], []
    while len(rounds) < MAX_ROUNDS:
        begin = perf_counter()
        runs.append(call_worker(workload, seed, "run"))
        if trace:
            traced.append(call_worker(workload, seed, "trace"))
        rounds.append(perf_counter() - begin)
        left = seconds - (perf_counter() - start)
        if len(rounds) >= (MIN_TRACED_ROUNDS if trace else MIN_ROUNDS) and left < statistics.median(rounds):
            break
    return {"setups": setups, "runs": runs, "traced": traced}


def scale(result) -> float:
    """Factor from a worker's seconds to seconds at the reference speed."""
    return REFERENCE_S / result["reference_s"]


def scaled_latencies(run) -> list[tuple[str, float]]:
    return [(label, seconds * REFERENCE_S / reference) for label, seconds, reference in run["latencies"]]


def scaled_job_s(run) -> float:
    return sum(seconds for _, seconds in scaled_latencies(run))


def end_to_end(runs, setups) -> dict:
    def per_run(value):
        return statistics.median(value(run) for run in runs)

    def latency(q):
        return per_run(lambda run: percentile([s for _, s in scaled_latencies(run)], q)) * 1000

    return {
        "setup_s": statistics.median(r["setup_s"] * scale(r) for r in setups + runs),
        "job_s": per_run(scaled_job_s),
        "ops_per_s": per_run(lambda run: run["attempted"] / scaled_job_s(run)),
        "op_p50_ms": latency(50),
        "op_p99_ms": latency(99),
        "peak_rss_mb": per_run(lambda run: run["rss_mb"]),
        "wall.job_s": per_run(lambda run: run["job_s"]),
        "wall.speed_ratio": per_run(scale),
    }


def per_label(workload: str, runs) -> dict:
    """Median latency per operation label, untraced."""
    pooled: dict[str, list[float]] = {}
    for run in runs:
        for label, seconds in scaled_latencies(run):
            pooled.setdefault(label, []).append(seconds)
    unit = 1000 if workload == "cli_queries" else 1
    return {
        LABEL_METRIC[workload].format(label): statistics.median(values) * unit
        for label, values in pooled.items()
    }


def per_layer(workload: str, runs, traced) -> tuple[dict, list[str]]:
    """Counts from the first traced run, medians of times, and count mismatches."""
    layers = [run["layers"] for run in traced]
    metrics = {}
    problems = []
    for name, value in layers[0].items():
        if name.endswith("_s"):
            metrics[name] = statistics.median(run["layers"][name] * scale(run) for run in traced)
        else:
            metrics[name] = value
            if any(layer[name] != value for layer in layers[1:]):
                problems.append(f"{name} differs between traced runs: {[layer[name] for layer in layers]}")
    untraced = statistics.median(scaled_job_s(run) for run in runs)
    metrics["trace.overhead_ratio"] = statistics.median(scaled_job_s(run) for run in traced) / untraced
    metrics.update(per_label(workload, runs))
    return metrics, problems


def unit_of(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_s"):
        return "s"
    return "ratio" if name.endswith("ratio") else "count"


def benchmark(workload: str, seed: int, seconds: float, trace: bool, declared: dict) -> dict:
    """Measure one workload; print a readable report; return the result object."""
    facts = machine()
    print(
        f"== {workload}  seed {seed}  python {facts['python']}, nproc {facts['nproc']},"
        f" GIL {facts['gil']}; closed loop, 1 caller, no threads"
    )
    try:
        measured = measure(workload, seed, seconds, trace)
    except WorkerFailed as error:
        print(f"FAIL {error}", file=sys.stderr)
        return {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
    runs, traced = measured["runs"], measured["traced"]
    everything = runs + traced
    attempted = sum(run["attempted"] for run in everything)
    failed = sum(run["failed"] for run in everything)
    problems = [p for run in everything for p in run["problems"] + run["gate"]]
    if trace:
        metrics, mismatches = per_layer(workload, runs, traced)
        problems += mismatches
        wanted = [m["name"] for m in declared["per_layer"]]
    else:
        metrics = end_to_end(runs, measured["setups"])
        wanted = [m["name"] for m in declared["end_to_end"]]
    samples = runs[0]["attempted"]
    print(
        f"repetitions {len(runs)} untraced, {len(traced)} traced; {samples} operations per repetition;"
        f" setup samples {len(measured['setups']) + len(runs)}"
    )
    print(f"inputs {json.dumps(runs[0]['descriptors'], sort_keys=True)}")
    print(f"objects.decompose.cache_size at worker exit: {runs[0]['cache_size']}")
    units = {m["name"]: m["unit"] for m in declared["end_to_end"] + declared["per_layer"]}
    for name, value in metrics.items():
        print(f"  {name:48s} {value:>14.6g} {units.get(name) or unit_of(name)}")
    print(f"  {'fail_ratio':48s} {failed}/{attempted}")
    for problem in dict.fromkeys(problems):
        print(f"FAIL {problem}", file=sys.stderr)
    return {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in wanted},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Benchmark of the staircase library.")
    parser.add_argument("--workload", default="all", choices=("all",) + WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None, help="default: run_seconds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "staircase" / "__init__.py").is_file():
        print(f"error: no staircase sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = declared["run_seconds"] if args.seconds is None else args.seconds
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {name: benchmark(name, args.seed, seconds, bool(args.trace), declared) for name in names}
    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{name}.{metric}": value
                for name, result in results.items()
                for metric, value in result["metrics"].items()
            },
        }
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

"""One cold repetition of a workload, run in a fresh process by run.py.

    python3 perfbench/worker.py --workload NAME --seed N --mode setup|run|trace

Prints one JSON object on stdout.  ``setup`` only imports the library and
generates the inputs; ``run`` then runs every operation once with tracing
off; ``trace`` runs them under the layer tracer and reports its counts and
self times.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RENDER_FUNCTIONS = ("render_tree", "serialize_tree", "tree_to_dot", "parse_tree")


def _cache_info(objects) -> dict:
    info = getattr(objects.decompose, "cache_info", None)
    if info is None:  # no lru_cache on decompose: nothing to report
        return {"hits": 0, "misses": 0, "cache_size": 0}
    info = info()
    return {"hits": info.hits, "misses": info.misses, "cache_size": info.currsize}


def traced_run(workloads, workload: str, inputs: dict) -> dict:
    """Run the job under the tracer; return its result with per-layer metrics."""
    from perfbench import tracer as tracing
    from staircase import objects

    distinct = set()
    candidates = 0
    roots = {}

    def count_candidates(args, result, crossed):
        nonlocal candidates
        candidates += len(result)

    def keep_root(args, result, crossed):
        if crossed:  # a tree handed to a caller outside objects
            roots.setdefault(result.node, result)

    hooks = {
        "objects.destabilizing_sequence": lambda args, result, crossed: distinct.add(args[0]),
        "objects.candidate_walls": count_candidates,
        "objects.decompose": keep_root,
    }
    tracer = tracing.Tracer(tracing.layer_modules(), hooks)
    tracer.install()
    try:
        result = workloads.run(workload, inputs, tracer)
        cache = _cache_info(objects)
    finally:
        lost = tracer.restore()
    result["problems"] += [f"binding {name} was not restored" for name in lost]

    calls = tracer.calls
    metrics = {f"{layer}.calls": count for layer, count in tracer.layer_calls().items()}
    for layer in tracing.LAYERS + (tracing.BENCH,):
        metrics[f"{layer}.self_s"] = tracer.self_s[layer]
    sequences = calls["objects.destabilizing_sequence"]
    nodes = depth = line = shifted = 0
    for tree in roots.values():
        size, height, leaves = workloads.tree_shape(tree)
        nodes += size
        depth = max(depth, height)
        line += sum(kind == "line_bundle" for kind, _ in leaves)
        shifted += sum(kind == "shifted_line_bundle" for kind, _ in leaves)
    metrics.update(
        {
            "walls.potential_wall.calls": calls["walls.potential_wall"],
            "objects.destabilizing_sequence.calls": sequences,
            "objects.destabilizing_sequence.distinct": len(distinct),
            "objects.destabilizing_sequence.useful_ratio": len(distinct) / sequences if sequences else 1.0,
            "objects.candidate_walls.calls": calls["objects.candidate_walls"],
            "objects.candidates_evaluated": candidates,
            "objects.decompose.calls": calls["objects.decompose"],
            "objects.decompose.hits": cache["hits"],
            "objects.decompose.misses": cache["misses"],
            "objects.decompose.cache_size": cache["cache_size"],
            "objects.render_s": sum(tracer.entry_self_s[f"objects.{name}"] for name in RENDER_FUNCTIONS),
            "diagram.slice_right.calls": calls["diagram.slice_right"],
            "diagram.transpose.calls": calls["diagram.transpose"],
            "diagram.parse_ideal.calls": calls["diagram.parse_ideal"],
            "objects.tree_nodes": nodes,
            "objects.tree_depth_max": depth,
            "objects.leaves.line_bundle": line,
            "objects.leaves.shifted_line_bundle": shifted,
            "trace.total_s": tracer.total_s,
            "trace.bindings": tracer.bindings,
            "trace.spans": tracer.spans,
        }
    )
    result["layers"] = metrics
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    args = parser.parse_args(argv)

    begin = perf_counter()
    sys.path[:0] = [str(SRC), str(ROOT)]
    from perfbench import workloads  # imports the staircase package

    inputs = workloads.generate(args.workload, args.seed)
    setup_s = perf_counter() - begin

    import staircase

    if Path(staircase.__file__).resolve().parent != SRC / "staircase":
        print(f"staircase imported from {staircase.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    if args.mode == "setup":
        result = {"reference_s": statistics.median(workloads.reference_seconds() for _ in range(3))}
    elif args.mode == "run":
        from staircase import objects

        result = workloads.run(args.workload, inputs)
        result["cache_size"] = _cache_info(objects)["cache_size"]
    else:
        result = traced_run(workloads, args.workload, inputs)
    if args.mode != "setup":
        record = json.loads((ROOT / "perfbench" / "record.json").read_text())
        result["gate"] = workloads.check_record(
            args.workload, args.seed, inputs, result["sha256"], record
        )
        result["descriptors"] = workloads.descriptors(args.workload, inputs)
    result["setup_s"] = setup_s
    result["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

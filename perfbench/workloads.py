"""The benchmark's workloads: seeded inputs, timed operations, and the gate.

Inputs come only from ``random.Random(seed)``; the library sees nothing but
the generated degree bound, diagrams and argument lists.  The correctness
gate uses the benchmark's own arithmetic (partition counts, slopes, leaf
Chern characters, complements), never the library's, so a wrong library
result cannot vouch for itself.

Workloads, and why each was chosen:

* ``verify_all`` -- ``staircase verify --check all``: the eight checks in
  order at one degree bound.  Thousands of small objects whose trees share
  subtrees; time goes to ``objects`` recomputation, ``walls`` and
  ``ktheory`` Fraction arithmetic.
* ``decompose_deep`` -- ``decompose`` of a few large diagrams, rendered in
  three formats and round-tripped.  Few objects, no sharing, deep trees and
  long candidate lists; time goes to ``walls``/``ktheory`` per candidate and
  to ``diagram`` slicing.  A verify-only memo should not move it.
* ``cli_queries`` -- interactive use: a stream of ``staircase.cli.main``
  calls, each a new diagram touched one level deep.  Time goes to ``cli``,
  ``diagram.parse_ideal``, ``slopes`` and ``resolution``; it shows the cost a
  cache adds on a path with no reuse.
"""

from __future__ import annotations

import hashlib
import io
import json
import random
import statistics
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from time import perf_counter

from staircase import cli, objects, oracle

WORKLOADS = ("verify_all", "decompose_deep", "cli_queries")
DEFAULT_SEED = 0

VERIFY_BOUND = 12  # also the ci bound, as `staircase verify --max-degree` passes it
CHECKS = ("nesting", "purity", "duality", "chern", "rootwall", "ci", "triviality", "gieseker")

STAIRCASE_ROWS = (40, 80, 150)
# (rows, columns, steps) of the random skewed partitions.  Shapes with many
# more columns than rows (or the reverse) keep the number of candidate walls
# within a few percent across seeds, so the seed changes the diagrams but
# hardly the amount of work.
SKEWED_SHAPES = ((50, 200, 25), (70, 170, 30), (60, 140, 30), (170, 60, 30), (200, 100, 30), (100, 40, 30))

QUERY_COUNT = 1200
MAX_SIDE = 30
LATTICE_STEP = 77  # coprime to QUERY_COUNT / 6 queries per command
COMMANDS = {
    "slope": ("slope",),
    "wall": ("wall",),
    "interp": ("interp",),
    "dual": ("dual",),
    "resolution": ("resolution", "--matrix"),
    "decompose": ("decompose", "--format", "json"),
}

# descriptor entries that legitimately change with the seed
SEEDED_DESCRIPTORS = ("total_degree",)

# A fixed loop of the benchmark's own code, timed between operations.  A
# machine whose cores are shared with other processes can change speed by
# half over tens of seconds; run.py scales each operation's time by this
# loop's time around it, so timings taken in a slow phase and in a fast one
# compare.  It mixes Fraction arithmetic with allocating and reading a
# dictionary of small objects, which tracks the library's slowdowns better
# than arithmetic alone.
REFERENCE_DIAGRAMS = tuple(tuple(range(r, 0, -1)) for r in range(2, 36))
REFERENCE_ITEMS = 2000
REFERENCE_EVERY_S = 0.1


# -- the benchmark's own arithmetic ------------------------------------


def partition_counts(n_max: int) -> list[int]:
    """p(0..n_max) by the coin-change recurrence."""
    counts = [1] + [0] * n_max
    for part in range(1, n_max + 1):
        for n in range(part, n_max + 1):
            counts[n] += counts[n - part]
    return counts


def conjugate(rows: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(sum(1 for h in rows if h >= c) for c in range(1, rows[0] + 1)) if rows else ()


def scheme_slope(rows: tuple[int, ...]) -> Fraction:
    """mu(Z): the largest mu_k = (n - w_k)/k + (k - 3)/2 over rows and columns."""
    n = sum(rows)
    best = None
    for family in (rows, conjugate(rows)):
        above = n
        for k, h in enumerate(family, start=1):
            above -= h
            mu = Fraction(n - above, k) + Fraction(k - 3, 2)
            best = mu if best is None else max(best, mu)
    return best


def root_wall(rows: tuple[int, ...]) -> tuple[Fraction, Fraction]:
    """(center, radius^2) of the largest wall of I_Z: -mu(Z) - 3/2, center^2 - 2n."""
    center = -scheme_slope(rows) - Fraction(3, 2)
    return center, center * center - 2 * sum(rows)


def leaf_chern_sum(leaves) -> tuple:
    """Sum of ch over (kind, twist) leaves: O(m) -> (1, m, m^2/2), O(m)[1] -> minus that."""
    total = [0, 0, Fraction(0)]
    for kind, m in leaves:
        sign = {"line_bundle": 1, "shifted_line_bundle": -1}[kind]
        total[0] += sign
        total[1] += sign * m
        total[2] += sign * Fraction(m * m, 2)
    return tuple(total)


def check_tree(rows, leaves, center, radius_sq) -> list[str]:
    """Problems with a tree of I_Z given its leaves and root wall."""
    problems = []
    n = sum(rows)
    total = leaf_chern_sum(leaves)
    if total != (1, 0, -n):
        problems.append(f"leaf Chern characters sum to {total}, not (1, 0, {-n})")
    want = root_wall(rows)
    if (center, radius_sq) != want:
        problems.append(f"root wall ({center}, {radius_sq}) != closed form {want}")
    return problems


def complement(rows, k: int, i: int) -> tuple[int, ...]:
    """The half-turn complement of the diagram in a k x i box."""
    padded = tuple(rows) + (0,) * (k - len(rows))
    return tuple(i - h for h in reversed(padded) if h < i)


def generator_count(rows) -> int:
    """Minimal generators of the monomial ideal: one per distinct row length, plus y^r."""
    return len(set(rows)) + 1


_LEAF_KINDS = {"LineBundle": "line_bundle", "ShiftedLineBundle": "shifted_line_bundle"}


def tree_shape(tree) -> tuple[int, int, list]:
    """(nodes, depth, leaves as (kind, twist)) of a library tree, walked iteratively."""
    nodes = depth = 0
    leaves = []
    stack = [(tree, 1)]
    while stack:
        node, level = stack.pop()
        nodes += 1
        depth = max(depth, level)
        if node.sequence is None:
            leaves.append((_LEAF_KINDS[type(node.node).__name__], node.node.twist))
        else:
            stack.append((node.quotient, level + 1))
            stack.append((node.sub, level + 1))
    return nodes, depth, leaves


def dict_tree_leaves(data: dict) -> list:
    """Leaves as (kind, twist) of a tree in its serialized JSON form."""
    leaves = []
    stack = [data]
    while stack:
        node = stack.pop()
        if "cut" in node:
            stack.extend((node["quotient"], node["sub"]))
        else:
            leaves.append((node["object"]["type"], node["object"]["twist"]))
    return leaves


def reference_seconds() -> float:
    """Time of the fixed reference loop, a gauge of the machine's current speed."""
    begin = perf_counter()
    for rows in REFERENCE_DIAGRAMS:
        root_wall(rows)
    table = {(i % 97, i % 89, i): Fraction(i, 7) + Fraction(3, i + 1) for i in range(REFERENCE_ITEMS)}
    sum(value.numerator for value in table.values())
    return perf_counter() - begin


# -- seeded inputs -----------------------------------------------------


def random_partition(rng: random.Random, rows: int, cols: int) -> tuple[int, ...]:
    """A partition with exactly `rows` rows and `cols` columns."""
    return tuple(sorted([cols] + [rng.randint(1, cols) for _ in range(rows - 1)], reverse=True))


def skewed_partition(rng: random.Random, rows: int, cols: int, steps: int) -> tuple[int, ...]:
    """A staircase of steps + 1 treads with jittered widths and heights.

    It has exactly `rows` rows and `cols` columns.
    """
    unit = cols / (steps + 1)
    widths = [cols] + [
        min(cols, max(1, round(cols - k * unit + rng.uniform(-0.3, 0.3) * unit)))
        for k in range(1, steps + 1)
    ]
    weights = [1 + rng.uniform(-0.3, 0.3) for _ in range(steps + 1)]
    total = sum(weights)
    diagram: list[int] = []
    reached = 0
    for k, width in enumerate(widths):
        cut = round(rows * sum(weights[: k + 1]) / total)
        diagram += [width] * (cut - reached)
        reached = max(reached, cut)
    return tuple(sorted(diagram, reverse=True))


def monomial_text(rows) -> str:
    """The ideal as a list of minimal monomial generators, e.g. x^3,xy,y^2."""

    def monomial(a, b):
        x = "" if a == 0 else "x" if a == 1 else f"x^{a}"
        y = "" if b == 0 else "y" if b == 1 else f"y^{b}"
        return x + y

    gens = [(rows[0], 0)]
    for j in range(1, len(rows)):
        if rows[j] < rows[j - 1]:
            gens.append((rows[j], j))
    gens.append((0, len(rows)))
    return ",".join(monomial(a, b) for a, b in gens)


def generate(workload: str, seed: int) -> dict:
    """The inputs of one workload; the same seed gives the same inputs."""
    rng = random.Random(seed)
    if workload == "verify_all":
        return {"bound": VERIFY_BOUND, "checks": CHECKS}
    if workload == "decompose_deep":
        diagrams = [tuple(range(r, 0, -1)) for r in STAIRCASE_ROWS]
        diagrams += [skewed_partition(rng, *shape) for shape in SKEWED_SHAPES]
        return {"diagrams": diagrams}
    if workload == "cli_queries":
        per_command = QUERY_COUNT // len(COMMANDS)
        # Every command gets the same sizes, a lattice spread evenly over
        # the square of side MAX_SIDE; the seed orders them and draws the
        # shapes, so the tail of the latency distribution stays put.
        lattice = [
            (1 + j * MAX_SIDE // per_command, 1 + (j * LATTICE_STEP % per_command) * MAX_SIDE // per_command)
            for j in range(per_command)
        ]
        sizes = {name: rng.sample(lattice, per_command) for name in COMMANDS}
        queries = []
        for turn in range(per_command):
            for name, command in COMMANDS.items():
                diagram = random_partition(rng, *sizes[name][turn])
                if turn % 2:
                    text = "rows:" + ",".join(map(str, diagram))
                else:
                    text = monomial_text(diagram)
                queries.append((name, diagram, command + (text,)))
        return {"queries": queries}
    raise ValueError(f"unknown workload {workload!r}")


def descriptors(workload: str, inputs: dict) -> dict:
    """Size of the inputs, so that a shrunken workload shows."""
    if workload == "verify_all":
        bound = inputs["bound"]
        counts = partition_counts(bound)
        return {
            "degree_bound": bound,
            "checks": len(inputs["checks"]),
            "diagrams": sum(counts[1:]),
            "rectangles": bound * (bound + 1) // 2,
            "max_rows": bound,
            "max_cols": bound,
            "total_degree": sum(n * counts[n] for n in range(1, bound + 1)),
        }
    if workload == "decompose_deep":
        diagrams = inputs["diagrams"]
    else:
        diagrams = [diagram for _, diagram, _ in inputs["queries"]]
    described = {
        "diagrams": len(diagrams),
        "max_rows": max(len(d) for d in diagrams),
        "max_cols": max(d[0] for d in diagrams),
        "total_degree": sum(sum(d) for d in diagrams),
    }
    if workload == "cli_queries":
        queries = inputs["queries"]
        described["queries"] = len(queries)
        described["command_mix"] = {name: sum(q[0] == name for q in queries) for name in COMMANDS}
        described["rows_text"] = sum(q[2][-1].startswith("rows:") for q in queries)
    return described


def check_record(workload: str, seed: int, inputs: dict, digest: str, record: dict) -> list[str]:
    """Compare descriptors (and, on the default seed, the output digest) with the record."""
    problems = []
    entry = record["workloads"][workload]
    found = descriptors(workload, inputs)
    for key, want in entry["descriptors"].items():
        if seed != record["default_seed"] and key in SEEDED_DESCRIPTORS:
            continue
        if found.get(key) != want:
            problems.append(f"descriptor {key} is {found.get(key)!r}, recorded {want!r}")
    if seed == record["default_seed"] and digest != entry["sha256"]:
        problems.append(f"output sha256 {digest} differs from the recorded {entry['sha256']}")
    return problems


# -- operations and their checks ---------------------------------------


def _verify_op(name, bound):
    def call():
        report = oracle.run_check(name, bound)
        return report, oracle.render_report(report)

    def check(output):
        report, text = output
        want = bound * (bound + 1) // 2 if name == "ci" else sum(partition_counts(bound)[1:])
        problems = []
        if not report.passed or report.failures:
            problems.append(f"{name} reported {len(report.failures)} failures")
        if (report.check, report.degree_bound, report.instances) != (name, bound, want):
            problems.append(
                f"{name}: report ({report.check}, {report.degree_bound}, {report.instances})"
                f" != ({name}, {bound}, {want})"
            )
        return text + "\n\n", problems

    return name, call, check


def _decompose_op(diagram):
    def call():
        tree = objects.decompose(objects.rank_one(diagram))
        text = objects.render_tree(tree)
        serialized = objects.serialize_tree(tree)
        dot = objects.tree_to_dot(tree)
        return tree, objects.parse_tree(serialized) == tree, text + serialized + "\n" + dot

    def check(output):
        tree, round_trips, text = output
        _, _, leaves = tree_shape(tree)
        wall = tree.sequence.wall
        problems = check_tree(diagram, leaves, wall.center, wall.radius_sq)
        if not round_trips:
            problems.append("parse_tree(serialize_tree(t)) != t")
        return text, problems

    return f"{len(diagram)}x{diagram[0]}", call, check


def _line_value(lines, prefix: str) -> Fraction:
    for line in lines:
        if line.startswith(prefix):
            return Fraction(line[len(prefix):].split(" ", 1)[0].rstrip(","))
    raise ValueError(f"no line starting with {prefix!r}")


def _check_query(name, diagram, stdout) -> list[str]:
    lines = stdout.splitlines()
    center, radius_sq = root_wall(diagram)
    if name == "slope":
        found = {"mu(Z)": _line_value(lines, "mu(Z) = ")}
        want = {"mu(Z)": scheme_slope(diagram)}
    elif name == "wall":
        found = {"center": _line_value(lines, "center = "), "radius^2": _line_value(lines, "radius^2 = ")}
        want = {"center": center, "radius^2": radius_sq}
    elif name == "interp":
        delta = next(line for line in lines if line.startswith("mu = ")).split(", Delta = ")[1]
        found = {"mu": _line_value(lines, "mu = "), "Delta": Fraction(delta)}
        want = {"mu": scheme_slope(diagram), "Delta": radius_sq / 2 - Fraction(1, 8)}
    elif name == "dual":
        k, i = len(diagram), diagram[0]
        rotated = complement(diagram, k, i)
        body = f"I({','.join(map(str, rotated))})" if rotated else "O"
        found, want = {"dual": lines[-1]}, {"dual": f"dual = {body}({k + i})[-1]"}
    elif name == "resolution":
        at = lines.index("betti:")
        b0 = sum(map(int, lines[at + 2].split()[1:]))
        b1 = sum(map(int, lines[at + 3].split()[1:]))
        gens = generator_count(diagram)
        found, want = {"b0": b0, "b1": b1}, {"b0": gens, "b1": gens - 1}
    else:
        data = json.loads(stdout)
        return check_tree(
            diagram,
            dict_tree_leaves(data),
            Fraction(data["wall"]["center"]),
            Fraction(data["wall"]["radius_sq"]),
        )
    return [f"{name}: {key} printed {found[key]}, expected {want[key]}" for key in want if found[key] != want[key]]


def _cli_op(name, diagram, argv):
    def call():
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(list(argv))
        return code, out.getvalue(), err.getvalue()

    def check(output):
        code, stdout, stderr = output
        if code != 0:
            return stdout, [f"{' '.join(argv)} exited {code}: {stderr.strip()}"]
        try:
            return stdout, _check_query(name, diagram, stdout)
        except (ValueError, KeyError, IndexError, StopIteration) as error:
            return stdout, [f"{' '.join(argv)}: unreadable output ({error!r})"]

    return name, call, check


def operations(workload: str, inputs: dict) -> list:
    """(label, call, check) per operation; ``check(call())`` gives (text, problems)."""
    if workload == "verify_all":
        return [_verify_op(name, inputs["bound"]) for name in inputs["checks"]]
    if workload == "decompose_deep":
        return [_decompose_op(diagram) for diagram in inputs["diagrams"]]
    return [_cli_op(*query) for query in inputs["queries"]]


def run(workload: str, inputs: dict, tracer=None) -> dict:
    """Run every operation once, timing each; check outputs after the clock stops.

    The reference loop runs before the first operation, after the last, and
    between operations every REFERENCE_EVERY_S; each latency carries the mean
    of the two reference times that bracket it.  With a tracer, each
    operation runs inside a root span carrying its index.  An operation
    fails if it raises or its output fails the gate.
    """
    ops = operations(workload, inputs)
    digest = hashlib.sha256()
    latencies = []
    problems = []
    failed = 0
    references = [reference_seconds()]
    gauged = perf_counter()
    bracket = []  # index of the last reference taken before each operation
    for index, (label, call, check) in enumerate(ops):
        if perf_counter() - gauged >= REFERENCE_EVERY_S:
            references.append(reference_seconds())
            gauged = perf_counter()
        bracket.append(len(references) - 1)
        raised = None
        begin = perf_counter()
        try:
            if tracer is None:
                output = call()
            else:
                with tracer.op_span(index):
                    output = call()
        except Exception as error:  # the benchmark keeps going and counts the failure
            raised = error
        latencies.append([label, perf_counter() - begin])
        if raised is None:
            text, op_problems = check(output)
            digest.update(text.encode())
        else:
            op_problems = [f"raised {type(raised).__name__}: {raised}"]
        if op_problems:
            failed += 1
            problems.extend(f"{label}: {problem}" for problem in op_problems)
    references.append(reference_seconds())
    for latency, before in zip(latencies, bracket):
        latency.append((references[before] + references[before + 1]) / 2)
    return {
        "reference_s": statistics.median(references),
        "latencies": latencies,  # [label, seconds, reference seconds around it]
        "job_s": sum(seconds for _, seconds, _ in latencies),
        "attempted": len(ops),
        "failed": failed,
        "problems": problems,
        "sha256": digest.hexdigest(),
    }

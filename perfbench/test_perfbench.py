"""Tests of the benchmark itself: tracer, gate and seeded inputs.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from perfbench import tracer as tracing  # noqa: E402
from perfbench import workloads  # noqa: E402
from staircase import cli, diagram, objects, slopes  # noqa: E402

SMALL_DIAGRAMS = [(6, 5, 4, 3, 2, 1), (9, 9, 7, 7, 6, 4, 3, 3), (12, 3, 3, 1)]


def bindings_snapshot(modules):
    return {(layer, name): value for layer, module in modules.items() for name, value in vars(module).items()}


def test_tracer_restores_every_binding():
    modules = tracing.layer_modules()
    before = bindings_snapshot(modules)
    tracer = tracing.Tracer(modules)
    tracer.install()
    try:
        assert objects.potential_wall is not before[("objects", "potential_wall")]
        assert cli.decompose is objects.decompose  # one wrapper in every importing module
        assert objects.decompose.cache_info().currsize >= 0
        objects.decompose.cache_clear()
        with tracer.op_span(0):
            objects.decompose(objects.rank_one((3, 1)))
            with pytest.raises(ValueError):
                diagram.as_diagram((1, 2))
    finally:
        lost = tracer.restore()
    assert lost == []
    assert tracer.bindings > len(tracing.public_functions(modules))
    after = bindings_snapshot(modules)
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)
    assert tracer._stack == []


def traced(workload, inputs):
    objects.decompose.cache_clear()
    tracer = tracing.Tracer(tracing.layer_modules())
    tracer.install()
    try:
        result = workloads.run(workload, inputs, tracer)
    finally:
        assert tracer.restore() == []
    return tracer, result


@pytest.mark.parametrize(
    "workload, inputs",
    [
        ("decompose_deep", {"diagrams": SMALL_DIAGRAMS}),
        ("verify_all", {"bound": 5, "checks": workloads.CHECKS}),
        ("cli_queries", {"queries": workloads.generate("cli_queries", 3)["queries"][:24]}),
    ],
)
def test_layer_self_times_and_remainder_add_up_to_traced_total(workload, inputs):
    tracer, result = traced(workload, inputs)
    assert result["failed"] == 0, result["problems"]
    assert tracer.self_s[tracing.BENCH] > 0
    assert sum(tracer.self_s.values()) == pytest.approx(tracer.total_s, rel=1e-9, abs=1e-9)
    assert tracer.total_s <= result["job_s"]
    assert all(seconds >= 0 for seconds in tracer.self_s.values())
    assert tracer.layer_calls()["walls"] > 0
    assert set(tracer.self_s) <= set(tracing.LAYERS) | {tracing.BENCH}


def test_counts_repeat_exactly():
    first, _ = traced("decompose_deep", {"diagrams": SMALL_DIAGRAMS})
    second, _ = traced("decompose_deep", {"diagrams": SMALL_DIAGRAMS})
    assert first.calls == second.calls
    assert first.spans == second.spans


def test_gate_flags_a_wrong_digest_and_a_shrunken_workload():
    inputs = workloads.generate("cli_queries", workloads.DEFAULT_SEED)
    found = workloads.descriptors("cli_queries", inputs)
    record = {
        "default_seed": workloads.DEFAULT_SEED,
        "workloads": {"cli_queries": {"descriptors": found, "sha256": "a" * 64}},
    }
    assert workloads.check_record("cli_queries", workloads.DEFAULT_SEED, inputs, "a" * 64, record) == []
    problems = workloads.check_record("cli_queries", workloads.DEFAULT_SEED, inputs, "b" * 64, record)
    assert any("sha256" in problem for problem in problems)
    # another seed changes the total degree but not the size of the workload
    other = workloads.generate("cli_queries", 7)
    assert workloads.check_record("cli_queries", 7, other, "b" * 64, record) == []
    shrunk = {"queries": inputs["queries"][:-6]}
    assert any("queries" in p for p in workloads.check_record("cli_queries", 7, shrunk, "b" * 64, record))


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_record_describes_the_default_inputs(workload):
    record = json.loads((ROOT / "perfbench" / "record.json").read_text())
    inputs = workloads.generate(workload, record["default_seed"])
    assert workloads.descriptors(workload, inputs) == record["workloads"][workload]["descriptors"]


def test_an_operation_that_raises_counts_as_failed(monkeypatch):
    def broken(obj):
        raise ValueError("broken")

    monkeypatch.setattr(objects, "decompose", broken)
    result = workloads.run("decompose_deep", {"diagrams": SMALL_DIAGRAMS[:2]})
    assert (result["attempted"], result["failed"]) == (2, 2)
    assert "raised ValueError" in result["problems"][0]


@pytest.mark.parametrize("rows", SMALL_DIAGRAMS)
def test_gate_flags_a_perturbed_leaf_list(rows):
    tree = objects.decompose(objects.rank_one(rows))
    _, _, leaves = workloads.tree_shape(tree)
    center, radius_sq = tree.sequence.wall.center, tree.sequence.wall.radius_sq
    assert workloads.check_tree(rows, leaves, center, radius_sq) == []
    kind, twist = leaves[0]
    assert workloads.check_tree(rows, [(kind, twist + 1)] + leaves[1:], center, radius_sq)
    assert workloads.check_tree(rows, leaves[1:], center, radius_sq)
    assert workloads.check_tree(rows, leaves, center - 1, radius_sq)
    assert workloads.check_tree(rows, leaves, center, radius_sq + Fraction(1, 2))


def bump(lines, prefix):
    """Add 1 to the number that follows `prefix` on its line."""
    out = []
    for line in lines:
        if line.startswith(prefix):
            token = line[len(prefix):].split(" ")[0]
            core = token.rstrip(",")
            line = prefix + str(Fraction(core) + 1) + line[len(prefix) + len(core):]
        out.append(line)
    return out


def first_leaf(data):
    while "cut" in data:
        data = data["sub"]
    return data


def tamper(label, stdout):
    lines = stdout.splitlines()
    if label in ("slope", "wall", "interp"):
        prefix = {"slope": "mu(Z) = ", "wall": "center = ", "interp": "mu = "}[label]
        return [bump(lines, prefix)]
    if label == "dual":
        return [lines[:-1] + [lines[-1].replace("[-1]", "[1]")]]
    if label == "resolution":
        return [[line + "  1" if line.strip().startswith("b0") else line for line in lines]]
    wall, leaf = json.loads(stdout), json.loads(stdout)
    wall["wall"]["center"] = str(Fraction(wall["wall"]["center"]) - 1)
    first_leaf(leaf["sub"])["object"]["twist"] += 1
    return [[json.dumps(wall)], [json.dumps(leaf)]]


def test_gate_flags_a_wrong_cli_output():
    inputs = workloads.generate("cli_queries", 5)
    for label, call, check in workloads.operations("cli_queries", inputs)[:6]:
        code, stdout, stderr = call()
        assert check((code, stdout, stderr))[1] == [], label
        assert check((3, stdout, "error: boom"))[1], label
        for lines in tamper(label, stdout):
            assert check((0, "\n".join(lines) + "\n", ""))[1], label


@pytest.mark.parametrize("workload", ["decompose_deep", "cli_queries"])
def test_generators_are_seeded(workload):
    assert workloads.generate(workload, 11) == workloads.generate(workload, 11)
    assert workloads.generate(workload, 11) != workloads.generate(workload, 12)
    first = workloads.descriptors(workload, workloads.generate(workload, 11))
    second = workloads.descriptors(workload, workloads.generate(workload, 12))
    assert {k: v for k, v in first.items() if k not in workloads.SEEDED_DESCRIPTORS} == {
        k: v for k, v in second.items() if k not in workloads.SEEDED_DESCRIPTORS
    }


def test_runner_and_workloads_agree_on_names_and_default_seed():
    from perfbench import run

    assert run.WORKLOADS == workloads.WORKLOADS
    assert run.DEFAULT_SEED == workloads.DEFAULT_SEED


def test_verify_inputs_do_not_depend_on_the_seed():
    assert workloads.generate("verify_all", 1) == workloads.generate("verify_all", 2)


def test_own_arithmetic_agrees_with_the_library_on_random_diagrams():
    rng = random.Random(0)
    assert sum(workloads.partition_counts(12)[1:]) == 271
    for _ in range(60):
        rows = workloads.random_partition(rng, rng.randint(1, 12), rng.randint(1, 12))
        assert workloads.scheme_slope(rows) == slopes.scheme_slope(rows).value
        assert workloads.conjugate(rows) == diagram.transpose(rows)
        assert diagram.parse_ideal(workloads.monomial_text(rows)) == rows
        assert workloads.generator_count(rows) == len(diagram.to_generators(rows))
        k, i = len(rows) + 1, rows[0] + 2
        assert workloads.complement(rows, k, i) == diagram.complement_rotate(rows, k, i)
    for shape in workloads.SKEWED_SHAPES:
        rows = workloads.skewed_partition(rng, *shape)
        assert diagram.as_diagram(rows) == rows
        assert (len(rows), rows[0]) == shape[:2]


def test_benchmark_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "verify_all", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout

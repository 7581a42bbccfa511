from __future__ import annotations

from dataclasses import replace
from functools import cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from staircase import objects, oracle
from staircase.diagram import enumerate_diagrams_upto
from staircase.objects import decompose, destabilizing_sequence, internal_nodes
from staircase.oracle import (
    CHECK_NAMES,
    FAILURE_CAP,
    Failure,
    VerificationReport,
    merge_reports,
    render_report,
    render_reports,
    run_check,
)
from staircase.walls import SemicircleWall

BOUND = 12


def comparable(report):
    """Everything except the wall-clock duration."""
    return (report.check, report.degree_bound, report.instances, report.failures)


def test_all_checks_pass():
    for report in [run_check(name, BOUND) for name in CHECK_NAMES]:
        assert report.passed, render_report(report)
        assert report.instances > 0
        assert report.duration >= 0


def test_ci_rectangle_count():
    report = run_check("ci", 25)
    assert report.passed
    assert report.instances == 325  # all 1 <= a <= b <= 25


def test_zero_bound_is_vacuous():
    report = run_check("nesting", 0)
    assert report.passed
    assert report.instances == 0


def test_negative_bound_is_rejected():
    with pytest.raises(ValueError, match="nonnegative"):
        run_check("nesting", -3)


def test_run_check_picks_the_default_bounds():
    report = run_check("gieseker")
    assert (report.degree_bound, report.instances) == (oracle.DEFAULT_BOUND, 1596)
    assert run_check("ci").degree_bound == oracle.DEFAULT_CI_BOUND


def test_unknown_check_rejected():
    with pytest.raises(ValueError):
        run_check("nonsense")


def test_shards_merge_to_serial_report():
    serial = run_check("nesting", 10)
    left = run_check("nesting", 10, start=0, stop=7)
    right = run_check("nesting", 10, start=7)
    assert comparable(merge_reports(left, right)) == comparable(serial)
    assert left.instances + right.instances == serial.instances


SHARD_BOUND = 8


@cache
def serial_report(name):
    return run_check(name, SHARD_BOUND)


@pytest.mark.parametrize("name", CHECK_NAMES)
@settings(max_examples=8, deadline=None)
@given(data=st.data())
def test_any_split_merges_to_the_serial_report(name, data):
    serial = serial_report(name)
    k = data.draw(st.integers(0, serial.instances), label="split")
    left = run_check(name, SHARD_BOUND, 0, k)
    right = run_check(name, SHARD_BOUND, k)
    assert (left.instances, right.instances) == (k, serial.instances - k)
    assert comparable(merge_reports(left, right)) == comparable(serial)


def test_merge_rejects_mismatched_reports():
    a = run_check("nesting", 6)
    b = run_check("purity", 6)
    with pytest.raises(ValueError):
        merge_reports(a, b)


def test_merge_caps_failures():
    failures = tuple(Failure((1,), f"problem {i}") for i in range(80))
    a = VerificationReport("nesting", 6, 10, failures, 0.1)
    b = VerificationReport("nesting", 6, 10, failures, 0.2)
    merged = merge_reports(a, b)
    assert len(merged.failures) == FAILURE_CAP
    assert merged.instances == 20
    assert merged.duration == pytest.approx(0.3)
    assert not merged.passed


def test_report_text_is_reproducible():
    first = render_report(run_check("rootwall", BOUND))
    second = render_report(run_check("rootwall", BOUND))
    assert first == second
    assert "status: pass" in first
    assert "duration" not in first


def test_failure_rendering():
    report = VerificationReport(
        "nesting", 6, 3, (Failure((2, 1), "mu_opt 3 > 2"),), 0.0
    )
    text = render_report(report)
    assert "witness rows:2,1 -- mu_opt 3 > 2" in text
    assert "status: FAIL" in text
    assert "failures: 1" in text


def test_render_reports_joins_all_checks():
    reports = [run_check(name, 4) for name in CHECK_NAMES[:3]]
    text = render_reports(reports)
    for name in CHECK_NAMES[:3]:
        assert f"check: {name}" in text


def test_tree_sequences_match_fresh_recomputation():
    """The checks read each step from its tree node; the node must hold the fresh step."""
    for d in enumerate_diagrams_upto(10):
        if not d:
            continue
        for root in oracle._tree_roots(d):
            for node in internal_nodes(decompose(root)):
                assert node.sequence == destabilizing_sequence(node.node)
                assert (node.sub.node, node.quotient.node) == (
                    node.sequence.sub,
                    node.sequence.quotient,
                )


def test_nesting_sees_a_tampered_child_wall(monkeypatch):
    """A child wall that does not nest in the tree is reported, not recomputed away."""

    def tampered(root):
        tree = decompose(root)
        parent = tree.sequence.wall
        for role in ("sub", "quotient"):
            child = getattr(tree, role)
            if not child.is_leaf:
                outside = SemicircleWall(parent.center, parent.radius_sq + 1)
                child = replace(child, sequence=replace(child.sequence, wall=outside))
                return replace(tree, **{role: child})
        return tree

    monkeypatch.setattr(oracle, "decompose", tampered)
    report = run_check("nesting", 4)
    assert not report.passed
    assert any("not nested in" in failure.detail for failure in report.failures)


def test_nesting_computes_no_step_beyond_the_tree_memo(monkeypatch):
    calls = 0

    def counting(obj):
        nonlocal calls
        calls += 1
        return destabilizing_sequence(obj)

    monkeypatch.setattr(objects, "destabilizing_sequence", counting)
    monkeypatch.setattr(oracle, "destabilizing_sequence", counting)
    decompose.cache_clear()
    report = run_check("nesting", 10)
    assert report.passed
    assert 0 < calls <= decompose.cache_info().misses

from __future__ import annotations

from dataclasses import replace
from functools import cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from staircase import cli, objects, oracle, slopes
from staircase.diagram import enumerate_diagrams_upto, slice_below, transpose
from staircase.objects import (
    DestabilizingSequence,
    RankMinusOne,
    RankZero,
    candidate_walls,
    chern_of,
    decompose,
    destabilizing_sequence,
    internal_nodes,
    is_trivial,
    parse_tree,
    rank_minus_one,
    rank_one,
    rank_zero,
    serialize_tree,
    text_name,
)
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
from staircase.walls import SemicircleWall, potential_wall

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
    monkeypatch.setattr(oracle, "destabilizing_sequence", counting, raising=False)
    decompose.cache_clear()
    report = run_check("nesting", 10)
    assert report.passed
    assert 0 < calls <= decompose.cache_info().misses


@pytest.fixture
def tamper(monkeypatch):
    """Replace the destabilizing step of one object in every tree built after.

    The ``decompose`` memo is cleared when the step is replaced and again at
    teardown, so no tampered tree outlives the test.
    """

    def apply(target, change):
        real = objects.destabilizing_sequence

        def tampered(obj):
            return change(obj, real(obj)) if obj == target else real(obj)

        monkeypatch.setattr(objects, "destabilizing_sequence", tampered)
        decompose.cache_clear()

    yield apply
    decompose.cache_clear()


def shifted_wall(obj, seq):
    return replace(seq, wall=SemicircleWall(seq.wall.center - 1, seq.wall.radius_sq))


# an object whose node the trees of many diagrams share
SHARED = RankZero((5,), 0)
SHARED_BOUND = 9


def unmemoized_failures(name, n_max):
    """The failures of a walk that checks every visit afresh, uncapped."""
    _, node_check, item_check = oracle._CHECKS[name]
    failures = []
    for d in oracle._diagrams(n_max):
        for root in oracle._tree_roots(d):
            for node in internal_nodes(oracle.decompose(root)):
                failures += [Failure(d, detail) for detail in node_check(node)]
        if item_check:
            failures += [Failure(d, detail) for detail in item_check(d)]
    return failures


def test_node_predicates_run_once_per_distinct_node(monkeypatch):
    calls = 0
    euler_char = oracle.euler_char

    def counting(ch):
        nonlocal calls
        calls += 1
        return euler_char(ch)

    monkeypatch.setattr(oracle, "euler_char", counting)
    distinct = {
        id(node): node
        for d in oracle._diagrams(BOUND)
        for root in oracle._tree_roots(d)
        for node in internal_nodes(decompose(root))
    }
    assert run_check("chern", BOUND).passed
    assert len(distinct) == 611
    assert calls == 3 * len(distinct)  # three pairings per node, in chern only


@pytest.mark.parametrize("name", ["nesting", "chern"])
def test_a_tampered_shared_node_is_replayed_at_every_visit(tamper, name):
    tamper(SHARED, shifted_wall)
    expected = unmemoized_failures(name, SHARED_BOUND)
    report = run_check(name, SHARED_BOUND)
    assert report.failures == tuple(expected[:FAILURE_CAP])
    assert len({failure.diagram for failure in report.failures}) > 1
    if name == "chern":
        assert len(expected) > FAILURE_CAP


def test_each_witness_of_a_tampered_shared_node_is_reported_once(tamper):
    """The rank-0 quotient is walked inside I_Z's tree only, not again as a root."""
    tamper(SHARED, shifted_wall)
    report = run_check("chern", 8)
    pairs = [(failure.diagram, failure.detail) for failure in report.failures]
    assert len(pairs) == 98
    assert len(set(pairs)) == len(pairs)


def test_no_node_details_leak_across_runs(tamper):
    assert run_check("chern", SHARED_BOUND).passed
    tamper(SHARED, shifted_wall)
    assert not run_check("chern", SHARED_BOUND).passed


def test_a_re_parsed_tree_is_checked_on_its_own(monkeypatch):
    """A tree over the same objects as the memo's nodes is not the same tree."""
    real = oracle.decompose
    # the box root of (4, 3), and a node in the box trees of (4, 3, 1) and (4, 3, 1, 1)
    box = RankMinusOne((4, 3), 0)
    assert box == rank_minus_one((4, 3))

    def reparsed(obj):
        tree = real(obj)
        if obj == box:
            tampered = replace(tree, sequence=shifted_wall(obj, tree.sequence))
            tree = parse_tree(serialize_tree(tampered))
        return tree

    monkeypatch.setattr(oracle, "decompose", reparsed)
    report = run_check("chern", SHARED_BOUND)
    assert report.failures
    assert report.failures == tuple(unmemoized_failures("chern", SHARED_BOUND)[:FAILURE_CAP])


def test_chern_reports_a_cut_that_is_not_the_largest(tamper):
    """A real candidate step along a smaller wall passes every other clause."""
    obj = rank_one((3, 1))
    best = destabilizing_sequence(obj)
    cut = ("vertical", 3)  # a pure quotient, on a smaller wall
    wall = dict(candidate_walls(obj))[cut]
    assert wall != best.wall

    def smaller_cut(obj, seq):
        sub, quotient = objects._sequence_parts(obj, cut)
        assert potential_wall(chern_of(sub), chern_of(obj)) == wall
        return DestabilizingSequence(sub, quotient, wall, cut)

    tamper(obj, smaller_cut)
    report = run_check("chern", 4)
    assert (3, 1) in {failure.diagram for failure in report.failures}
    assert {failure.detail for failure in report.failures} == {
        f"cut {cut} is not the first largest candidate {best.cut}"
        f" (wall {best.wall}) at {text_name(obj)}"
    }


def test_tree_roots_are_read_from_the_rank_one_tree(monkeypatch):
    """The scheme-slope rank-0 object is I_Z's quotient subtree, not a root of its own."""

    def no_slope(diagram):
        raise AssertionError("_tree_roots recomputed the scheme slope")

    monkeypatch.setattr(oracle, "scheme_slope", no_slope)
    for d in oracle._diagrams(14):
        best = slopes.scheme_slope(d)
        base = transpose(d) if best.orientation == "vertical" else d
        quotient = rank_zero(slice_below(base, best.index))
        assert quotient == decompose(rank_one(d)).quotient.node
        box = rank_minus_one(d)
        expected = [rank_one(d)] if is_trivial(box) else [rank_one(d), box]
        assert list(oracle._tree_roots(d)) == expected


def test_rootwall_takes_no_step_beyond_the_built_trees(monkeypatch):
    calls = 0

    def counting(obj):
        nonlocal calls
        calls += 1
        return destabilizing_sequence(obj)

    monkeypatch.setattr(objects, "destabilizing_sequence", counting)
    monkeypatch.setattr(oracle, "destabilizing_sequence", counting, raising=False)
    decompose.cache_clear()
    assert run_check("nesting", BOUND).passed
    calls = 0
    report = run_check("rootwall", BOUND)
    decompose.cache_clear()
    assert report.passed and report.instances == 271
    assert calls == 0


def test_rootwall_reports_a_root_cut_that_is_not_the_scheme_slope_cut(tamper):
    obj = rank_one((3, 1))
    best = slopes.scheme_slope((3, 1))
    cut = ("vertical", 3)  # a real step, on a smaller wall

    def smaller_cut(obj, seq):
        sub, quotient = objects._sequence_parts(obj, cut)
        return DestabilizingSequence(sub, quotient, dict(candidate_walls(obj))[cut], cut)

    tamper(obj, smaller_cut)
    report = run_check("rootwall", 4)
    assert {failure.diagram for failure in report.failures} == {(3, 1)}
    assert (
        f"root cut {cut} is not {best.orientation} at k={best.index}"
        in {failure.detail for failure in report.failures}
    )


def emptied_wall(obj, seq):
    return replace(seq, wall=SemicircleWall(seq.wall.center, -seq.wall.radius_sq))


def test_an_empty_node_wall_is_a_witness_not_an_abort(tamper, monkeypatch, capsys):
    monkeypatch.delenv(cli.REPORT_PATH_VAR, raising=False)
    tamper(SHARED, emptied_wall)
    where = text_name(SHARED)
    chern_report = run_check("chern", BOUND)
    assert not chern_report.passed
    assert any(
        failure.detail.startswith("empty node wall") and failure.detail.endswith(where)
        for failure in chern_report.failures
    )
    triviality = run_check("triviality", BOUND)
    assert f"empty destabilizing wall at {where}" in {f.detail for f in triviality.failures}
    assert cli.main(["verify", "--check", "chern", "--max-degree", str(BOUND)]) == 1
    out, err = capsys.readouterr()
    assert out == render_report(chern_report) + "\n"
    assert "1 check(s) FAILED" in err


def test_chern_evaluates_potential_wall_on_every_candidate(monkeypatch):
    """The candidate clause keeps the general wall formula as its reference."""
    walls, per_call = 0, []
    candidates = oracle.candidate_walls

    def counting_wall(xi1, xi2):
        nonlocal walls
        walls += 1
        return potential_wall(xi1, xi2)

    def counting_candidates(obj):
        before = walls
        result = candidates(obj)
        per_call.append((len(result), walls - before))
        return result

    monkeypatch.setattr(objects, "potential_wall", counting_wall)
    monkeypatch.setattr(oracle, "candidate_walls", counting_candidates)
    assert run_check("chern", BOUND).passed
    assert all(count == calls for count, calls in per_call)
    assert (len(per_call), sum(count for count, _ in per_call)) == (611, 4259)

from __future__ import annotations

import re
import sys
from dataclasses import replace
from fractions import Fraction

import pytest

from staircase import cli, objects, oracle, slopes
from staircase.diagram import enumerate_diagrams_upto, transpose
from staircase.objects import (
    DecompositionTree,
    DestabilizingSequence,
    LineBundle,
    RankMinusOne,
    RankOne,
    RankZero,
    candidate_walls,
    chern_of,
    decompose,
    destabilizing_sequence,
    is_trivial,
    parse_tree,
    rank_minus_one,
    rank_one,
    rank_zero,
    serialize_tree,
    text_name,
    walk,
)
from staircase.oracle import (
    CHECK_NAMES,
    FAILURE_CAP,
    Failure,
    VerificationReport,
    render_report,
    render_reports,
    run_check,
)
from staircase.walls import SemicircleWall, potential_wall, wall_minors

BOUND = 12


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


def test_bound_is_read_by_the_integer_rule():
    with pytest.raises(ValueError, match=re.escape("degree bound 2.5 is not an integer")):
        run_check("nesting", 2.5)
    report = run_check("ci", True)
    assert report.degree_bound == 1 and type(report.degree_bound) is int
    assert "bound: 1" in render_report(report).splitlines()


def test_run_check_picks_the_default_bounds():
    report = run_check("gieseker")
    assert (report.degree_bound, report.instances) == (oracle.DEFAULT_BOUND, 1596)
    assert run_check("ci").degree_bound == oracle.DEFAULT_CI_BOUND


def test_unknown_check_rejected():
    with pytest.raises(ValueError):
        run_check("nonsense")


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
            for node, _, _ in walk(decompose(root)):
                if node.is_leaf:
                    continue
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


def emptied_wall(obj, seq):
    return replace(seq, wall=SemicircleWall(seq.wall.center, -seq.wall.radius_sq))


def swapped_parts(obj, seq):
    return replace(seq, sub=seq.quotient, quotient=seq.sub)


# an object whose node the trees of many diagrams share
SHARED = RankZero((5,), 0)
SHARED_BOUND = 9


def unmemoized_failures(name, n_max):
    """The failures of a walk that checks every visit afresh, uncapped."""
    _, node_check, item_check = oracle._CHECKS[name]
    failures = []
    for d in oracle._diagrams(n_max):
        for root in oracle._tree_roots(d):
            for node, _, _ in walk(oracle.decompose(root)):
                if node.is_leaf:
                    continue
                failures += [Failure(d, detail) for detail in node_check(node)]
        if item_check:
            failures += [Failure(d, detail) for detail in item_check(d)]
    return failures


def test_node_predicates_run_once_per_distinct_node(monkeypatch):
    distinct = {
        id(node): node
        for d in oracle._diagrams(BOUND)
        for root in oracle._tree_roots(d)
        for node, _, _ in walk(decompose(root))
        if not node.is_leaf
    }
    assert len(distinct) == 611
    pairings = walls = 0
    euler_char, potential_wall = oracle.euler_char, oracle.potential_wall

    def counting_pairing(ch):
        nonlocal pairings
        pairings += 1
        return euler_char(ch)

    def counting_wall(xi1, xi2):
        nonlocal walls
        walls += 1
        return potential_wall(xi1, xi2)

    monkeypatch.setattr(oracle, "euler_char", counting_pairing)
    monkeypatch.setattr(oracle, "potential_wall", counting_wall)
    node_checks = [name for name in CHECK_NAMES if oracle._CHECKS[name][1]]
    assert node_checks == ["nesting", "purity", "duality", "chern", "triviality"]
    for name in node_checks:
        enumerate_instances, node_check, item_check = oracle._CHECKS[name]
        runs = []

        def counting_check(node, node_check=node_check):
            runs.append(id(node))
            yield from node_check(node)

        monkeypatch.setitem(oracle._CHECKS, name, (enumerate_instances, counting_check, item_check))
        pairings = walls = 0
        assert run_check(name, BOUND).passed
        assert sorted(runs) == sorted(distinct), name
        # two pairings, of the sub and the node, and one wall per node, in chern only
        expected = (2 * len(distinct), len(distinct)) if name == "chern" else (0, 0)
        assert (pairings, walls) == expected, name


@pytest.mark.parametrize("name", ["nesting", "chern"])
def test_a_tampered_shared_node_is_replayed_at_every_visit(tamper, name):
    tamper(SHARED, shifted_wall)
    expected = unmemoized_failures(name, SHARED_BOUND)
    report = run_check(name, SHARED_BOUND)
    assert report.failures == tuple(expected[:FAILURE_CAP])
    assert len({failure.diagram for failure in report.failures}) > 1
    if name == "chern":
        assert len(expected) > FAILURE_CAP


# a rank-1 node that the trees of I_Z and of the box both reach
SHARED_RANK_ONE = RankOne((1,), -2)
# the box root of (4, 3), and a node below the box roots of (4, 3, 1) and (4, 3, 1, 1)
SHARED_BOX = RankMinusOne((4, 3), 0)


@pytest.mark.parametrize(
    "name, target, change",
    [
        ("triviality", SHARED, emptied_wall),
        ("triviality", SHARED_RANK_ONE, emptied_wall),
        ("duality", SHARED_BOX, shifted_wall),
        ("purity", SHARED_BOX, swapped_parts),
        ("purity", SHARED_RANK_ONE, swapped_parts),
        ("nesting", SHARED_BOX, shifted_wall),
        ("chern", SHARED_RANK_ONE, shifted_wall),
    ],
)
def test_every_node_check_reports_a_tampered_shared_node_as_an_unmemoized_walk(
    tamper, name, target, change
):
    tamper(target, change)
    expected = unmemoized_failures(name, SHARED_BOUND)
    report = run_check(name, SHARED_BOUND)
    assert report.failures == tuple(expected[:FAILURE_CAP])
    assert len({failure.diagram for failure in report.failures}) > 1
    if target != SHARED:  # the node also lies below the box root of a witness
        boxes = {rank_minus_one(failure.diagram) for failure in report.failures}
        below_roots = {
            node.node
            for box in boxes
            if not is_trivial(box)
            for node, depth, _ in walk(decompose(box))
            if depth and not node.is_leaf
        }
        assert target in below_roots


def test_a_check_failing_at_every_node_reports_every_visit_in_preorder(monkeypatch):
    """Uncapped, the witnesses are those of walking every tree of every diagram."""

    def naming(node):
        yield f"{text_name(node.node)} cut at {node.sequence.cut}"

    monkeypatch.setitem(oracle._CHECKS, "naming", (oracle._diagrams, naming, None))
    monkeypatch.setattr(oracle, "FAILURE_CAP", 10**6)
    expected = unmemoized_failures("naming", BOUND)
    assert len(expected) == 1930
    assert run_check("naming", BOUND).failures == tuple(expected)


def test_fold_keeps_the_first_details_of_a_tree_deeper_than_the_recursion_limit():
    depth = sys.getrecursionlimit() + 100
    wall = SemicircleWall(Fraction(-3), Fraction(1))
    tree = DecompositionTree(LineBundle(0))
    for m in range(1, depth + 1):
        sub = DecompositionTree(LineBundle(-m))
        sequence = DestabilizingSequence(sub.node, tree.node, wall, ("horizontal", 1))
        tree = DecompositionTree(RankOne((1,), m), sequence, sub, tree)

    def twist(node):
        yield f"twist {node.node.twist}"

    folded = {}
    details = oracle._fold(tree, twist, folded)
    # preorder: each node, its leaf sub, then the node below it
    assert details == tuple(f"twist {m}" for m in range(depth, depth - FAILURE_CAP, -1))
    assert len(folded) == 2 * depth + 1
    below = oracle._fold(tree.quotient, twist, folded)
    assert below == details[1:] + (f"twist {depth - FAILURE_CAP}",)


def test_each_witness_of_a_tampered_shared_node_is_reported_once(tamper):
    """The rank-0 quotient is walked inside I_Z's tree only, not again as a root."""
    tamper(SHARED, shifted_wall)
    report = run_check("chern", 8)
    pairs = [(failure.diagram, failure.detail) for failure in report.failures]
    assert len(pairs) == 84
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
        sub, quotient = objects._sequence_parts(obj, cut, transpose(obj.diagram))
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
        quotient = rank_zero(base[:best.index])
        assert quotient == decompose(rank_one(d)).quotient.node
        box = rank_minus_one(d)
        expected = [rank_one(d)] if is_trivial(box) else [rank_one(d), box]
        assert list(oracle._tree_roots(d)) == expected


def test_instance_lists_and_root_objects_are_built_once():
    for build, arg in ((oracle._diagrams, 10), (oracle._rectangles, 10), (oracle._tree_roots, (4, 3, 1))):
        first = build(arg)
        assert type(first) is tuple
        assert build(arg) is first


def test_later_runs_enumerate_no_instances_and_build_no_roots(monkeypatch):
    assert run_check("nesting", 10).passed

    def refuse(*args):
        raise AssertionError("rebuilt after the first run")

    monkeypatch.setattr(oracle, "enumerate_diagrams_upto", refuse)
    monkeypatch.setattr(oracle, "rank_minus_one", refuse)
    for name in ("nesting", "purity", "triviality", "rootwall"):
        assert run_check(name, 10).passed, name


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
        sub, quotient = objects._sequence_parts(obj, cut, transpose(obj.diagram))
        return DestabilizingSequence(sub, quotient, dict(candidate_walls(obj))[cut], cut)

    tamper(obj, smaller_cut)
    report = run_check("rootwall", 4)
    assert {failure.diagram for failure in report.failures} == {(3, 1)}
    assert (
        f"root cut {cut} is not {best.orientation} at k={best.index}"
        in {failure.detail for failure in report.failures}
    )


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
    """The candidate clause keeps the general wall formula as its reference: each chooser call
    sends every candidate, in order, through the formula's integer core exactly once."""
    sent, per_call = [], []
    chooser = oracle.first_largest_candidate

    def counting_core(*parts):
        sent.append(parts)
        return wall_minors(*parts)

    def counting_chooser(obj):
        before = len(sent)
        result = chooser(obj)
        target = objects.integer_character(obj)
        expected = [(*sub, 1, *target, 1) for _, sub, _ in objects._candidate_subs(obj)]
        per_call.append((len(expected), sent[before:] == expected))
        return result

    monkeypatch.setattr(objects, "wall_minors", counting_core)
    monkeypatch.setattr(oracle, "first_largest_candidate", counting_chooser)
    assert run_check("chern", BOUND).passed
    assert all(once for _, once in per_call)
    assert (len(per_call), sum(count for count, _ in per_call)) == (611, 4259)


def moved_wall(dc):
    def change(obj, seq):
        return replace(seq, wall=SemicircleWall(seq.wall.center + dc, seq.wall.radius_sq))

    return change


def grown_wall(obj, seq):
    return replace(seq, wall=SemicircleWall(seq.wall.center, seq.wall.radius_sq + 1))


def recut(index):
    def change(obj, seq):
        return replace(seq, cut=(seq.cut[0], index))

    return change


@pytest.mark.parametrize(
    "name, target, change, bound, witness",
    [
        (
            "nesting",
            RankOne((1,), -1),
            moved_wall(-1),
            3,
            Failure((2, 1), "sub I(1)(-1) of I(2,1): mu_opt 2 > 1"),
        ),
        (
            "nesting",
            SHARED_BOX,
            moved_wall(2),
            8,
            Failure((4, 3, 1), "quotient F(4,3 in 2x4) of F(4,3,1 in 3x4): mu_opt 1 < 2"),
        ),
        (
            "nesting",
            RankZero((2, 2), 0),
            grown_wall,
            4,
            Failure((2, 2), "quotient I(2,2 in 2L) of I(2,2): Delta_opt 7/8 > 3/8"),
        ),
        ("triviality", RankOne((1,), 0), recut(2), 3, Failure((1,), "case 1 fails at I(1): 2^2 >= 2*1")),
        (
            "triviality",
            RankOne((1, 1), 0),
            recut(2),
            2,
            Failure((1, 1), "case 1 fails at I(1,1): 2^2 >= 2*2"),
        ),
        (
            "triviality",
            RankZero((1,), 0),
            recut(2),
            3,
            Failure((1,), "case 2 fails at I(1 in 1L): 2 >= n/k + k/2"),
        ),
        (
            "triviality",
            RankZero((2, 2), 0),
            recut(3),
            4,
            Failure((2, 2), "case 2 fails at I(2,2 in 2L): 3 >= n/k + k/2"),
        ),
        (
            "triviality",
            RankZero((1,), 0),
            recut(0),
            3,
            Failure((1,), "case 3 fails at I(1 in 1L): 0 < n/k - k/2"),
        ),
        (
            "triviality",
            RankMinusOne((2, 1), 0),
            recut(0),
            3,
            Failure((2, 1), "case 4 fails at F(2,1 in 2x2): 2^2 >= 2(ki - n)"),
        ),
        (
            "triviality",
            RankMinusOne((3, 3, 1), 0),
            recut(1),
            7,
            Failure((3, 3, 1), "case 4 fails at F(3,3,1 in 3x3): 2^2 >= 2(ki - n)"),
        ),
        (
            "chern",
            RankOne((1,), 0),
            shifted_wall,
            1,
            Failure((1,), "W(sub, node) differs from node wall at I(1)"),
        ),
        (
            "chern",
            RankOne((2, 1), 0),
            shifted_wall,
            3,
            Failure((2, 1), "orthogonal class pairs to 2 with sub at I(2,1)"),
        ),
        (
            "chern",
            RankOne((2, 1), 0),
            shifted_wall,
            3,
            Failure((2, 1), "orthogonal class pairs to 3 with node at I(2,1)"),
        ),
        (
            "chern",
            RankOne((2, 1), 0),
            shifted_wall,
            3,
            Failure((2, 1), "central charge of sub has real part -2 at the top of the wall of I(2,1)"),
        ),
        (
            "chern",
            RankOne((2, 1), 0),
            shifted_wall,
            3,
            Failure((2, 1), "central charge of node has real part -3 at the top of the wall of I(2,1)"),
        ),
        (
            "purity",
            RankOne((1,), 0),
            swapped_parts,
            1,
            Failure((1,), "quotient of I(1) is not a rank-0 object"),
        ),
        (
            "purity",
            RankMinusOne((2, 1), 0),
            swapped_parts,
            3,
            Failure((2, 1), "sub of F(2,1 in 2x2) is not a rank-0 object"),
        ),
        # the diagram clauses of rootwall read the root step of I_Z's tree
        ("rootwall", RankOne((1,), 0), shifted_wall, 1, Failure((1,), "root wall center -5/2 != -3/2")),
        (
            "rootwall",
            RankOne((2, 1), 0),
            grown_wall,
            3,
            Failure((2, 1), "root wall radius^2 5/4 != center^2 - 2n"),
        ),
    ],
)
def test_each_node_clause_reports_a_tampered_step(tamper, name, target, change, bound, witness):
    tamper(target, change)
    assert witness in run_check(name, bound).failures


def test_triviality_case_3_holds_on_its_bound(tamper):
    """I(2,2 in 2L) has a trivial sub and quotient and n/k - k/2 = 1: a cut at 1 lies on the bound."""
    target = RankZero((2, 2), 0)
    tamper(target, recut(1))
    seq = decompose(target).sequence
    assert seq.cut[1] == 1 and is_trivial(seq.sub) and is_trivial(seq.quotient)
    assert run_check("triviality", 4).passed


def wrong_chern_of_line_bundles(real):
    def chern_of(obj):
        return real(LineBundle(obj.twist + 1)) if isinstance(obj, LineBundle) else real(obj)

    return chern_of


@pytest.mark.parametrize(
    "name, binding, wrap, witnesses",
    [
        (
            "purity",
            "is_horizontally_pure",
            lambda real: lambda d: False,
            [((1,), "I(1 in 1L) is not horizontally pure")],
        ),
        (
            "gieseker",
            "is_horizontally_pure",
            lambda real: lambda d: False,
            [((1,), "purity (False) and reduced-polynomial criterion (True) disagree")],
        ),
        (
            "duality",
            "derived_dual",
            lambda real: lambda obj: (real(obj)[0], real(obj)[1] + 1),
            [((2, 1), "dual slope identity fails at F(2,1 in 2x2): 1 != 2")],
        ),
        (
            "duality",
            "derived_dual",
            lambda real: lambda obj: (obj.diagram, real(obj)[1]),
            [((2, 1), "complement rotation not involutive at F(2,1 in 2x2)")],
        ),
        (
            "duality",
            "complement_rotate",
            lambda real: lambda d, k, i: d,
            [((2, 1), "complement rotation not involutive at F(2,1 in 2x2)")],
        ),
        (
            "chern",
            "twist",
            lambda real: lambda xi, m: real(xi, m + 1),
            [((1,), "integer character differs from the general twist at I(1)")],
        ),
        ("chern", "chern_of", wrong_chern_of_line_bundles, [((1,), "chern additivity fails at I(1)")]),
        (
            "chern",
            "minimal_free_resolution",
            lambda real: lambda d: replace(real(d), syzygy_twists=()),
            [((1,), "resolution chern sum differs from ideal chern character")],
        ),
    ],
)
def test_each_clause_reports_a_broken_oracle_binding(monkeypatch, name, binding, wrap, witnesses):
    monkeypatch.setattr(oracle, binding, wrap(getattr(oracle, binding)))
    failures = run_check(name, 3).failures
    for diagram, detail in witnesses:
        assert Failure(diagram, detail) in failures


def test_ci_reports_every_closed_form_of_a_tampered_tree(monkeypatch):
    def tampered(obj):
        tree = decompose(obj)
        seq, second = tree.sequence, tree.quotient.sequence
        second_wall = SemicircleWall(second.wall.center + 1, second.wall.radius_sq + 3)
        quotient = replace(tree.quotient, sequence=replace(second, wall=second_wall))
        wall = SemicircleWall(seq.wall.center - 1, seq.wall.radius_sq + 1)
        return replace(tree, sequence=replace(seq, sub=seq.quotient, wall=wall), quotient=quotient)

    monkeypatch.setattr(oracle, "decompose", tampered)
    failures = run_check("ci", 2).failures
    assert [failure.detail for failure in failures if failure.diagram == (2, 2)] == [
        "CI(2,2) sub is I(2,2 in 2L), expected O(-2)",
        "CI(2,2) center -4 != -a/2 - b",
        "CI(2,2) radius^2 2 != (a/2 - b)^2",
        "CI(2,2) mu_opt != b + (a-3)/2",
        "CI(2,2) Delta_opt != ((a-2b)^2 - 1)/8",
        "CI(2,2) wall equality should hold exactly when a = b",
        "CI(2,2) second wall not concentric with the first",
        "CI(2,2) second radius^2 4 != a^2/4",
        "CI(2,2) radius^2 gap != b(b-a)",
        "CI(2,2) rank-0 mu_opt != b + (a-3)/2",
        "CI(2,2) rank-0 Delta_opt != (a^2-1)/8",
    ]

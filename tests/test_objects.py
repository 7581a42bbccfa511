from __future__ import annotations

import json
import operator
import re
import sys
from dataclasses import FrozenInstanceError, fields, replace
from fractions import Fraction

import pytest

from staircase import objects, oracle
from staircase.diagram import (
    degree,
    enumerate_diagrams_upto,
    transpose,
)
from staircase.ktheory import chern, hilbert_P, twist
from staircase.objects import (
    DecompositionTree,
    DestabilizingSequence,
    LineBundle,
    RankMinusOne,
    RankOne,
    RankZero,
    ShiftedLineBundle,
    candidate_walls,
    chern_of,
    decompose,
    derived_dual,
    destabilizing_sequence,
    first_largest_candidate,
    integer_character,
    is_trivial,
    leaves,
    mu_opt,
    parse_tree,
    rank0_hilbert_polynomial,
    rank_minus_one,
    rank_one,
    rank_zero,
    render_tree,
    serialize_tree,
    text_name,
    tree_to_dot,
    walk,
)
from staircase.resolution import minimal_free_resolution
from staircase.slopes import is_horizontally_pure, scheme_slope
from staircase.walls import (
    SemicircleWall,
    VerticalWall,
    is_empty,
    orthogonal_invariants,
    potential_wall,
    wall_minors,
)
from slice_reference import family, parts_or_error, slice_above, slice_parts, slice_right
from tree_asserts import assert_actual_wall, assert_same_text, assert_same_tree, in_heart_along

BOUND = 10

BIG = (9, 9, 7, 7, 6, 4, 3, 3)  # the degree-48 running example


def pure_bottom(d):
    """The bottom slice at the scheme-slope cut, in the argmax orientation."""
    best = scheme_slope(d)
    if best.orientation == "vertical":
        d = transpose(d)
    return d[:best.index], best.index


def all_test_objects(bound):
    """Every monomial object type over all diagrams of degree <= bound."""
    for d in enumerate_diagrams_upto(bound):
        yield rank_one(d)
        bottom, k = pure_bottom(d)
        yield rank_zero(bottom)
        obj = rank_minus_one(d)
        if not is_trivial(obj):
            yield obj


def test_factory_normalization():
    assert rank_one((), -8) == LineBundle(-8)
    assert isinstance(rank_one((1,)), RankOne)
    assert rank_minus_one((3, 3)) == ShiftedLineBundle(-5)
    assert rank_minus_one((3, 3), twist=4) == ShiftedLineBundle(-1)
    assert isinstance(rank_minus_one((7, 7, 7, 7, 6)), RankMinusOne)
    assert is_trivial(LineBundle(0))
    assert is_trivial(ShiftedLineBundle(-2))
    assert not is_trivial(rank_one((1,)))


def test_factory_validation():
    with pytest.raises(ValueError, match="not horizontally pure"):
        rank_zero((3, 1))  # the bottom row alone has the larger slope
    with pytest.raises(ValueError, match="not horizontally pure"):
        rank_zero((5, 5, 1))
    with pytest.raises(ValueError, match="need at least one supporting line"):
        rank_zero(())
    with pytest.raises(ValueError, match="got 0 x 0"):
        rank_minus_one(())  # the empty scheme has no bounding box
    # k is the row count; a second positional argument is the twist
    assert rank_zero((1,), 3) == RankZero((1,), 3)
    assert rank_zero((3, 3)) == RankZero((3, 3), 0)


@pytest.mark.parametrize("factory", [rank_one, rank_zero, rank_minus_one])
def test_every_public_factory_validates_its_rows(factory):
    """Only the parts of a step skip the row checks; a caller's rows never do."""
    for rows, message in (((1, 2), "weakly decreasing"), ((2, -1), "negative"), ((2.5,), "not an integer")):
        with pytest.raises(ValueError, match=message):
            factory(rows)
    obj = factory([3.0, 3, 0])  # cleaned to the diagram (3, 3) of plain ints
    expected = {rank_one: RankOne((3, 3)), rank_zero: RankZero((3, 3)), rank_minus_one: ShiftedLineBundle(-5)}
    assert obj == expected[factory]
    if not is_trivial(obj):
        assert {type(h) for h in obj.diagram} == {int}


@pytest.mark.parametrize("factory, rows", [(rank_one, (3, 1)), (rank_zero, (2, 2)), (rank_minus_one, (3, 1))])
def test_every_public_factory_validates_its_twist(factory, rows):
    """A twist that is no integer fails at the factory, not inside a later step."""
    with pytest.raises(ValueError, match="twist '1' is not an integer"):
        factory(rows, "1")
    with pytest.raises(ValueError, match="twist None is not an integer"):
        factory(rows, None)
    obj, expected = factory(rows, 2.0), factory(rows, 2)
    assert text_name(obj) == text_name(expected)
    assert destabilizing_sequence(obj) == destabilizing_sequence(expected)


def test_rank_zero_and_minus_one_are_their_diagram_and_twist():
    """k and i are read from the diagram, so no object disagrees with its diagram."""
    assert [f.name for f in fields(RankZero)] == ["diagram", "twist"]
    assert [f.name for f in fields(RankMinusOne)] == ["diagram", "twist"]
    assert RankZero((9, 9, 7, 7, 6)).k == 5
    box = RankMinusOne((7, 7, 7, 7, 6))
    assert (box.k, box.i) == (5, 7)
    with pytest.raises(TypeError):
        RankZero((1,), 3, 0)  # the padded shape: one row on three lines
    with pytest.raises(TypeError):
        RankMinusOne((3, 1), 1, 3, 0)


FROZEN = [
    chern(1, Fraction(1, 2), 3),
    VerticalWall(Fraction(1, 2)),
    SemicircleWall(Fraction(-5, 2), Fraction(1, 4)),
    LineBundle(-2),
    ShiftedLineBundle(1),
    rank_one((2, 1)),
    rank_zero((2, 2)),
    rank_minus_one((3, 1)),
    destabilizing_sequence(rank_one((2, 1))),
    decompose(rank_one((2, 1))),
    minimal_free_resolution((2, 1)),
]


@pytest.mark.parametrize("value", FROZEN, ids=[type(value).__name__ for value in FROZEN])
def test_every_dataclass_is_frozen_and_slotted(value):
    """Objects are memo keys, so no field may change, and ``slots=True`` leaves no ``__dict__``.

    A field is reassigned its own value, so a class that lost ``frozen=True`` fails without
    changing a shared object.  A new name raises ``TypeError`` on CPython's slotted frozen classes.
    """
    assert not hasattr(value, "__dict__")
    for field in fields(value):
        with pytest.raises(FrozenInstanceError):
            setattr(value, field.name, getattr(value, field.name))
    with pytest.raises((FrozenInstanceError, TypeError, AttributeError)):
        value.unexpected = 1


def test_chern_of_pinned():
    assert tuple(chern_of(rank_one(BIG))) == (1, 0, -48)
    assert tuple(chern_of(LineBundle(-8))) == (1, -8, 32)
    assert tuple(chern_of(ShiftedLineBundle(-2))) == (-1, 2, -2)
    assert tuple(chern_of(rank_one((4, 3, 3), -5))) == (1, -5, Fraction(5, 2))
    assert tuple(chern_of(rank_zero((9, 9, 7, 7, 6)))) == (0, 5, Fraction(-101, 2))
    assert tuple(chern_of(rank_minus_one((7, 7, 7, 7, 6)))) == (-1, 12, -71)


def test_candidate_walls_rank1_big():
    obj = rank_one(BIG)
    candidates = candidate_walls(obj)
    horizontal = [c for c in candidates if c[0][0] == "horizontal"]
    vertical = [c for c in candidates if c[0][0] == "vertical"]
    assert [cut[1] for cut, _ in horizontal] == list(range(1, 9))
    assert [cut[1] for cut, _ in vertical] == list(range(1, 10))
    best_cut, best_wall = min(candidates, key=lambda item: item[1].center)
    assert best_cut == ("horizontal", 5)
    assert best_wall == SemicircleWall(Fraction(-101, 10), Fraction(601, 100))


def test_candidate_walls_rank0_pinned_table():
    obj = rank_zero((9, 9, 7, 7, 6))
    candidates = candidate_walls(obj)
    assert [cut[1] for cut, _ in candidates] == [6, 7, 8, 9]
    deltas = {}
    for (direction, i), wall in candidates:
        assert direction == "vertical"
        assert wall.center == Fraction(-101, 10)  # concentric family
        deltas[i] = orthogonal_invariants(wall)[1]
    assert deltas == {
        6: Fraction(7, 25),
        7: Fraction(17, 25),
        8: Fraction(2, 25),
        9: Fraction(12, 25),
    }
    assert max(deltas, key=lambda i: deltas[i]) == 7


def test_candidate_walls_rank_minus1_tie():
    obj = rank_minus_one((7, 7, 7, 7, 6))
    candidates = dict(candidate_walls(obj))
    assert set(candidates) == {("horizontal", 4), ("vertical", 6)}
    assert candidates[("horizontal", 4)].center == Fraction(-21, 2)
    assert candidates[("vertical", 6)].center == Fraction(-21, 2)
    assert destabilizing_sequence(obj).cut == ("horizontal", 4)


def test_candidate_walls_trivial_rejected():
    for obj in (LineBundle(0), ShiftedLineBundle(-2)):
        for step in (candidate_walls, destabilizing_sequence, mu_opt):
            with pytest.raises(ValueError, match=re.escape(f"trivial object {obj!r} has no candidate walls")):
                step(obj)


def test_a_rank_minus_one_object_on_a_full_box_has_no_candidate_walls():
    """Only the unchecked dataclass builds one; every step ends in a domain error, not inside the loops."""
    for obj in (RankMinusOne((3, 3)), RankMinusOne((1,), 4)):
        message = re.escape(f"{obj!r} fills its box, so it is trivial and has no candidate walls")
        for step in (destabilizing_sequence, decompose, mu_opt, first_largest_candidate, candidate_walls):
            with pytest.raises(ValueError, match=message):
                step(obj)


@pytest.mark.parametrize(
    "obj, text",
    [
        (RankOne(()), "need at least one box, got 0"),
        (RankZero((), 2), "need at least one supporting line, got 0"),
        (RankMinusOne((), -1), "box dimensions must be positive, got 0 x 0"),
    ],
)
def test_unchecked_objects_on_the_empty_diagram_rejected(obj, text):
    """Only the unchecked dataclasses build these; every step and the character raise the same ValueError."""
    for step in (decompose, destabilizing_sequence, mu_opt, candidate_walls, integer_character):
        with pytest.raises(ValueError, match=re.escape(text)):
            step(obj)


def slice_candidates(obj):
    """(cut, character) of every candidate subobject, sliced out one by one."""
    d, t = obj.diagram, obj.twist
    if isinstance(obj, RankOne):
        for k in range(1, len(d) + 1):
            yield ("horizontal", k), twist(chern_of(rank_one(slice_above(d, k))), t - k)
        for i in range(1, d[0] + 1):
            yield ("vertical", i), twist(chern_of(rank_one(slice_right(d, i))), t - i)
    elif isinstance(obj, RankZero):
        for i in range(d[-1], d[0] + 1):
            yield ("vertical", i), twist(chern_of(rank_one(slice_right(d, i))), t - i)
    else:
        k, i = obj.k, obj.i
        for j in range(d.count(d[0]), k):
            yield ("horizontal", j), twist(chern_of(RankZero(slice_above(d, j))), t - j)
        for j in range(d[-1], i):
            yield ("vertical", j), twist(
                chern_of(RankZero(transpose(slice_right(d, j)))), t - j
            )


def reference_step(obj):
    """The first minimum of candidate_walls under the documented key."""
    if isinstance(obj, RankOne):
        key = lambda wall: wall.center
    elif isinstance(obj, RankZero):
        key = lambda wall: -wall.radius_sq
    else:
        key = lambda wall: -wall.center
    return min(
        candidate_walls(obj),
        key=lambda item: (key(item[1]), item[0][0] != "horizontal", item[0][1]),
    )


def test_integer_selection_matches_the_reference_on_every_tree_node():
    """The selection and the oracle's chooser both pick the reference's cut and wall."""
    for d in enumerate_diagrams_upto(12):
        for root in oracle._tree_roots(d):
            for node, _, _ in walk(decompose(root)):
                if node.is_leaf:
                    continue
                obj = node.node
                seq = destabilizing_sequence(obj)
                assert (seq.cut, seq.wall) == reference_step(obj) == first_largest_candidate(obj)
                scaled = list(objects._candidate_subs(obj))
                assert all(type(x) is int for _, sub, _ in scaled for x in sub)
                assert all(lengths == family(obj, cut) for cut, _, lengths in scaled)
                assert [
                    (cut, chern(r, c1, Fraction(ch2_twice, 2)))
                    for cut, (r, c1, ch2_twice), _ in scaled
                ] == list(slice_candidates(obj))


def test_rank_zero_selection_is_the_first_largest_radius_on_every_pure_diagram():
    """Tree nodes of rank 0 mostly have one cut; every pure diagram exercises the key."""
    checked = 0
    for d in enumerate_diagrams_upto(18):
        if not d or not is_horizontally_pure(d):
            continue
        for t in (0, -5, 7):
            obj = rank_zero(d, t)
            candidates = candidate_walls(obj)
            if len(candidates) < 2:
                continue
            seq = destabilizing_sequence(obj)
            assert (seq.cut, seq.wall) == max(candidates, key=lambda item: item[1].radius_sq), obj
            checked += 1
    assert checked == 1884


def test_every_candidate_cut_splits_as_the_row_and_column_slices():
    nodes = {
        node.node
        for d in enumerate_diagrams_upto(12)
        for root in oracle._tree_roots(d)
        for node, _, _ in walk(decompose(root))
        if not node.is_leaf
    }
    raised = 0
    for obj in nodes:
        for cut, _ in slice_candidates(obj):
            want = parts_or_error(slice_parts, obj, cut)
            got = parts_or_error(objects._sequence_parts, obj, cut, family(obj, cut))
            assert got == want, (obj, cut)
            raised += want is ValueError
    assert raised  # some candidate cuts have an impure rank-0 part


def test_candidate_walls_raise_on_a_degenerate_candidate(monkeypatch):
    obj = rank_one((4, 3, 3), -5)
    own = (1, -5, 5)  # the object's own character: linearly dependent
    same_slope = (1, -5, 7)  # independent but of equal slope: a vertical wall
    for sub, error in ((own, ValueError), (same_slope, AssertionError)):
        candidates = [(("horizontal", 1), sub, obj.diagram)]
        monkeypatch.setattr(objects, "_candidate_subs", lambda _: iter(candidates))
        with pytest.raises(error):
            candidate_walls(obj)


@pytest.mark.parametrize(
    "first, second, error, text",
    [
        ((1, -5, 7), (1, -5, 5), AssertionError, "candidate wall at ('horizontal', 1) is not a semicircle"),
        ((1, -5, 5), (1, -5, 7), ValueError, "linearly dependent characters bound no wall"),
    ],
    ids=["vertical_then_dependent", "dependent_then_vertical"],
)
def test_first_largest_candidate_raises_as_candidate_walls(monkeypatch, first, second, error, text):
    """A vertical candidate (same slope) and a dependent one (the object's own character): the first raises."""
    obj = rank_one((4, 3, 3), -5)
    candidates = [(("horizontal", 1), first, obj.diagram), (("horizontal", 2), second, obj.diagram)]
    monkeypatch.setattr(objects, "_candidate_subs", lambda _: iter(candidates))
    for choose in (candidate_walls, first_largest_candidate):
        with pytest.raises(error) as raised:
            choose(obj)
        assert type(raised.value) is error and str(raised.value) == text


def test_destabilizing_sequence_raises_on_an_empty_selected_wall(monkeypatch):
    obj = rank_one((4, 3, 3), -5)
    monkeypatch.setattr(objects, "is_empty", lambda wall: True)
    message = f"selected wall at ('horizontal', 3) for {obj!r} is empty"
    with pytest.raises(AssertionError, match=re.escape(message)):
        destabilizing_sequence(obj)


def test_every_cut_family_keeps_the_key_denominators_positive():
    """The selection keys divide by j (rank 1) and by len(lengths) - j (rank -1)."""
    for d in enumerate_diagrams_upto(12):
        for root in oracle._tree_roots(d):
            for node, _, _ in walk(decompose(root)):
                if node.is_leaf:
                    continue
                for _, lengths, first, last in objects._families(node.node):
                    assert first >= 1, node.node
                    if isinstance(node.node, RankMinusOne):
                        assert last <= len(lengths) - 1, node.node


def test_one_potential_wall_per_tree_node(monkeypatch):
    """One evaluation of the general wall formula per internal node: the stored wall."""
    calls = 0

    def counting(*parts):
        nonlocal calls
        calls += 1
        return wall_minors(*parts)

    monkeypatch.setattr(objects, "wall_minors", counting)
    decompose.cache_clear()
    tree = decompose(rank_one(tuple(range(150, 0, -1))))
    assert calls == sum(not node.is_leaf for node, _, _ in walk(tree))


def internal_nodes(bound):
    """Each distinct internal node of both roots' trees to degree ``bound``, as its tree."""
    nodes = {}
    for d in enumerate_diagrams_upto(bound):
        for root in oracle._tree_roots(d):
            nodes.update((t.node, t) for t, _, _ in walk(decompose(root)) if not t.is_leaf)
    return nodes


def test_tree_walls_are_actual_walls_to_degree_16():
    """Sub, node and quotient lie in the heart along each wall (A), and the sub destabilizes inside it (B)."""
    nodes = internal_nodes(16)
    assert len(nodes) == 2045
    for tree in nodes.values():
        assert_actual_wall(tree)


def test_each_step_holds_its_children_nodes():
    """A node's step stores the very objects its subtrees hold, after a memo hit and after parsing."""
    trees = [decompose(root) for d in enumerate_diagrams_upto(16) for root in oracle._tree_roots(d)]
    trees.append(parse_tree(serialize_tree(decompose(rank_one(tuple(range(150, 0, -1)))))))
    internal = [t for tree in trees for t, _, _ in walk(tree) if not t.is_leaf]
    assert len(internal) == 7992 + 300  # node visits to degree 16, and the staircase's
    for t in internal:
        assert t.sequence.sub is t.sub.node and t.sequence.quotient is t.quotient.node, text_name(t.node)


def test_the_heart_clause_fails_at_candidate_cuts_the_selection_passes_over():
    """Clause A has teeth: 1,096 nonempty non-chosen candidate walls to degree 14 leave the heart."""
    failing = 0
    for obj, tree in internal_nodes(14).items():
        node = integer_character(obj)
        walls = dict(candidate_walls(obj))
        for cut, sub, _ in objects._candidate_subs(obj):
            if cut != tree.sequence.cut and not is_empty(walls[cut]):
                quotient = tuple(map(operator.sub, node, sub))
                failing += not all(in_heart_along(x, walls[cut]) for x in (sub, node, quotient))
    assert failing == 1096


def test_destabilizing_sequence_big_chain():
    root = destabilizing_sequence(rank_one(BIG))
    assert root.cut == ("horizontal", 5)
    assert root.sub == RankOne((4, 3, 3), -5)
    assert root.quotient == RankZero((9, 9, 7, 7, 6), 0)
    assert root.wall == SemicircleWall(Fraction(-101, 10), Fraction(601, 100))

    step2 = destabilizing_sequence(root.quotient)
    assert step2.cut == ("vertical", 7)
    assert step2.sub == RankOne((2, 2), -7)
    assert step2.quotient == RankMinusOne((7, 7, 7, 7, 6), 0)
    assert step2.wall == SemicircleWall(Fraction(-101, 10), Fraction(161, 100))

    step3 = destabilizing_sequence(step2.quotient)
    assert step3.cut == ("horizontal", 4)
    assert step3.sub == RankZero((6,), -4)
    assert step3.quotient == ShiftedLineBundle(-11)
    assert step3.wall == SemicircleWall(Fraction(-21, 2), Fraction(1, 4))


def test_complete_intersection_sequence():
    # a-wide, b-tall rectangle: the curve of smaller degree a destabilizes.
    for a in range(1, 7):
        for b in range(a, 7):
            seq = destabilizing_sequence(rank_one((a,) * b))
            assert seq.sub == LineBundle(-a)
            if a == b:
                assert seq.cut == ("horizontal", a)
                assert seq.quotient == RankZero((a,) * a, 0)
            else:
                assert seq.cut == ("vertical", a)
                assert seq.quotient == RankZero((b,) * a, 0)
            assert seq.wall.center == Fraction(-a, 2) - b
            assert seq.wall.radius_sq == Fraction((a - 2 * b) ** 2, 4)


def test_single_point_tree_golden():
    tree = decompose(rank_one((1,)))
    assert tree.sequence.cut == ("horizontal", 1)
    assert tree.sequence.wall == SemicircleWall(Fraction(-3, 2), Fraction(1, 4))
    assert tree.sub.node == LineBundle(-1)
    assert tree.quotient.node == RankZero((1,), 0)
    inner = tree.quotient
    assert inner.sequence.cut == ("vertical", 1)
    assert inner.sequence.wall == SemicircleWall(Fraction(-3, 2), Fraction(1, 4))
    assert inner.sub.node == LineBundle(-1)
    assert inner.quotient.node == ShiftedLineBundle(-2)
    assert leaves(tree) == [LineBundle(-1), LineBundle(-1), ShiftedLineBundle(-2)]


def test_empty_scheme_is_a_leaf():
    tree = decompose(rank_one(()))
    assert tree.is_leaf
    assert tree.node == LineBundle(0)


def test_degenerate_rank0_on_empty_diagram():
    """The empty diagram has no rows, so no rank-0 object lies on it."""
    for twist in (0, 2, -3):
        with pytest.raises(ValueError, match="need at least one supporting line, got 0"):
            rank_zero((), twist)


def test_padded_rank0_decomposes_through_its_ideal():
    """A rank-0 node on more lines than its rows is rejected, not decomposed."""
    padded = {"type": "rank0", "diagram": [1], "lines": 3, "twist": 0}
    with pytest.raises(ValueError, match="does not lie on exactly 3 lines"):
        parse_tree(json.dumps({"object": padded}))


@pytest.mark.parametrize("bad", ["a", 1.5, 2.0, True, False, None, [1], "3"])
@pytest.mark.parametrize(
    "node",
    [
        {"type": "line_bundle"},
        {"type": "shifted_line_bundle"},
        {"type": "rank1", "diagram": [2, 1]},
        {"type": "rank0", "diagram": [2, 2], "lines": 2},
        {"type": "rank-1", "diagram": [2, 1], "lines": 2, "colines": 2},
    ],
)
def test_parse_tree_rejects_a_twist_that_is_not_an_integer(node, bad):
    text = json.dumps({"object": dict(node, twist=bad)})
    with pytest.raises(ValueError, match="twist must be an integer"):
        parse_tree(text)


@pytest.mark.parametrize("bad", [True, 1.0, 2.0, 3.0])
@pytest.mark.parametrize(
    "node, key",
    [
        ({"type": "rank0", "diagram": [3], "lines": 1}, "lines"),
        ({"type": "rank0", "diagram": [2, 2], "lines": 2}, "lines"),
        ({"type": "rank-1", "diagram": [3, 1], "lines": 2, "colines": 3}, "lines"),
        ({"type": "rank-1", "diagram": [3, 1], "lines": 2, "colines": 3}, "colines"),
    ],
)
def test_parse_tree_rejects_a_line_count_that_is_not_an_integer(node, key, bad):
    # each node parses as written; a bool or float count, even one equal to it, does not
    objects.object_from_dict(dict(node, twist=0))
    text = json.dumps({"object": dict(node, **{key: bad}, twist=0)})
    with pytest.raises(ValueError, match=f"{key} must be an integer"):
        parse_tree(text)


@pytest.mark.parametrize(
    "cut",
    [["diagonal", 1], ['horizontal"', 1], ["horizontal", True], ["vertical", 1.0], ["vertical", "1"]],
)
def test_parse_tree_rejects_a_cut_that_is_not_a_direction_and_an_integer(cut):
    data = json.loads(serialize_tree(decompose(rank_one((1,)))))
    parse_tree(json.dumps(data))
    data["cut"] = cut
    with pytest.raises(ValueError, match="cut must be a direction and an integer index"):
        parse_tree(json.dumps(data))


def test_parse_tree_rejects_json_of_the_wrong_shape():
    text = serialize_tree(decompose(rank_one((1,))))
    assert_same_tree(parse_tree(text), decompose(rank_one((1,))))

    def edited(edit):
        data = json.loads(text)
        edit(data)
        return json.dumps(data)

    texts = [
        "[]",
        "3",
        '{"object": 3}',
        '{"cut": ["horizontal", 1]}',
        edited(lambda data: data.pop("sub")),
        edited(lambda data: data["object"].pop("diagram")),
        edited(lambda data: data.update(cut=5)),
        edited(lambda data: data.update(cut=["horizontal", 1, 2])),
        edited(lambda data: data.update(wall=[1])),
        edited(lambda data: data["wall"].pop("center")),
        edited(lambda data: data["wall"].update(center=None)),
        edited(lambda data: data["wall"].update(center=-1.5)),
        edited(lambda data: data["wall"].update(radius_sq="1/0")),
        edited(lambda data: data["wall"].update(radius_sq="1/00")),
        edited(lambda data: data.update(sub=[])),
        edited(lambda data: data["object"].update(type=["rank1"])),
        edited(lambda data: data["object"].update(diagram=[True])),
        edited(lambda data: data["object"].update(diagram=[2.0])),
        edited(lambda data: data["object"].update(diagram=3)),
        edited(lambda data: data["quotient"]["object"].update(diagram=[1.0])),
        edited(lambda data: data["object"].update(diagram=[3, 0, 2])),
        # serialize_tree never writes a cut on a trivial object, nor a type its object lacks
        edited(lambda data: data.update(object={"twist": 0, "type": "line_bundle"})),
        '{"object": {"diagram": [], "twist": 0, "type": "rank1"}}',
        '{"object": {"colines": 2, "diagram": [2, 2], "lines": 2, "twist": 0, "type": "rank-1"}}',
        '{"object": {"diagram": [1], "twist": 0, "type": "rank2"}}',
        # nor a leaf whose object is nontrivial
        '{"object": {"diagram": [2, 1], "twist": 0, "type": "rank1"}}',
        '{"object": {"diagram": [2, 2], "lines": 2, "twist": 0, "type": "rank0"}}',
        '{"object": {"colines": 2, "diagram": [2, 1], "lines": 2, "twist": 0, "type": "rank-1"}}',
    ]
    for bad in texts:
        with pytest.raises(ValueError):
            parse_tree(bad)


def test_big_tree_leaf_multiset():
    tree = decompose(rank_one(BIG))
    got = sorted(
        (type(obj).__name__, obj.twist) for obj in leaves(tree)
    )
    assert got == sorted(
        [("LineBundle", -8)]
        + [("LineBundle", -9)] * 4
        + [("LineBundle", -10)]
        + [("ShiftedLineBundle", -10)]
        + [("ShiftedLineBundle", -11)] * 4
    )


def test_chern_additivity_and_wall_agreement_exhaustive():
    for obj in all_test_objects(BOUND):
        for node, _, _ in walk(decompose(obj)):
            if node.is_leaf:
                continue
            seq = node.sequence
            total = chern_of(node.node)
            sub = chern_of(seq.sub)
            quot = chern_of(seq.quotient)
            assert chern(sub.r + quot.r, sub.c1 + quot.c1, sub.ch2 + quot.ch2) == total
            assert potential_wall(sub, total) == seq.wall
            assert potential_wall(total, quot) == seq.wall
            assert seq.wall.radius_sq > 0


def test_all_leaves_trivial_exhaustive():
    for obj in all_test_objects(BOUND):
        for leaf in leaves(decompose(obj)):
            assert is_trivial(leaf)


def test_root_wall_shape_for_horizontal_argmax():
    for d in enumerate_diagrams_upto(BOUND):
        best = scheme_slope(d)
        seq = destabilizing_sequence(rank_one(d))
        assert seq.wall.center == -best.value - Fraction(3, 2)
        if best.orientation == "horizontal":
            assert seq.wall.radius_sq == seq.wall.center ** 2 - 2 * degree(d)
            assert seq.cut == ("horizontal", best.index)
        else:
            assert seq.cut == ("vertical", best.index)


def test_candidate_centers_match_closed_forms():
    for d in enumerate_diagrams_upto(8):
        n = degree(d)
        for t in (0, -3):
            for (direction, index), wall in candidate_walls(rank_one(d, t)):
                if direction == "horizontal":
                    w = degree(slice_above(d, index))
                else:
                    w = degree(slice_above(transpose(d), index))
                expected = Fraction(-index, 2) + Fraction(w - n, index) + t
                assert wall.center == expected
        k, i = len(d), d[0]
        obj = rank_minus_one(d)
        if is_trivial(obj):
            continue
        for (direction, j), wall in candidate_walls(obj):
            if direction == "horizontal":
                w = degree(slice_above(d, j))
                expected = Fraction(-(j + k), 2) - Fraction(w, k - j)
            else:
                w = degree(slice_above(transpose(d), j))
                expected = Fraction(-(j + i), 2) - Fraction(w, i - j)
            assert wall.center == expected


def test_rank0_candidates_concentric_with_delta_formula():
    for d in enumerate_diagrams_upto(8):
        bottom, k = pure_bottom(d)
        obj = rank_zero(bottom)
        n = degree(bottom)
        mu_k = Fraction(n, k) + Fraction(k - 3, 2)
        for (direction, i), wall in candidate_walls(obj):
            assert wall.center == -Fraction(n, k) - Fraction(k, 2)
            w_prime = degree(slice_above(transpose(bottom), i))
            assert orthogonal_invariants(wall)[1] == hilbert_P(mu_k - i) - w_prime


def delta_of_wall(obj):
    """Delta_opt: the discriminant of the destabilizing wall, as ``interp`` reads it."""
    return orthogonal_invariants(destabilizing_sequence(obj).wall)[1]


def test_mu_delta_opt_pinned():
    assert mu_opt(rank_one(BIG)) == Fraction(43, 5)
    assert delta_of_wall(rank_one(BIG)) == Fraction(72, 25)
    assert mu_opt(rank_zero((9, 9, 7, 7, 6))) == Fraction(43, 5)
    assert delta_of_wall(rank_zero((9, 9, 7, 7, 6))) == Fraction(17, 25)
    assert mu_opt(rank_minus_one((7, 7, 7, 7, 6))) == 9
    with pytest.raises(ValueError):
        mu_opt(LineBundle(0))


def test_mu_delta_opt_closed_forms_exhaustive():
    for d in enumerate_diagrams_upto(8):
        one = rank_one(d)
        assert mu_opt(one) == scheme_slope(d).value
        assert delta_of_wall(one) == hilbert_P(mu_opt(one)) - degree(d)
        bottom, k = pure_bottom(d)
        zero = rank_zero(bottom)
        assert mu_opt(zero) == Fraction(degree(bottom), k) + Fraction(k - 3, 2)
        deltas = [
            orthogonal_invariants(wall)[1] for _, wall in candidate_walls(zero)
        ]
        assert delta_of_wall(zero) == max(deltas)
        minus = rank_minus_one(d)
        if not is_trivial(minus):
            slopes = [
                -wall.center - Fraction(3, 2) for _, wall in candidate_walls(minus)
            ]
            assert mu_opt(minus) == min(slopes)


def test_mu_opt_twist_covariance():
    # Twisting by O(m) moves the wall right by m, so the orthogonal slope
    # moves by -m while the orthogonal discriminant is unchanged.
    for d in ((1,), (3, 1), (4, 3, 3)):
        base = mu_opt(rank_one(d))
        base_delta = delta_of_wall(rank_one(d))
        for m in (-5, 2):
            assert mu_opt(rank_one(d, m)) == base - m
            assert delta_of_wall(rank_one(d, m)) == base_delta


def test_derived_dual_pinned():
    assert derived_dual(rank_minus_one((7, 7, 7, 7, 6))) == ((1,), 12)
    assert derived_dual(rank_minus_one((3, 1))) == ((2,), 5)
    with pytest.raises(ValueError):
        derived_dual(LineBundle(0))


def test_derived_dual_slope_identity_exhaustive():
    for d in enumerate_diagrams_upto(BOUND):
        obj = rank_minus_one(d)
        if is_trivial(obj):
            continue
        dual_diagram, twist = derived_dual(obj)
        assert twist == len(d) + d[0]
        assert mu_opt(obj) == -scheme_slope(dual_diagram).value + twist - 3


def test_termination_measure():
    for obj in all_test_objects(BOUND):
        for node, _, _ in walk(decompose(obj)):
            if node.is_leaf:
                continue
            seq = node.sequence
            n = _obj_degree(node.node)
            if isinstance(node.node, RankMinusOne):
                assert _obj_degree(seq.sub) < n
                assert _obj_degree(seq.quotient) < n
            elif isinstance(node.node, RankOne):
                assert _obj_degree(seq.sub) < n
                assert _obj_degree(seq.quotient) <= n
            elif isinstance(node.node, RankZero):
                assert _obj_degree(seq.sub) < n
                assert _obj_degree(seq.quotient) <= n


def _obj_degree(obj):
    if is_trivial(obj):
        return 0
    return degree(obj.diagram)


def test_purity_propagation():
    for obj in all_test_objects(BOUND):
        for node, _, _ in walk(decompose(obj)):
            if node.is_leaf:
                continue
            for child in (node.sequence.sub, node.sequence.quotient):
                if isinstance(child, RankZero):
                    assert child.k == len(child.diagram)
                    assert is_horizontally_pure(child.diagram)


def test_gieseker_two_criteria_agree():
    for d in enumerate_diagrams_upto(BOUND):
        k = len(d)
        pure = is_horizontally_pure(d)
        # each bottom slice's reduced polynomial x - mu_j: the full one over its leading j
        reduced = []
        for j in range(1, k + 1):
            leading, constant = rank0_hilbert_polynomial(d[:j])
            reduced.append(constant / leading)
        comparisons = all(c >= reduced[-1] for c in reduced[:-1])
        assert pure == comparisons


def test_serialization_round_trip_and_determinism():
    for d in ((1,), (3, 1), (4, 3, 3), BIG):
        tree = decompose(rank_one(d))
        text = serialize_tree(tree)
        again = serialize_tree(decompose(rank_one(d)))
        assert_same_text(again, text)
        assert_same_tree(parse_tree(text), tree)
        assert_same_text(serialize_tree(parse_tree(text)), text)
    pretty = serialize_tree(decompose(rank_one((1,))), pretty=True)
    assert_same_tree(parse_tree(pretty), decompose(rank_one((1,))))


def test_tree_asserts_name_the_first_difference():
    tree = decompose(rank_one((1,)))
    inner = tree.quotient  # preorder: root, its sub leaf, then this node
    moved = replace(inner.sequence, wall=SemicircleWall(Fraction(-2), Fraction(1, 4)))
    other = replace(tree, quotient=replace(inner, sequence=moved))
    assert_same_tree(tree, tree)
    with pytest.raises(pytest.fail.Exception, match=r"preorder node 2 \(quotient, depth 1\)"):
        assert_same_tree(other, tree)
    with pytest.raises(pytest.fail.Exception, match="at 2: 'd' != 'c'"):
        assert_same_text("abd", "abc")


def test_deep_trees_round_trip_and_compare_equal_under_the_recursion_limit():
    """Tree equality walks both trees, so it reaches as deep as decompose does."""
    tree = decompose(rank_one(tuple(range(450, 0, -1))))
    for pretty in (False, True):
        again = parse_tree(serialize_tree(tree, pretty))
        assert again is not tree
        assert_same_tree(again, tree)
        assert again == tree
        assert hash(again) == hash(tree) == hash((tree.node, tree.sequence))
    assert tree != decompose(rank_one(tuple(range(449, 0, -1))))
    assert tree != tree.sub
    assert tree != tree.node


def test_parse_tree_rejects_a_rank_minus_one_box_that_is_not_the_bounding_box():
    text = serialize_tree(decompose(rank_minus_one((7, 7, 7, 7, 6))))
    assert parse_tree(text).node == rank_minus_one((7, 7, 7, 7, 6))
    for lines, colines in ((6, 7), (5, 8), (4, 6)):
        data = json.loads(text)
        data["object"].update(lines=lines, colines=colines)
        with pytest.raises(ValueError, match=f"does not fill a {lines} x {colines} bounding"):
            parse_tree(json.dumps(data))


def test_an_empty_rank_minus_one_diagram_is_rejected_by_its_box():
    node = {"type": "rank-1", "diagram": [], "twist": 0}
    with pytest.raises(ValueError, match="box dimensions must be positive, got 0 x 0"):
        objects.object_from_dict(dict(node, lines=0, colines=0))
    for lines, colines in ((0, 1), (1, 0), (1, 1)):
        with pytest.raises(ValueError, match=re.escape(f"diagram () does not fill a {lines} x {colines}")):
            objects.object_from_dict(dict(node, lines=lines, colines=colines))


def test_parse_tree_rejects_a_rank_zero_whose_lines_are_not_its_row_count():
    text = serialize_tree(decompose(rank_zero((9, 9, 7, 7, 6))))
    assert parse_tree(text).node == rank_zero((9, 9, 7, 7, 6))
    for lines in (6, 4, 1):
        data = json.loads(text)
        data["object"].update(lines=lines)
        with pytest.raises(ValueError, match=f"does not lie on exactly {lines} lines"):
            parse_tree(json.dumps(data))


def test_dot_export_structure():
    """Nodes in preorder, and each internal node's edges once both its subtrees are written."""
    assert tree_to_dot(decompose(rank_one((1,)))) == (
        "digraph decomposition {\n"
        "  node [shape=box];\n"
        "  graph [ordering=out];\n"
        '  n0 [label="I(1)\\ncenter -3/2, radius_sq 1/4"];\n'
        '  n1 [label="O(-1)"];\n'
        '  n2 [label="I(1 in 1L)\\ncenter -3/2, radius_sq 1/4"];\n'
        '  n3 [label="O(-1)"];\n'
        '  n4 [label="O(-2)[1]"];\n'
        '  n2 -> n3 [label="sub"];\n'
        '  n2 -> n4 [label="quotient"];\n'
        '  n0 -> n1 [label="sub"];\n'
        '  n0 -> n2 [label="quotient"];\n'
        "}\n"
    )


def test_text_names():
    assert text_name(rank_one(BIG)) == "I(9,9,7,7,6,4,3,3)"
    assert text_name(rank_one((4, 3, 3), -5)) == "I(4,3,3)(-5)"
    assert text_name(rank_zero((9, 9, 7, 7, 6))) == "I(9,9,7,7,6 in 5L)"
    assert text_name(rank_minus_one((7, 7, 7, 7, 6))) == "F(7,7,7,7,6 in 5x7)"
    assert text_name(LineBundle(-8)) == "O(-8)"
    assert text_name(ShiftedLineBundle(-11)) == "O(-11)[1]"


def chain(depth):
    """A hand-built tree whose quotients nest ``depth`` internal nodes deep."""
    wall = SemicircleWall(Fraction(-3), Fraction(1))
    tree = DecompositionTree(LineBundle(0))
    for m in range(1, depth + 1):
        sub = DecompositionTree(LineBundle(-m))
        sequence = DestabilizingSequence(sub.node, tree.node, wall, ("horizontal", 1))
        tree = DecompositionTree(RankOne((1,), m), sequence, sub, tree)
    return tree


def test_tree_walks_are_not_bounded_by_the_recursion_limit():
    depth = sys.getrecursionlimit() + 100
    tree = chain(depth)
    assert sum(not node.is_leaf for node, _, _ in walk(tree)) == depth
    assert hash(tree) == hash((tree.node, tree.sequence))
    assert leaves(tree)[:2] == [LineBundle(-depth), LineBundle(1 - depth)]
    assert len(leaves(tree)) == depth + 1
    assert render_tree(tree).count("\n") == 4 * depth + 1
    dot = tree_to_dot(tree)
    assert dot.count("->") == 2 * depth
    assert dot.endswith('  n0 -> n1 [label="sub"];\n  n0 -> n2 [label="quotient"];\n}\n')


def test_parse_tree_says_a_text_nested_beyond_the_recursion_limit_is_too_deep():
    text = serialize_tree(chain(2 * sys.getrecursionlimit()))
    with pytest.raises(ValueError, match="nested too deep"):
        parse_tree(text)


def test_a_thousand_row_staircase_decomposes_at_the_default_recursion_limit():
    rows = tuple(range(1000, 0, -1))
    decompose.cache_clear()
    tree = decompose(rank_one(rows))
    info = decompose.cache_info()
    assert (info.currsize, info.hits) == (2002, 1999)
    preorder = list(walk(tree))
    assert len(preorder) == 4001
    assert max(depth for _, depth, _ in preorder) == 1001
    res = minimal_free_resolution(rows)
    tree_leaves = leaves(tree)
    line_bundles = [leaf.twist for leaf in tree_leaves if isinstance(leaf, LineBundle)]
    shifted = [leaf.twist for leaf in tree_leaves if isinstance(leaf, ShiftedLineBundle)]
    assert len(line_bundles) + len(shifted) == len(tree_leaves)
    assert sorted(line_bundles) == sorted(res.generator_twists)
    assert sorted(shifted) == sorted(res.syzygy_twists)
    assert render_tree(tree).count("\n") == len(preorder) + 4000
    assert serialize_tree(tree).startswith('{"cut":')
    assert tree_to_dot(tree).count("->") == 4000

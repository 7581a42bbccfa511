from __future__ import annotations

import sys
from fractions import Fraction

import pytest

from staircase.diagram import (
    degree,
    enumerate_diagrams_upto,
    row_count,
    col_count,
    slice_above,
    slice_below,
    transpose,
)
from staircase.ktheory import chern, hilbert_P, reduced_rank0_hilbert_polynomial
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
    delta_opt,
    derived_dual,
    destabilizing_sequence,
    internal_nodes,
    is_trivial,
    leaves,
    mu_opt,
    parse_tree,
    rank_minus_one,
    rank_one,
    rank_zero,
    render_tree,
    serialize_tree,
    text_name,
    tree_to_dot,
)
from staircase.slopes import is_horizontally_pure, scheme_slope
from staircase.walls import SemicircleWall, orthogonal_invariants, potential_wall

BOUND = 10

BIG = (9, 9, 7, 7, 6, 4, 3, 3)  # the degree-48 running example


def pure_bottom(d):
    """The bottom slice at the scheme-slope cut, in the argmax orientation."""
    best = scheme_slope(d)
    if best.orientation == "vertical":
        d = transpose(d)
    return slice_below(d, best.index), best.index


def all_test_objects(bound):
    """Every monomial object type over all diagrams of degree <= bound."""
    for d in enumerate_diagrams_upto(bound):
        yield rank_one(d)
        bottom, k = pure_bottom(d)
        yield rank_zero(bottom, k)
        obj = rank_minus_one(d, row_count(d), col_count(d))
        if not is_trivial(obj):
            yield obj


def test_factory_normalization():
    assert rank_one((), -8) == LineBundle(-8)
    assert isinstance(rank_one((1,)), RankOne)
    assert rank_minus_one((3, 3), 2, 3) == ShiftedLineBundle(-5)
    assert rank_minus_one((3, 3), 2, 3, twist=4) == ShiftedLineBundle(-1)
    assert isinstance(rank_minus_one((7, 7, 7, 7, 6), 5, 7), RankMinusOne)
    assert is_trivial(LineBundle(0))
    assert is_trivial(ShiftedLineBundle(-2))
    assert not is_trivial(rank_one((1,)))


def test_factory_validation():
    with pytest.raises(ValueError):
        rank_zero((2,), 2)  # two collinear points on a double line: impure
    with pytest.raises(ValueError):
        rank_zero((3, 3), 3)
    with pytest.raises(ValueError):
        rank_zero((1, 1, 1), 2)  # too many rows
    with pytest.raises(ValueError):
        rank_minus_one((3, 1), 3, 3)  # box taller than the diagram
    with pytest.raises(ValueError):
        rank_minus_one((3, 1), 2, 4)  # box wider than the diagram
    assert isinstance(rank_zero((1,), 3), RankZero)  # padding is allowed


def test_chern_of_pinned():
    assert tuple(chern_of(rank_one(BIG))) == (1, 0, -48)
    assert tuple(chern_of(LineBundle(-8))) == (1, -8, 32)
    assert tuple(chern_of(ShiftedLineBundle(-2))) == (-1, 2, -2)
    assert tuple(chern_of(rank_one((4, 3, 3), -5))) == (1, -5, Fraction(5, 2))
    assert tuple(chern_of(rank_zero((9, 9, 7, 7, 6), 5))) == (0, 5, Fraction(-101, 2))
    assert tuple(chern_of(rank_minus_one((7, 7, 7, 7, 6), 5, 7))) == (-1, 12, -71)


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
    obj = rank_zero((9, 9, 7, 7, 6), 5)
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
    obj = rank_minus_one((7, 7, 7, 7, 6), 5, 7)
    candidates = dict(candidate_walls(obj))
    assert set(candidates) == {("horizontal", 4), ("vertical", 6)}
    assert candidates[("horizontal", 4)].center == Fraction(-21, 2)
    assert candidates[("vertical", 6)].center == Fraction(-21, 2)
    assert destabilizing_sequence(obj).cut == ("horizontal", 4)


def test_candidate_walls_trivial_rejected():
    with pytest.raises(ValueError):
        candidate_walls(LineBundle(0))
    with pytest.raises(ValueError):
        destabilizing_sequence(ShiftedLineBundle(-2))


def test_destabilizing_sequence_big_chain():
    root = destabilizing_sequence(rank_one(BIG))
    assert root.cut == ("horizontal", 5)
    assert root.sub == RankOne((4, 3, 3), -5)
    assert root.quotient == RankZero((9, 9, 7, 7, 6), 5, 0)
    assert root.wall == SemicircleWall(Fraction(-101, 10), Fraction(601, 100))

    step2 = destabilizing_sequence(root.quotient)
    assert step2.cut == ("vertical", 7)
    assert step2.sub == RankOne((2, 2), -7)
    assert step2.quotient == RankMinusOne((7, 7, 7, 7, 6), 5, 7, 0)
    assert step2.wall == SemicircleWall(Fraction(-101, 10), Fraction(161, 100))

    step3 = destabilizing_sequence(step2.quotient)
    assert step3.cut == ("horizontal", 4)
    assert step3.sub == RankZero((6,), 1, -4)
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
                assert seq.quotient == RankZero((a,) * a, a, 0)
            else:
                assert seq.cut == ("vertical", a)
                assert seq.quotient == RankZero((b,) * a, a, 0)
            assert seq.wall.center == Fraction(-a, 2) - b
            assert seq.wall.radius_sq == Fraction((a - 2 * b) ** 2, 4)


def test_single_point_tree_golden():
    tree = decompose(rank_one((1,)))
    assert tree.sequence.cut == ("horizontal", 1)
    assert tree.sequence.wall == SemicircleWall(Fraction(-3, 2), Fraction(1, 4))
    assert tree.sub.node == LineBundle(-1)
    assert tree.quotient.node == RankZero((1,), 1, 0)
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
    """O_{kL}-type objects split off the ambient line bundle (degenerate cut)."""
    for k in (1, 2, 3):
        seq = destabilizing_sequence(rank_zero((), k, 0))
        assert seq.cut == ("vertical", 0)
        assert seq.sub == LineBundle(0)
        assert seq.quotient == ShiftedLineBundle(-k)
        assert seq.wall.center == Fraction(-k, 2)
        assert seq.wall.radius_sq == Fraction(k * k, 4)


def test_padded_rank0_decomposes_through_its_ideal():
    obj = rank_zero((1,), 3, 0)
    seq = destabilizing_sequence(obj)
    assert seq.cut == ("vertical", 0)
    assert seq.sub == RankOne((1,), 0)
    assert seq.quotient == ShiftedLineBundle(-3)
    tree = decompose(obj)
    assert [l for l in leaves(tree)] == [
        LineBundle(-1),
        LineBundle(-1),
        ShiftedLineBundle(-2),
        ShiftedLineBundle(-3),
    ]


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
        for node in internal_nodes(decompose(obj)):
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
        k, i = row_count(d), col_count(d)
        obj = rank_minus_one(d, k, i)
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
        obj = rank_zero(bottom, k)
        n = degree(bottom)
        mu_k = Fraction(n, k) + Fraction(k - 3, 2)
        for (direction, i), wall in candidate_walls(obj):
            assert wall.center == -Fraction(n, k) - Fraction(k, 2)
            w_prime = degree(slice_above(transpose(bottom), i))
            assert orthogonal_invariants(wall)[1] == hilbert_P(mu_k - i) - w_prime


def test_mu_delta_opt_pinned():
    assert mu_opt(rank_one(BIG)) == Fraction(43, 5)
    assert delta_opt(rank_one(BIG)) == Fraction(72, 25)
    assert mu_opt(rank_zero((9, 9, 7, 7, 6), 5)) == Fraction(43, 5)
    assert delta_opt(rank_zero((9, 9, 7, 7, 6), 5)) == Fraction(17, 25)
    assert mu_opt(rank_minus_one((7, 7, 7, 7, 6), 5, 7)) == 9
    with pytest.raises(ValueError):
        mu_opt(LineBundle(0))


def test_mu_delta_opt_closed_forms_exhaustive():
    for d in enumerate_diagrams_upto(8):
        one = rank_one(d)
        assert mu_opt(one) == scheme_slope(d).value
        assert delta_opt(one) == hilbert_P(mu_opt(one)) - degree(d)
        bottom, k = pure_bottom(d)
        zero = rank_zero(bottom, k)
        assert mu_opt(zero) == Fraction(degree(bottom), k) + Fraction(k - 3, 2)
        deltas = [
            orthogonal_invariants(wall)[1] for _, wall in candidate_walls(zero)
        ]
        assert delta_opt(zero) == max(deltas)
        minus = rank_minus_one(d, row_count(d), col_count(d))
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
        base_delta = delta_opt(rank_one(d))
        for m in (-5, 2):
            assert mu_opt(rank_one(d, m)) == base - m
            assert delta_opt(rank_one(d, m)) == base_delta


def test_derived_dual_pinned():
    assert derived_dual(rank_minus_one((7, 7, 7, 7, 6), 5, 7)) == ((1,), 12, -1)
    assert derived_dual(rank_minus_one((3, 1), 2, 3)) == ((2,), 5, -1)
    with pytest.raises(ValueError):
        derived_dual(LineBundle(0))


def test_derived_dual_slope_identity_exhaustive():
    for d in enumerate_diagrams_upto(BOUND):
        obj = rank_minus_one(d, row_count(d), col_count(d))
        if is_trivial(obj):
            continue
        dual_diagram, twist, shift = derived_dual(obj)
        assert shift == -1
        assert twist == row_count(d) + col_count(d)
        assert mu_opt(obj) == -scheme_slope(dual_diagram).value + twist - 3


def test_termination_measure():
    for obj in all_test_objects(BOUND):
        for node in internal_nodes(decompose(obj)):
            seq = node.sequence
            n = _obj_degree(node.node)
            if isinstance(node.node, RankMinusOne):
                assert _obj_degree(seq.sub) < n
                assert _obj_degree(seq.quotient) < n
            elif isinstance(node.node, RankOne):
                assert _obj_degree(seq.sub) < n
                assert _obj_degree(seq.quotient) <= n
            elif isinstance(node.node, RankZero) and row_count(node.node.diagram) == node.node.k:
                assert _obj_degree(seq.sub) < n
                assert _obj_degree(seq.quotient) <= n


def _obj_degree(obj):
    if is_trivial(obj):
        return 0
    return degree(obj.diagram)


def test_purity_propagation():
    for obj in all_test_objects(BOUND):
        for node in internal_nodes(decompose(obj)):
            for child in (node.sequence.sub, node.sequence.quotient):
                if isinstance(child, RankZero):
                    assert is_horizontally_pure(child.diagram, child.k)


def test_gieseker_two_criteria_agree():
    for d in enumerate_diagrams_upto(BOUND):
        k = row_count(d)
        pure = is_horizontally_pure(d)
        _, const_k = reduced_rank0_hilbert_polynomial(d, k)
        comparisons = all(
            reduced_rank0_hilbert_polynomial(slice_below(d, j), j)[1] >= const_k
            for j in range(1, k)
        )
        assert pure == comparisons


def test_serialization_round_trip_and_determinism():
    for d in ((1,), (3, 1), (4, 3, 3), BIG):
        tree = decompose(rank_one(d))
        text = serialize_tree(tree)
        again = serialize_tree(decompose(rank_one(d)))
        assert text == again
        assert parse_tree(text) == tree
        assert serialize_tree(parse_tree(text)) == text
    pretty = serialize_tree(decompose(rank_one((1,))), pretty=True)
    assert parse_tree(pretty) == decompose(rank_one((1,)))


def test_dot_export_structure():
    dot = tree_to_dot(decompose(rank_one((1,))))
    assert dot.startswith("digraph")
    assert dot.count('label="sub"') == 2
    assert dot.count('label="quotient"') == 2
    assert "I(1)" in dot
    assert "O(-2)[1]" in dot


def test_text_names():
    assert text_name(rank_one(BIG)) == "I(9,9,7,7,6,4,3,3)"
    assert text_name(rank_one((4, 3, 3), -5)) == "I(4,3,3)(-5)"
    assert text_name(rank_zero((9, 9, 7, 7, 6), 5)) == "I(9,9,7,7,6 in 5L)"
    assert text_name(rank_minus_one((7, 7, 7, 7, 6), 5, 7)) == "F(7,7,7,7,6 in 5x7)"
    assert text_name(LineBundle(-8)) == "O(-8)"
    assert text_name(ShiftedLineBundle(-11)) == "O(-11)[1]"


def test_tree_walks_are_not_bounded_by_the_recursion_limit():
    depth = sys.getrecursionlimit() + 100
    wall = SemicircleWall(Fraction(-3), Fraction(1))
    tree = DecompositionTree(LineBundle(0))
    for m in range(1, depth + 1):
        sub = DecompositionTree(LineBundle(-m))
        sequence = DestabilizingSequence(sub.node, tree.node, wall, ("horizontal", 1))
        tree = DecompositionTree(RankOne((1,), m), sequence, sub, tree)
    assert len(internal_nodes(tree)) == depth
    assert leaves(tree)[:2] == [LineBundle(-depth), LineBundle(1 - depth)]
    assert len(leaves(tree)) == depth + 1
    assert render_tree(tree).count("\n") == 4 * depth + 1
    dot = tree_to_dot(tree)
    assert dot.count("->") == 2 * depth
    assert dot.endswith('  n0 -> n1 [label="sub"];\n  n0 -> n2 [label="quotient"];\n}\n')

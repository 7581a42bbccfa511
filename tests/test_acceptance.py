"""Acceptance gate: one test per criterion, exact rational equality throughout.

Each criterion below is numbered; ``pytest -v`` therefore prints one
pass/fail line per criterion.  Criterion 2 is split: the reproduction of the
worked example is pinned in full, except for one clause of the reference
description that conflicts with the largest-wall selection rule the rest of
the suite verifies; that clause is kept as a strict expected failure next to
a passing test of the rule-derived tree (see the module comment on it).
"""

from __future__ import annotations

from fractions import Fraction

import pytest

from staircase.diagram import (
    degree,
    enumerate_diagrams_upto,
    from_generators,
    parse_ideal,
    transpose,
)
from staircase.ktheory import hilbert_P, rank0_hilbert_polynomial
from staircase.objects import (
    LineBundle,
    RankMinusOne,
    RankOne,
    RankZero,
    candidate_walls,
    chern_of,
    decompose,
    derived_dual,
    destabilizing_sequence,
    mu_opt,
    parse_tree,
    rank_minus_one,
    rank_one,
    rank_zero,
    serialize_tree,
)
from staircase.oracle import run_check
from staircase.resolution import minimal_free_resolution
from staircase.slopes import scheme_slope, slope_table
from staircase.walls import orthogonal_invariants, potential_wall

CHECKER_IDEAL = "x^7,x^6y,x^2y^3,xy^4,y^5"
BIG_IDEAL = "x^9,x^7y^2,x^6y^4,x^4y^5,x^3y^6,y^8"
BIG = parse_ideal(BIG_IDEAL)


def independent_checker_slope(diagram, k):
    """Recount mu_k by placing h_j + j - 1 checkers on each of k rows."""
    checkers = sum(diagram[j - 1] + j - 1 for j in range(1, k + 1))
    return Fraction(checkers, k) - 1


def test_criterion_01_slope_table():
    diagram = parse_ideal(CHECKER_IDEAL)
    assert diagram == (7, 6, 6, 2, 1)
    best = scheme_slope(diagram)
    assert best.value == Fraction(19, 3)
    assert best.orientation == "horizontal"
    assert best.index == 3
    horizontal, vertical = slope_table(diagram)
    assert horizontal == tuple(
        independent_checker_slope(diagram, k) for k in range(1, 6)
    )
    assert vertical == tuple(
        independent_checker_slope(transpose(diagram), i) for i in range(1, 8)
    )


def test_criterion_02_big_example_tree_prefix():
    assert BIG == (9, 9, 7, 7, 6, 4, 3, 3)
    assert mu_opt(rank_one(BIG)) == Fraction(43, 5)
    root = destabilizing_sequence(rank_one(BIG))
    assert root.sub == RankOne(parse_ideal("x^4,x^3y,y^3"), -5)
    assert root.sub.diagram == (4, 3, 3)
    assert root.quotient == RankZero(parse_ideal("x^9,x^7y^2,x^6y^4,y^5"), 0)
    assert root.quotient.diagram == (9, 9, 7, 7, 6)
    step2 = destabilizing_sequence(root.quotient)
    assert step2.sub == RankOne(parse_ideal("x^2,y^2"), -7)
    assert step2.sub.diagram == (2, 2)
    assert step2.quotient == RankMinusOne((7, 7, 7, 7, 6), 0)


# The reference description of the worked example says the first
# destabilizing sub below I_{(4,3,3)}(-5) is I_p(-8).  The largest-wall rule
# disagrees: for (4,3,3) the horizontal k=3 wall (center -29/6) strictly
# exceeds every other candidate (the best vertical is -9/2), giving sub
# O(-8) and pushing I_p(-8) one level deeper.  Both readings produce the
# same leaf multiset.  The clause is pinned here as a strict xfail; the
# rule-derived tree is pinned green in the test after it.
@pytest.mark.xfail(
    strict=True,
    reason="pinned first sub I_p(-8) contradicts the largest-wall rule,"
    " which selects O(-8) first and reaches I_p(-8) one level deeper",
)
def test_criterion_02_left_branch_literal_first_sub():
    left = destabilizing_sequence(rank_one((4, 3, 3), -5))
    assert left.sub == RankOne((1,), -8)


def test_criterion_02_left_branch_rule_derived():
    left = destabilizing_sequence(rank_one((4, 3, 3), -5))
    assert left.cut == ("horizontal", 3)
    # The -5 twist shifts every candidate center by -5; untwisted, the
    # horizontal k=3 wall sits at -29/6 and the best vertical at -9/2.
    assert left.wall.center == Fraction(-29, 6) - 5
    competing = dict(candidate_walls(rank_one((4, 3, 3), -5)))
    assert min(wall.center for wall in competing.values()) == Fraction(-29, 6) - 5
    assert competing[("vertical", 3)].center == Fraction(-9, 2) - 5
    assert left.sub == LineBundle(-8)
    inner = destabilizing_sequence(left.quotient)
    assert inner.sub == RankOne((1,), -8)  # I_p(-8), one level down
    tree = decompose(rank_one((4, 3, 3), -5))
    leaf_names = sorted(
        (type(leaf).__name__, leaf.twist) for leaf in _leaves(tree)
    )
    assert leaf_names == sorted(
        [
            ("LineBundle", -8),
            ("LineBundle", -9),
            ("LineBundle", -9),
            ("ShiftedLineBundle", -10),
            ("ShiftedLineBundle", -11),
        ]
    )


def _leaves(tree):
    if tree.is_leaf:
        return [tree.node]
    return _leaves(tree.sub) + _leaves(tree.quotient)


def test_criterion_03_root_wall_formula():
    seq = destabilizing_sequence(rank_one(BIG))
    center = seq.wall.center
    assert center == Fraction(-101, 10)
    assert seq.wall.radius_sq == Fraction(601, 100)
    assert seq.wall.radius_sq == center**2 - 2 * 48
    mu, delta = orthogonal_invariants(seq.wall)
    assert (mu, delta) == (Fraction(43, 5), Fraction(72, 25))
    assert delta == hilbert_P(Fraction(43, 5)) - 48


def test_criterion_04_complete_intersection_sweep():
    report = run_check("ci", 25)
    assert report.instances == 325
    assert report.failures == ()


def test_criterion_05_nesting_suite():
    report = run_check("nesting", 18)
    assert report.failures == ()
    assert report.instances == 1596


def test_criterion_06_purity_suite():
    assert run_check("purity", 18).failures == ()
    assert run_check("gieseker", 18).failures == ()


def test_criterion_07_duality_suite():
    report = run_check("duality", 15)
    assert report.failures == ()
    obj = rank_minus_one((7, 7, 7, 7, 6))
    dual_diagram, twist = derived_dual(obj)
    assert (dual_diagram, twist) == ((1,), 12)
    assert mu_opt(obj) == -mu_opt(rank_one((1,))) + 7 + 5 - 3 == 9


def test_criterion_08_ktheory_consistency():
    assert run_check("chern", 18).failures == ()


def test_criterion_09_resolution_check():
    res = minimal_free_resolution(from_generators([(5, 0), (4, 2), (3, 3), (0, 5)]))
    assert sorted(res.generator_twists) == [-6, -6, -5, -5]
    assert sorted(res.syzygy_twists) == [-8, -7, -7]
    # The degree <= 18 Chern-sum identity is part of the chern check above;
    # re-assert it directly on a sweep of its own here.
    for diagram in enumerate_diagrams_upto(18):
        resolution = minimal_free_resolution(diagram)
        total_rank = len(resolution.generator_twists) - len(resolution.syzygy_twists)
        total_c1 = sum(resolution.generator_twists) - sum(resolution.syzygy_twists)
        total_ch2 = sum(
            Fraction(t * t, 2) for t in resolution.generator_twists
        ) - sum(Fraction(t * t, 2) for t in resolution.syzygy_twists)
        assert (total_rank, total_c1, total_ch2) == (1, 0, -degree(diagram))


def test_criterion_10_misprint_regressions():
    node = rank_zero((9, 9, 7, 7, 6))
    wall = destabilizing_sequence(node).wall
    assert wall == potential_wall(chern_of(rank_one((2, 2), -7)), chern_of(node))
    assert wall.radius_sq == Fraction(161, 100), (
        "the two-class formula gives 161/100; 561/100 comes from dropping"
        " the cross term and is not a wall radius"
    )
    assert wall.radius_sq != Fraction(561, 100)
    poly = rank0_hilbert_polynomial((9, 9, 7, 7, 6))
    assert poly == (5, -43), (
        "chi(I_{Z in 5L}(m)) = 5m - (n + (k^2 - 3k)/2) = 5m - 43 at n = 38;"
        " 5m - 49 would need the constant (k^2 - 3)/2, which fails additivity"
    )
    assert poly != (5, -49)


def test_criterion_11_tie_determinism():
    obj = rank_minus_one((7, 7, 7, 7, 6))
    candidates = dict(candidate_walls(obj))
    tied = {cut for cut, wall in candidates.items() if wall.center == Fraction(-21, 2)}
    assert tied == {("horizontal", 4), ("vertical", 6)}
    assert destabilizing_sequence(obj).cut == ("horizontal", 4)
    first = serialize_tree(decompose(rank_one(BIG)))
    second = serialize_tree(parse_tree(first))
    assert first == second  # byte-identical across independent constructions
    decompose.cache_clear()
    cold = run_check("nesting", 10)
    warm = run_check("nesting", 10)
    assert (cold.instances, cold.failures) == (warm.instances, warm.failures)

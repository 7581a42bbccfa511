"""Property tests on diagrams far beyond the exhaustive degree bound.

Skewed partitions of 50-200 rows and columns, twists in -50..50.
"""

from __future__ import annotations

from dataclasses import replace
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from staircase import oracle
from staircase.diagram import degree, transpose
from staircase.ktheory import chern
from staircase.objects import (
    RankOne,
    RankZero,
    candidate_walls,
    chern_of,
    decompose,
    destabilizing_sequence,
    leaves,
    rank_one,
)
from staircase.slopes import scheme_slope


@st.composite
def skewed_diagrams(draw):
    """Row lengths u^p * cols for uniform u: p > 1 crowds the short rows, p < 1 the long."""
    rows = draw(st.integers(50, 200))
    cols = draw(st.integers(50, 200))
    power = draw(st.sampled_from((Fraction(1, 4), Fraction(1), Fraction(4))))
    scale = 1000
    draws = draw(st.lists(st.integers(0, scale), min_size=rows - 1, max_size=rows - 1))
    lengths = sorted(
        (1 + int((cols - 1) * (Fraction(u, scale) ** power)) for u in draws),
        reverse=True,
    )
    return (cols, *lengths)


TWISTS = st.integers(-50, 50)


def first_minimum(obj):
    if isinstance(obj, RankOne):
        key = lambda wall: wall.center
    elif isinstance(obj, RankZero):
        key = lambda wall: -wall.radius_sq
    else:
        key = lambda wall: -wall.center
    # candidate_walls lists the cuts in preference order; min keeps the first
    return min(candidate_walls(obj), key=lambda item: key(item[1]))


@settings(max_examples=15, deadline=None)
@given(skewed_diagrams(), TWISTS)
def test_integer_selection_is_the_candidate_wall_minimum(diagram, t):
    for root in oracle._tree_roots(diagram):
        obj = replace(root, twist=t)
        seq = destabilizing_sequence(obj)
        assert (seq.cut, seq.wall) == first_minimum(obj)


@settings(max_examples=25, deadline=None)
@given(skewed_diagrams())
def test_transpose_is_the_conjugate_partition(diagram):
    columns = transpose(diagram)
    assert columns == tuple(
        sum(1 for h in diagram if h >= c) for c in range(1, diagram[0] + 1)
    )
    assert transpose(columns) == diagram


@settings(max_examples=8, deadline=None)
@given(skewed_diagrams())
def test_leaf_characters_sum_to_the_ideal(diagram):
    total = [0, 0, 0]
    for leaf in leaves(decompose(rank_one(diagram))):
        total = [a + b for a, b in zip(total, chern_of(leaf))]
    assert chern(*total) == chern(1, 0, -degree(diagram))


@settings(max_examples=15, deadline=None)
@given(skewed_diagrams())
def test_root_wall_is_fixed_by_the_scheme_slope(diagram):
    seq = destabilizing_sequence(rank_one(diagram))
    best = scheme_slope(diagram)
    center = -best.value - Fraction(3, 2)
    assert seq.cut == (best.orientation, best.index)
    assert (seq.wall.center, seq.wall.radius_sq) == (center, center * center - 2 * degree(diagram))

from __future__ import annotations

from fractions import Fraction

import pytest

from staircase.diagram import degree, enumerate_diagrams_upto, from_generators, transpose
from staircase.ktheory import chern
from staircase.objects import chern_of, rank_one
from staircase.resolution import (
    BettiTable,
    betti_table,
    minimal_free_resolution,
    render_betti,
    render_matrix,
    render_resolution,
)


def test_pinned_quintic_example():
    res = minimal_free_resolution(from_generators([(5, 0), (4, 2), (3, 3), (0, 5)]))
    assert res.generator_twists == (-5, -6, -6, -5)
    assert res.syzygy_twists == (-7, -7, -8)


def test_pinned_point_koszul():
    res = minimal_free_resolution(from_generators([(1, 0), (0, 1)]))
    assert res.generator_twists == (-1, -1)
    assert res.syzygy_twists == (-2,)
    assert render_matrix(res) == "[  y ]\n[ -x ]"


def test_pinned_degree48_example():
    res = minimal_free_resolution(
        from_generators([(9, 0), (7, 2), (6, 4), (4, 5), (3, 6), (0, 8)])
    )
    assert res.generator_twists == (-9, -9, -10, -9, -9, -8)
    assert res.syzygy_twists == (-11, -11, -11, -10, -11)


def test_unit_ideal_resolution():
    res = minimal_free_resolution(from_generators([(0, 0)]))
    assert res.generator_twists == (0,)
    assert res.syzygy_twists == ()


def test_invalid_diagrams_rejected():
    with pytest.raises(ValueError):
        minimal_free_resolution((1, 2))  # rows must not increase
    with pytest.raises(ValueError):
        minimal_free_resolution((2, -1))


def test_chern_sum_identity_exhaustive():
    for d in enumerate_diagrams_upto(14):
        res = minimal_free_resolution(d)
        total = [Fraction(0)] * 3
        for twist in res.generator_twists:
            ch = chern(1, twist, Fraction(twist * twist, 2))
            total = [x + y for x, y in zip(total, ch)]
        for twist in res.syzygy_twists:
            ch = chern(1, twist, Fraction(twist * twist, 2))
            total = [x - y for x, y in zip(total, ch)]
        assert tuple(total) == tuple(chern_of(rank_one(d)))
        assert total[2] == -degree(d)


def test_twist_multisets_transpose_invariant():
    for d in enumerate_diagrams_upto(12):
        res = minimal_free_resolution(d)
        flipped = minimal_free_resolution(transpose(d))
        assert sorted(res.generator_twists) == sorted(flipped.generator_twists)
        assert sorted(res.syzygy_twists) == sorted(flipped.syzygy_twists)


def test_matrix_shape_and_degrees():
    for d in enumerate_diagrams_upto(12):
        res = minimal_free_resolution(d)
        g, s = res.generator_twists, res.syzygy_twists
        assert len(s) == len(g) - 1
        for i in range(len(s)):
            assert g[i] - s[i] > 0 and g[i + 1] - s[i] > 0  # minimality: no unit entries


def test_betti_tables():
    koszul = minimal_free_resolution(from_generators([(1, 0), (0, 1)]))
    assert betti_table(koszul) == BettiTable({1: 2}, {2: 1})
    for a in range(1, 5):
        for b in range(a, 5):
            res = minimal_free_resolution(from_generators([(a, 0), (0, b)]))
            beta0 = {a: 1, b: 1} if a != b else {a: 2}
            assert betti_table(res) == BettiTable(beta0, {a + b: 1})
    res = minimal_free_resolution(from_generators([(5, 0), (4, 2), (3, 3), (0, 5)]))
    assert betti_table(res) == BettiTable({5: 2, 6: 2}, {7: 2, 8: 1})


def test_render_resolution():
    res = minimal_free_resolution(from_generators([(5, 0), (4, 2), (3, 3), (0, 5)]))
    assert (
        render_resolution(res)
        == "0 -> O(-7)^2 (+) O(-8) -> O(-5)^2 (+) O(-6)^2 -> I_Z -> 0"
    )
    koszul = minimal_free_resolution(from_generators([(1, 0), (0, 1)]))
    assert render_resolution(koszul) == "0 -> O(-2) -> O(-1)^2 -> I_Z -> 0"
    unit = minimal_free_resolution(from_generators([(0, 0)]))
    assert render_resolution(unit) == "0 -> 0 -> O(0) -> I_Z -> 0"


def test_render_matrix():
    res = minimal_free_resolution(from_generators([(5, 0), (4, 2), (3, 3), (0, 5)]))
    assert render_matrix(res) == "\n".join(
        [
            "[ y^2   0     0 ]",
            "[  -x   y     0 ]",
            "[   0  -x   y^2 ]",
            "[   0   0  -x^3 ]",
        ]
    )


def test_render_betti():
    res = minimal_free_resolution(from_generators([(5, 0), (4, 2), (3, 3), (0, 5)]))
    table = betti_table(res)
    assert render_betti(table) == "\n".join(
        [
            "deg  5  6  7  8",
            " b0  2  2  0  0",
            " b1  0  0  2  1",
        ]
    )

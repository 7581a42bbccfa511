from __future__ import annotations

from fractions import Fraction

import pytest

from staircase.diagram import (
    degree,
    enumerate_diagrams_upto,
    row_count,
    col_count,
    slice_above,
    transpose,
)
from staircase.slopes import (
    horizontal_slope,
    in_stable_base_locus,
    is_horizontally_pure,
    min_interpolating_slope,
    padded_horizontal_slope,
    scheme_slope,
    slope_table,
    vertical_slope,
)

BOUND = 12


def checker_slope(diagram, k) -> Fraction:
    """Recompute mu_k by literally placing h_j + j - 1 checkers per row."""
    checkers = 0
    for j in range(1, k + 1):
        row = diagram[j - 1] if j <= len(diagram) else 0
        for _ in range(row):
            checkers += 1
        for _ in range(j - 1):
            checkers += 1
    return Fraction(checkers, k) - 1


def test_pinned_slope_values():
    d = (7, 6, 6, 2, 1)
    assert vertical_slope(d, 1) == 4
    assert vertical_slope(d, 6) == 5
    assert horizontal_slope(d, 3) == Fraction(19, 3)
    assert scheme_slope(d) == (Fraction(19, 3), "horizontal", 3)
    assert min_interpolating_slope(d) == Fraction(19, 3)
    assert in_stable_base_locus(d, 6)
    assert not in_stable_base_locus(d, Fraction(19, 3))


def test_out_of_range_indices_rejected():
    with pytest.raises(ValueError):
        horizontal_slope((3, 1), 3)
    with pytest.raises(ValueError):
        horizontal_slope((3, 1), 0)
    with pytest.raises(ValueError):
        vertical_slope((3, 1), 4)
    with pytest.raises(ValueError):
        scheme_slope(())


def test_both_slope_formulas_agree_with_checker_recount():
    for d in enumerate_diagrams_upto(BOUND):
        for k in range(1, row_count(d) + 3):
            assert padded_horizontal_slope(d, k) == checker_slope(d, k)
        horizontal, vertical = slope_table(d)
        t = transpose(d)
        for k, value in enumerate(horizontal, start=1):
            assert value == checker_slope(d, k)
        for i, value in enumerate(vertical, start=1):
            assert value == checker_slope(t, i)


def test_scheme_slope_is_the_maximum_with_horizontal_preference():
    for d in enumerate_diagrams_upto(BOUND):
        best = scheme_slope(d)
        horizontal, vertical = slope_table(d)
        assert best.value == max(horizontal + vertical)
        if best.orientation == "horizontal":
            assert horizontal[best.index - 1] == best.value
            assert all(v < best.value for v in horizontal[: best.index - 1])
        else:
            assert vertical[best.index - 1] == best.value
            assert all(v < best.value for v in horizontal)
            assert all(v < best.value for v in vertical[: best.index - 1])
        assert scheme_slope(transpose(d)).value == best.value


def test_slices_are_horizontally_pure_at_their_cut():
    """The bottom slice at the maximizing horizontal cut is pure."""
    for d in enumerate_diagrams_upto(BOUND):
        best = scheme_slope(d)
        if best.orientation != "horizontal":
            continue
        k = best.index
        bottom = d[:k]
        assert is_horizontally_pure(bottom)
        assert horizontal_slope(bottom, k) == best.value


def test_purity_with_padding():
    assert is_horizontally_pure((), 4)
    assert is_horizontally_pure((1,), 1)
    # a single box on three lines: padded slopes 0, 0, 1/3 stay below the top
    assert is_horizontally_pure((1,), 3)
    assert not is_horizontally_pure((3, 3), 3)
    with pytest.raises(ValueError):
        is_horizontally_pure((3, 3), 1)


def test_purity_matches_padded_slope_definition():
    for d in enumerate_diagrams_upto(BOUND):
        for k in range(row_count(d), row_count(d) + 3):
            top = padded_horizontal_slope(d, k) if k else None
            expected = all(padded_horizontal_slope(d, j) <= top for j in range(1, k))
            assert is_horizontally_pure(d, k) == expected
        assert is_horizontally_pure(d) == is_horizontally_pure(d, row_count(d))


def test_checker_identity_relating_slices():
    """(i+k) mu_{i+k}(Z) = k mu_k(Z) + i mu_i(W_k) + i k for i + k <= r."""
    for d in enumerate_diagrams_upto(BOUND):
        r = row_count(d)
        for k in range(1, r):
            above = slice_above(d, k)
            for i in range(1, r - k + 1):
                left = (i + k) * horizontal_slope(d, i + k)
                right = (
                    k * horizontal_slope(d, k)
                    + i * horizontal_slope(above, i)
                    + i * k
                )
                assert left == right


def test_vertical_slopes_shift_under_horizontal_slicing():
    """mu'_i(slice_above(D, k)) = mu'_i(D) - k wherever both sides exist."""
    for d in enumerate_diagrams_upto(BOUND):
        for k in range(1, row_count(d)):
            above = slice_above(d, k)
            for i in range(1, col_count(above) + 1):
                assert vertical_slope(above, i) == vertical_slope(d, i) - k


def test_closed_form_matches_definition():
    for d in enumerate_diagrams_upto(10):
        n = degree(d)
        for k in range(1, row_count(d) + 1):
            w = degree(slice_above(d, k))
            assert horizontal_slope(d, k) == Fraction(n - w, k) + Fraction(k - 3, 2)

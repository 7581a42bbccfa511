from __future__ import annotations

from fractions import Fraction

import pytest

from staircase.diagram import (
    degree,
    enumerate_diagrams_upto,
    row_count,
    col_count,
    transpose,
)
from staircase.slopes import (
    in_stable_base_locus,
    is_horizontally_pure,
    scheme_slope,
    slope_table,
)
from slice_reference import slice_above

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
    horizontal, vertical = slope_table(d)
    assert vertical[0] == 4
    assert vertical[5] == 5
    assert horizontal[2] == Fraction(19, 3)
    assert scheme_slope(d) == (Fraction(19, 3), "horizontal", 3)
    assert scheme_slope(d).value == Fraction(19, 3)
    assert in_stable_base_locus(d, 6)
    assert not in_stable_base_locus(d, Fraction(19, 3))


def test_out_of_range_indices_rejected():
    # the table holds mu_k for 1 <= k <= r and mu'_i for 1 <= i <= c only
    horizontal, vertical = slope_table((3, 1))
    assert (len(horizontal), len(vertical)) == (2, 3)
    assert slope_table(()) == ((), ())
    with pytest.raises(ValueError):
        scheme_slope(())


def test_both_slope_formulas_agree_with_checker_recount():
    for d in enumerate_diagrams_upto(BOUND):
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
        assert slope_table(bottom)[0][k - 1] == best.value


def test_purity_with_padding():
    """Purity is taken on the diagram's own rows; no padded line count is accepted."""
    assert is_horizontally_pure(())
    assert is_horizontally_pure((1,))
    assert is_horizontally_pure((3, 3))
    assert not is_horizontally_pure((3, 1))
    with pytest.raises(TypeError):
        is_horizontally_pure((1,), 3)


def test_purity_matches_padded_slope_definition():
    """Purity is mu_j <= mu_r for j <= r = r(D), on checker-recounted slopes."""
    for d in enumerate_diagrams_upto(BOUND):
        r = row_count(d)
        top = checker_slope(d, r) if r else None
        expected = all(checker_slope(d, j) <= top for j in range(1, r))
        assert is_horizontally_pure(d) == expected


def test_checker_identity_relating_slices():
    """(i+k) mu_{i+k}(Z) = k mu_k(Z) + i mu_i(W_k) + i k for i + k <= r."""
    for d in enumerate_diagrams_upto(BOUND):
        r = row_count(d)
        for k in range(1, r):
            above = slice_above(d, k)
            slopes, above_slopes = slope_table(d)[0], slope_table(above)[0]
            for i in range(1, r - k + 1):
                left = (i + k) * slopes[i + k - 1]
                right = k * slopes[k - 1] + i * above_slopes[i - 1] + i * k
                assert left == right


def test_vertical_slopes_shift_under_horizontal_slicing():
    """mu'_i(slice_above(D, k)) = mu'_i(D) - k wherever both sides exist."""
    for d in enumerate_diagrams_upto(BOUND):
        for k in range(1, row_count(d)):
            above = slice_above(d, k)
            vertical, above_vertical = slope_table(d)[1], slope_table(above)[1]
            for i in range(1, col_count(above) + 1):
                assert above_vertical[i - 1] == vertical[i - 1] - k


def test_closed_form_matches_definition():
    for d in enumerate_diagrams_upto(10):
        n = degree(d)
        horizontal = slope_table(d)[0]
        for k in range(1, row_count(d) + 1):
            w = degree(slice_above(d, k))
            assert horizontal[k - 1] == Fraction(n - w, k) + Fraction(k - 3, 2)

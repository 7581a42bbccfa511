"""Interpolation slopes of monomial schemes.

The k-th horizontal slope of a diagram averages the checker counts
``h_j + j - 1`` over the bottom k rows and subtracts 1; equivalently
``mu_k = (n - w_k)/k + (k-3)/2`` where ``w_k`` counts the boxes above row k.
Vertical slopes are the horizontal slopes of the transpose.  The scheme
slope ``mu(Z)`` is the maximum over both families; it is the smallest slope
of a stable bundle whose general section interpolates through Z.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate, chain, repeat
from typing import Literal, NamedTuple

from .diagram import Diagram, col_count, degree, row_count, slice_above, transpose

Orientation = Literal["horizontal", "vertical"]


class SchemeSlope(NamedTuple):
    """The maximal slope with the cut realizing it."""

    value: Fraction
    orientation: Orientation
    index: int


def padded_horizontal_slope(diagram: Diagram, k: int) -> Fraction:
    """The k-th slope of the diagram padded with empty rows up to row k.

    Defined for every k >= 1; agrees with :func:`horizontal_slope` when
    ``k <= r(D)``.  Used by rank-0 objects whose diagram may have fewer rows
    than supporting lines.
    """
    if k < 1:
        raise ValueError(f"slope index must be positive, got {k}")
    above = degree(slice_above(diagram, k))
    return Fraction(degree(diagram) - above, k) + Fraction(k - 3, 2)


def horizontal_slope(diagram: Diagram, k: int) -> Fraction:
    """The slope mu_k of the bottom k rows, for 1 <= k <= r(D)."""
    if not 1 <= k <= row_count(diagram):
        raise ValueError(
            f"horizontal slope index {k} outside 1..{row_count(diagram)}"
        )
    return padded_horizontal_slope(diagram, k)


def vertical_slope(diagram: Diagram, i: int) -> Fraction:
    """The slope mu'_i of the left i columns, for 1 <= i <= c(D)."""
    if not 1 <= i <= col_count(diagram):
        raise ValueError(
            f"vertical slope index {i} outside 1..{col_count(diagram)}"
        )
    return padded_horizontal_slope(transpose(diagram), i)


def slope_table(diagram: Diagram) -> tuple[tuple[Fraction, ...], tuple[Fraction, ...]]:
    """All horizontal slopes (k = 1..r) and vertical slopes (i = 1..c)."""
    return _bottom_slopes(diagram), _bottom_slopes(transpose(diagram))


def _bottom_slopes(diagram: Diagram, k_max: int | None = None) -> tuple[Fraction, ...]:
    """Padded slopes for k = 1..k_max (default r(D)), from running row sums.

    The bottom k rows hold ``n - w_k`` boxes, so one running sum gives every
    slope instead of one slice and sum per k.
    """
    padding = 0 if k_max is None else k_max - row_count(diagram)
    bottoms = accumulate(chain(diagram, repeat(0, padding)))
    return tuple(
        Fraction(bottom, k) + Fraction(k - 3, 2) for k, bottom in enumerate(bottoms, 1)
    )


def scheme_slope(diagram: Diagram) -> SchemeSlope:
    """The maximal slope mu(Z) with its realizing cut.

    Ties prefer the horizontal family, then the smallest index.
    """
    if not diagram:
        raise ValueError("the empty scheme has no slope")
    horizontal, vertical = slope_table(diagram)
    candidates = [
        SchemeSlope(value, "horizontal", k)
        for k, value in enumerate(horizontal, start=1)
    ] + [
        SchemeSlope(value, "vertical", i)
        for i, value in enumerate(vertical, start=1)
    ]
    return max(candidates, key=_preference)


def _preference(candidate: SchemeSlope):
    # larger value wins; on ties, horizontal beats vertical, then lower index
    return (
        candidate.value,
        candidate.orientation == "horizontal",
        -candidate.index,
    )


def is_horizontally_pure(diagram: Diagram, k: int | None = None) -> bool:
    """Whether mu_j <= mu_k for every j <= k (k defaults to r(D)).

    With explicit ``k >= r(D)`` the comparison uses padded slopes, the purity
    notion appropriate to rank-0 objects supported on k lines.
    """
    if k is None:
        k = row_count(diagram)
    if k < row_count(diagram):
        raise ValueError(f"purity bound {k} below the row count")
    if k == 0:
        return True
    *lower, top = _bottom_slopes(diagram, k)
    return all(slope <= top for slope in lower)


def min_interpolating_slope(diagram: Diagram) -> Fraction:
    """The smallest slope interpolating the scheme: mu(Z)."""
    return scheme_slope(diagram).value


def in_stable_base_locus(diagram: Diagram, slope) -> bool:
    """Whether the scheme sits in the stable base locus at the given slope.

    True exactly when the slope is below the interpolation threshold mu(Z).
    """
    return Fraction(slope) < scheme_slope(diagram).value

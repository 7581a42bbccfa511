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
from itertools import accumulate
from typing import Literal, NamedTuple

from .diagram import Diagram, transpose

Orientation = Literal["horizontal", "vertical"]


class SchemeSlope(NamedTuple):
    """The maximal slope with the cut realizing it."""

    value: Fraction
    orientation: Orientation
    index: int


def slope_table(diagram: Diagram) -> tuple[tuple[Fraction, ...], tuple[Fraction, ...]]:
    """All horizontal slopes (k = 1..r) and vertical slopes (i = 1..c)."""
    return _bottom_slopes(diagram), _bottom_slopes(transpose(diagram))


def _bottom_slopes(diagram: Diagram) -> tuple[Fraction, ...]:
    """The slopes mu_k for k = 1..r(D), from running row sums.

    The bottom k rows hold ``n - w_k`` boxes, so one running sum gives every
    slope instead of one slice and sum per k, and each slope is the single
    fraction ``(2(n - w_k) + k(k-3)) / 2k``.
    """
    return tuple(
        Fraction(2 * bottom + k * (k - 3), 2 * k)
        for k, bottom in enumerate(accumulate(diagram), 1)
    )


def scheme_slope(diagram: Diagram) -> SchemeSlope:
    """The maximal slope mu(Z) with its realizing cut.

    mu(Z) is the smallest slope interpolating the scheme.  Ties prefer the
    horizontal family, then the smallest index.
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


def is_horizontally_pure(diagram: Diagram) -> bool:
    """Whether mu_j <= mu_r for every j <= r = r(D); the empty diagram is pure."""
    if not diagram:
        return True
    *lower, top = _bottom_slopes(diagram)
    return all(slope <= top for slope in lower)


def in_stable_base_locus(diagram: Diagram, slope) -> bool:
    """Whether the scheme sits in the stable base locus at the given slope.

    True exactly when the slope is below the interpolation threshold mu(Z).
    """
    return Fraction(slope) < scheme_slope(diagram).value

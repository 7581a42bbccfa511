"""Interpolation slopes of monomial schemes.

The k-th horizontal slope of a diagram averages the checker counts
``h_j + j - 1`` over the bottom k rows and subtracts 1; equivalently
``mu_k = (n - w_k)/k + (k-3)/2`` where ``w_k`` counts the boxes above row k.
Vertical slopes are the horizontal slopes of the transpose.  The scheme
slope ``mu(Z)`` is the maximum over both families; it is the smallest slope
of a stable bundle whose general section interpolates through Z.  Slopes
are compared as integer pairs; a ``Fraction`` is built only for a slope
that is returned.
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
    return tuple(
        tuple(Fraction(p, q) for p, q in _bottom_slopes(d)) for d in (diagram, transpose(diagram))
    )


def _bottom_slopes(diagram: Diagram) -> tuple[tuple[int, int], ...]:
    """The slopes mu_k for k = 1..r(D) as pairs (p, q), mu_k = p/q with q > 0.

    The bottom k rows hold ``n - w_k`` boxes, so one running sum gives every
    slope, ``(2(n - w_k) + k(k-3)) / 2k``.
    """
    return tuple(
        (2 * bottom + k * (k - 3), 2 * k)
        for k, bottom in enumerate(accumulate(diagram), 1)
    )


def scheme_slope(diagram: Diagram) -> SchemeSlope:
    """The maximal slope mu(Z) with its realizing cut.

    mu(Z) is the smallest slope interpolating the scheme.  The cuts are
    walked horizontal first, then vertical, each by ascending index, and the
    first maximum wins a tie.
    """
    if not diagram:
        raise ValueError("the empty scheme has no slope")
    best = None
    for orientation, d in (("horizontal", diagram), ("vertical", transpose(diagram))):
        for index, (p, q) in enumerate(_bottom_slopes(d), 1):
            if best is None or p * best[1] > best[0] * q:
                best = p, q, orientation, index
    p, q, orientation, index = best
    return SchemeSlope(Fraction(p, q), orientation, index)


def is_horizontally_pure(diagram: Diagram) -> bool:
    """Whether mu_j <= mu_r for every j <= r = r(D); the empty diagram is pure."""
    if not diagram:
        return True
    *lower, (p, q) = _bottom_slopes(diagram)
    return all(a * q <= p * b for a, b in lower)


def in_stable_base_locus(diagram: Diagram, slope) -> bool:
    """Whether the scheme sits in the stable base locus at the given slope.

    True exactly when the slope is below the interpolation threshold mu(Z).
    """
    return Fraction(slope) < scheme_slope(diagram).value

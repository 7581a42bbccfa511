"""The row and column slice reference for the parts of a destabilizing step.

Each part is cut out of the object's diagram by the ``slice_*`` functions
here and the bottom slice ``d[:k]``, and built by a public factory, which
validates it, independently of the slicing in ``objects._sequence_parts``.
"""

from __future__ import annotations

from staircase.diagram import transpose
from staircase.objects import RankOne, RankZero, rank_minus_one, rank_one, rank_zero


def slice_above(diagram, k):
    """Rows strictly above the k-th: the diagram of the quotient (I : y^k)."""
    return diagram[k:]


def slice_right(diagram, k):
    """Columns strictly right of the k-th: the diagram of (I : x^k)."""
    return tuple(h - k for h in diagram if h > k)


def slice_left(diagram, k):
    """The left k columns."""
    if k == 0:
        return ()
    return tuple(min(h, k) for h in diagram)


def slice_parts(obj, cut):
    """(sub, quotient) at ``cut``, sliced out by rows and columns."""
    direction, index = cut
    d, t = obj.diagram, obj.twist
    if isinstance(obj, RankOne):
        if direction == "horizontal":
            return (
                rank_one(slice_above(d, index), t - index),
                rank_zero(d[:index], t),
            )
        return (
            rank_one(slice_right(d, index), t - index),
            rank_zero(transpose(slice_left(d, index)), t),
        )
    if isinstance(obj, RankZero):
        return (
            rank_one(slice_right(d, index), t - index),
            rank_minus_one(slice_left(d, index), t),
        )
    if direction == "horizontal":
        return (
            rank_zero(slice_above(d, index), t - index),
            rank_minus_one(d[:index], t),
        )
    return (
        rank_zero(transpose(slice_right(d, index)), t - index),
        rank_minus_one(slice_left(d, index), t),
    )


def family(obj, cut):
    """The lengths a cut slices: the rows of D, or its columns for a vertical cut."""
    return transpose(obj.diagram) if cut[0] == "vertical" else obj.diagram


def parts_or_error(parts, *args):
    try:
        return parts(*args)
    except ValueError as error:  # a rank-0 part that is not horizontally pure
        return type(error)

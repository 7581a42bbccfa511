"""Potential Bridgeland walls in the (s, t) half-plane.

The wall between two independent Chern characters is the locus where their
central charges align.  It is either a vertical line (shared Mumford slope)
or a semicircle; semicircles store the exact center and squared radius, so a
"virtual" wall with rho^2 <= 0 is representable and counts as empty.  A
semicircular wall corresponds to a unique rank-1 orthogonal class through
mu = -s - 3/2 and 2*Delta = rho^2 - 1/4.

Wall arithmetic runs on the integer cores of :mod:`staircase.ktheory`;
:func:`wall_from_parts` states the wall formula once, on integer parts.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .ktheory import ChernCharacter, integer_parts


@dataclass(frozen=True)
class VerticalWall:
    s: Fraction


@dataclass(frozen=True)
class SemicircleWall:
    center: Fraction
    radius_sq: Fraction


Wall = VerticalWall | SemicircleWall


def is_empty(wall: Wall) -> bool:
    """A semicircle of nonpositive squared radius bounds no actual wall."""
    return isinstance(wall, SemicircleWall) and wall.radius_sq <= 0


def potential_wall(xi1: ChernCharacter, xi2: ChernCharacter) -> Wall:
    """The potential wall W(xi1, xi2): :func:`wall_from_parts` of their integer parts."""
    return wall_from_parts(*integer_parts(xi1), *integer_parts(xi2))


def wall_from_parts(r1, a1, p1, b1, q1, r2, a2, p2, b2, q2) -> Wall:
    """The wall of two characters as (r, a, p, b, q) parts: c1 = a/p, ch2 = b/q, p, q > 0.

    Lowest terms are not needed, so ``(r, c1, 2*ch2)`` enters as ``(r, c1, 1, 2*ch2, 2)``.
    The characters must be linearly independent and not both of rank 0 (an
    empty locus).  With c1 and ch2 scaled by q, the lcm of the denominators,
    the minors c (of r, c1), n (of r, ch2) and cross (of c1, ch2) are
    integers: ``center = n/c``, ``radius_sq = (q n^2 + 2 c cross)/(q c^2)``.
    """
    q = lcm(p1, q1, p2, q2)
    a1, b1, a2, b2 = a1 * (q // p1), b1 * (q // q1), a2 * (q // p2), b2 * (q // q2)
    c = a1 * r2 - a2 * r1
    n = b1 * r2 - b2 * r1
    cross = a1 * b2 - a2 * b1
    if c == 0 and n == 0 and cross == 0:
        raise ValueError("linearly dependent characters bound no wall")
    if c == 0:
        if r1 == 0 and r2 == 0:
            raise ValueError("two rank-0 characters share no wall (empty locus)")
        return VerticalWall(Fraction(a1, q * r1) if r1 != 0 else Fraction(a2, q * r2))
    return SemicircleWall(Fraction(n, c), Fraction(q * n * n + 2 * c * cross, q * c * c))


def orthogonal_invariants(wall: Wall) -> tuple[Fraction, Fraction]:
    """(mu, Delta) of the rank-1 class orthogonal to everything on the wall."""
    if not isinstance(wall, SemicircleWall):
        raise ValueError("vertical walls have no orthogonal invariants")
    a, p = wall.center.as_integer_ratio()
    b, q = wall.radius_sq.as_integer_ratio()
    return Fraction(-2 * a - 3 * p, 2 * p), Fraction(4 * b - q, 8 * q)


def is_nested(wall_inner: Wall, wall_outer: Wall, side: str) -> bool:
    """Whether the inner wall sits inside the outer one.

    ``side`` says which side of the vertical wall the family lives on:
    ``"left"`` for walls of a positive-rank class, ``"right"`` for negative
    rank.  Concentric walls compare squared radii.  An empty inner wall is
    nested in anything.
    """
    if side not in ("left", "right"):
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")
    if not isinstance(wall_inner, SemicircleWall) or not isinstance(wall_outer, SemicircleWall):
        raise ValueError("nesting is defined for semicircular walls only")
    if is_empty(wall_inner):
        return True
    if wall_inner.center == wall_outer.center:
        return wall_inner.radius_sq <= wall_outer.radius_sq
    if side == "left":
        return wall_inner.center > wall_outer.center
    return wall_inner.center < wall_outer.center

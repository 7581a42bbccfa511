"""Potential Bridgeland walls in the (s, t) half-plane.

The wall between two independent Chern characters is the locus where their
central charges align.  It is either a vertical line (shared Mumford slope)
or a semicircle; semicircles store the exact center and squared radius, so a
"virtual" wall with rho^2 <= 0 is representable and counts as empty.  A
semicircular wall corresponds to a unique rank-1 orthogonal class through
mu = -s - 3/2 and 2*Delta = rho^2 - 1/4.

Wall arithmetic runs on the integer form of a character stated in
:mod:`staircase.ktheory`; :func:`wall_minors` states the wall formula once, on
that form, and :func:`potential_wall` builds the wall from it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .ktheory import ChernCharacter, integer_parts


@dataclass(frozen=True, slots=True)
class VerticalWall:
    s: Fraction


@dataclass(frozen=True, slots=True)
class SemicircleWall:
    center: Fraction
    radius_sq: Fraction

    @classmethod
    def from_minors(cls, q: int, c: int, n: int, cross: int) -> SemicircleWall:
        """The semicircle of the :func:`wall_minors` ``(q, c, n, cross)``, ``c != 0``."""
        return cls(Fraction(n, 2 * c), Fraction(q * n * n + 4 * c * cross, 4 * q * c * c))


Wall = VerticalWall | SemicircleWall


def is_empty(wall: Wall) -> bool:
    """A semicircle of nonpositive squared radius bounds no actual wall."""
    return isinstance(wall, SemicircleWall) and wall.radius_sq <= 0


def potential_wall(xi1: ChernCharacter, xi2: ChernCharacter) -> Wall:
    """The potential wall W(xi1, xi2): vertical at ``s = c1/r`` of the nonzero rank when the minor c is 0."""
    (r1, a1, b1, d1), (r2, a2, b2, d2) = integer_parts(xi1), integer_parts(xi2)
    minors = wall_minors(r1, a1, b1, d1, r2, a2, b2, d2)
    if minors[1] == 0:
        return VerticalWall(Fraction(a1, d1 * r1) if r1 != 0 else Fraction(a2, d2 * r2))
    return SemicircleWall.from_minors(*minors)


def wall_minors(r1, a1, b1, d1, r2, a2, b2, d2) -> tuple[int, int, int, int]:
    """The minors ``(q, c, n, cross)`` of two ``(r, a, b, d)`` characters of :mod:`staircase.ktheory`.

    Lowest terms are not needed; the characters must be linearly independent and not both of
    rank 0 (an empty locus).  Over q, the lcm of the denominators, c (of r, c1), n (of r, 2*ch2)
    and cross (of c1, 2*ch2) are integers: ``center = n/2c``, ``radius_sq = (q n^2 + 4 c cross)/(4 q c^2)``.
    """
    q = lcm(d1, d2)
    a1, b1, a2, b2 = a1 * (q // d1), b1 * (q // d1), a2 * (q // d2), b2 * (q // d2)
    c = a1 * r2 - a2 * r1
    n = b1 * r2 - b2 * r1
    cross = a1 * b2 - a2 * b1
    if c == 0 and n == 0 and cross == 0:
        raise ValueError("linearly dependent characters bound no wall")
    if c == 0 and r1 == 0 and r2 == 0:
        raise ValueError("two rank-0 characters share no wall (empty locus)")
    return q, c, n, cross


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

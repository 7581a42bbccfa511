"""Potential Bridgeland walls in the (s, t) half-plane.

The wall between two independent Chern characters is the locus where their
central charges align.  It is either a vertical line (shared Mumford slope)
or a semicircle; semicircles store the exact center and squared radius, so a
"virtual" wall with rho^2 <= 0 is representable and counts as empty.  A
semicircular wall corresponds to a unique rank-1 orthogonal class through
mu = -s - 3/2 and 2*Delta = rho^2 - 1/4.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .ktheory import ChernCharacter, mumford_slope


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
    """The potential wall W(xi1, xi2).

    The two characters must be linearly independent.  When both have rank 0
    the alignment locus is empty (both slopes infinite) and no wall of the
    supported shapes exists; that pairing is rejected.
    """
    if _dependent(xi1, xi2):
        raise ValueError("linearly dependent characters bound no wall")
    c = xi1.c1 * xi2.r - xi2.c1 * xi1.r
    if c == 0:
        if xi1.r == 0 and xi2.r == 0:
            raise ValueError("two rank-0 characters share no wall (empty locus)")
        reference = xi1 if xi1.r != 0 else xi2
        return VerticalWall(mumford_slope(reference))
    c = Fraction(c)
    center = (xi1.ch2 * xi2.r - xi2.ch2 * xi1.r) / c
    radius_sq = center * center + 2 * (xi1.c1 * xi2.ch2 - xi2.c1 * xi1.ch2) / c
    return SemicircleWall(center, radius_sq)


def _dependent(xi1: ChernCharacter, xi2: ChernCharacter) -> bool:
    return (
        xi1.r * xi2.c1 == xi2.r * xi1.c1
        and xi1.r * xi2.ch2 == xi2.r * xi1.ch2
        and xi1.c1 * xi2.ch2 == xi2.c1 * xi1.ch2
    )


def orthogonal_invariants(wall: Wall) -> tuple[Fraction, Fraction]:
    """(mu, Delta) of the rank-1 class orthogonal to everything on the wall."""
    if not isinstance(wall, SemicircleWall):
        raise ValueError("vertical walls have no orthogonal invariants")
    return -wall.center - Fraction(3, 2), wall.radius_sq / 2 - Fraction(1, 8)


def wall_from_invariants(mu, delta) -> SemicircleWall:
    """Inverse of :func:`orthogonal_invariants`."""
    mu = Fraction(mu)
    delta = Fraction(delta)
    return SemicircleWall(-mu - Fraction(3, 2), 2 * delta + Fraction(1, 4))


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

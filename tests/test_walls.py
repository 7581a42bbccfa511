from __future__ import annotations

import random
from fractions import Fraction

import pytest

from staircase.ktheory import (
    chern,
    euler_char,
    from_slope_discriminant,
    mumford_slope,
    ring_product,
    twist,
)
from staircase.objects import chern_of, rank_one
from staircase.walls import (
    SemicircleWall,
    VerticalWall,
    is_empty,
    is_nested,
    orthogonal_invariants,
    potential_wall,
)


def complete_intersection(a: int, b: int) -> tuple[int, ...]:
    """Diagram of the monomial complete intersection (x^a, y^b): a x b rectangle."""
    return (a,) * b


def discriminant(xi):
    """Delta = mu^2/2 - ch2/r, for nonzero rank."""
    return mumford_slope(xi) ** 2 / 2 - xi.ch2 / xi.r


def test_pinned_walls():
    wall = potential_wall(
        chern(1, -7, Fraction(41, 2)), chern(0, 5, Fraction(-101, 2))
    )
    assert wall == SemicircleWall(Fraction(-101, 10), Fraction(161, 100))
    root = potential_wall(chern(1, -5, Fraction(5, 2)), chern(1, 0, -48))
    assert root == SemicircleWall(Fraction(-101, 10), Fraction(601, 100))


def test_complete_intersection_walls_closed_form():
    for a in range(1, 9):
        for b in range(a, 9):
            xi1 = chern(1, -a, Fraction(a * a, 2))
            xi2 = chern_of(rank_one(complete_intersection(a, b)))
            wall = potential_wall(xi1, xi2)
            assert wall == SemicircleWall(
                Fraction(-a, 2) - b, Fraction((a - 2 * b) ** 2, 4)
            )
            mu, delta = orthogonal_invariants(wall)
            assert mu == b + Fraction(a - 3, 2)
            assert delta == Fraction((a - 2 * b) ** 2 - 1, 8)


def test_vertical_and_error_cases():
    assert potential_wall(chern(1, 2, 0), chern(2, 4, 1)) == VerticalWall(2)
    assert potential_wall(chern(1, 3, 0), chern(0, 0, 5)) == VerticalWall(3)
    with pytest.raises(ValueError):
        potential_wall(chern(1, 2, 3), chern(2, 4, 6))
    with pytest.raises(ValueError):
        potential_wall(chern(0, 2, 3), chern(0, 4, 5))
    # two rank-1 ideal-sheaf-style classes of distinct slopes: never vertical
    for k in range(1, 6):
        wall = potential_wall(chern_of(rank_one((2, 1))), twist(chern_of(rank_one((1,))), -k))
        assert isinstance(wall, SemicircleWall)


def test_orthogonal_invariants_pinned_and_round_trip():
    assert orthogonal_invariants(
        SemicircleWall(Fraction(-101, 10), Fraction(601, 100))
    ) == (Fraction(43, 5), Fraction(72, 25))
    assert orthogonal_invariants(
        SemicircleWall(Fraction(-3, 2), Fraction(1, 4))
    ) == (0, 0)
    mu, delta = Fraction(43, 5), Fraction(72, 25)
    assert SemicircleWall(-mu - Fraction(3, 2), 2 * delta + Fraction(1, 4)) == SemicircleWall(
        Fraction(-101, 10), Fraction(601, 100)
    )
    rng = random.Random(11)
    for _ in range(200):
        mu = Fraction(rng.randint(-40, 40), rng.randint(1, 9))
        delta = Fraction(rng.randint(-40, 40), rng.randint(1, 9))
        wall = SemicircleWall(-mu - Fraction(3, 2), 2 * delta + Fraction(1, 4))
        assert orthogonal_invariants(wall) == (mu, delta)
    with pytest.raises(ValueError):
        orthogonal_invariants(VerticalWall(0))


def test_radius_agrees_from_both_constituents():
    rng = random.Random(20260823)
    checked = 0
    while checked < 300:
        xi1 = chern(rng.choice([-2, -1, 1, 2]), rng.randint(-9, 9), Fraction(rng.randint(-30, 30), 2))
        xi2 = chern(rng.choice([-2, -1, 1, 2]), rng.randint(-9, 9), Fraction(rng.randint(-30, 30), 2))
        try:
            wall = potential_wall(xi1, xi2)
        except ValueError:
            continue
        if not isinstance(wall, SemicircleWall):
            continue
        for xi in (xi1, xi2):
            expected = (wall.center - mumford_slope(xi)) ** 2 - 2 * discriminant(xi)
            assert wall.radius_sq == expected
        checked += 1


def test_rank0_reduction_consistency():
    rng = random.Random(5)
    checked = 0
    while checked < 200:
        xi1 = chern(rng.choice([-2, -1, 1, 2]), rng.randint(-9, 9), Fraction(rng.randint(-30, 30), 2))
        xi2 = chern(0, rng.randint(1, 9), Fraction(rng.randint(-30, 30), 2))
        try:
            wall = potential_wall(xi1, xi2)
        except ValueError:
            continue
        for k in (1, 2, 3):
            combined = chern(
                xi1.r + 0, xi1.c1 + k * xi2.c1, xi1.ch2 + k * xi2.ch2
            )
            assert potential_wall(xi1, combined) == wall
        # direct d/c center for the rank-0 constituent
        if isinstance(wall, SemicircleWall):
            assert wall.center == xi2.ch2 / xi2.c1
        checked += 1


def test_orthogonality_of_wall_class():
    xi1 = chern(1, -7, Fraction(41, 2))
    xi2 = chern(0, 5, Fraction(-101, 2))
    assert orthogonal_invariants(potential_wall(xi1, xi2)) == (Fraction(43, 5), Fraction(17, 25))
    cases = [
        (chern(1, -5, Fraction(5, 2)), chern(1, 0, -48)),
        (xi1, xi2),
        (chern(1, -2, 2), chern_of(rank_one(complete_intersection(2, 5)))),
        (chern_of(rank_one((3, 1))), twist(chern_of(rank_one(())), -2)),
    ]
    for xi1, xi2 in cases:
        wall = potential_wall(xi1, xi2)
        assert isinstance(wall, SemicircleWall) and not is_empty(wall)
        zeta = from_slope_discriminant(1, *orthogonal_invariants(wall))
        for xi in (xi1, xi2):
            assert euler_char(ring_product(zeta, xi)) == 0


def test_nesting_rules():
    concentric_outer = SemicircleWall(Fraction(-101, 10), Fraction(601, 100))
    concentric_inner = SemicircleWall(Fraction(-101, 10), Fraction(161, 100))
    assert is_nested(concentric_inner, concentric_outer, "left")
    assert is_nested(concentric_inner, concentric_outer, "right")
    assert not is_nested(concentric_outer, concentric_inner, "left")
    assert is_nested(concentric_outer, concentric_outer, "left")

    inner = SemicircleWall(Fraction(-3), Fraction(1, 2))
    outer = SemicircleWall(Fraction(-4), Fraction(5))
    assert is_nested(inner, outer, "left")
    assert not is_nested(outer, inner, "left")
    assert is_nested(outer, inner, "right")
    empty = SemicircleWall(Fraction(-9), Fraction(-1, 4))
    assert is_empty(empty)
    assert is_empty(SemicircleWall(Fraction(-9), Fraction(0)))
    assert is_nested(empty, inner, "left")
    assert is_nested(empty, inner, "right")
    with pytest.raises(ValueError):
        is_nested(VerticalWall(0), outer, "left")
    with pytest.raises(ValueError):
        is_nested(inner, outer, "sideways")

from __future__ import annotations

import ast
import random
from dataclasses import fields
from decimal import Decimal
from fractions import Fraction
from functools import partial
from math import gcd

import pytest

from staircase import ktheory, walls
from staircase.diagram import enumerate_diagrams_upto
from staircase.ktheory import (
    ChernCharacter,
    central_charge,
    chern,
    discriminant,
    dual,
    euler_char,
    euler_pairing,
    euler_pairing_closed,
    from_integers,
    from_slope_discriminant,
    hilbert_P,
    integer_parts,
    line_bundle,
    mumford_slope,
    negate,
    ring_product,
    twist,
)
from staircase.objects import (
    RankMinusOne,
    RankZero,
    chern_of,
    integer_character,
    rank0_hilbert_polynomial,
    rank_minus_one,
    rank_one,
)


def test_pinned_characters():
    assert tuple(line_bundle(-5)) == (1, -5, Fraction(25, 2))
    assert tuple(chern_of(rank_one((7, 6, 6, 2, 1)))) == (1, 0, -22)
    assert tuple(chern_of(rank_one(()))) == (1, 0, 0)
    assert tuple(chern_of(rank_one((1,)))) == (1, 0, -1)
    assert tuple(chern_of(RankZero((9, 9, 7, 7, 6)))) == (0, 5, Fraction(-101, 2))
    assert integer_character(RankZero((9, 9, 7, 7, 6))) == (0, 5, -101)
    assert tuple(chern_of(RankZero((1,)))) == (0, 1, Fraction(-3, 2))
    assert tuple(chern_of(RankMinusOne((7, 7, 7, 7, 6)))) == (-1, 12, -71)
    assert tuple(chern_of(RankMinusOne((1,)))) == (-1, 2, -2)
    # full rectangle: the complex collapses to O(-k-i)[1]
    assert chern_of(RankMinusOne((3, 3))) == chern_of(rank_minus_one((3, 3))) == negate(line_bundle(-5))


def test_twist_dual_negate():
    assert tuple(twist(chern(1, 0, -1), -3)) == (1, -3, Fraction(7, 2))
    assert tuple(dual(chern(1, -7, Fraction(41, 2)))) == (1, 7, Fraction(41, 2))
    assert tuple(negate(chern(1, -7, Fraction(41, 2)))) == (-1, 7, Fraction(-41, 2))
    xi = chern_of(RankZero((3, 1)))
    assert twist(twist(xi, 4), -4) == xi
    assert dual(dual(xi)) == xi


def test_domain_checks():
    with pytest.raises(ValueError, match="need at least one supporting line, got 0"):
        chern_of(RankZero(()))
    with pytest.raises(ValueError, match="need at least one supporting line, got 0"):
        rank0_hilbert_polynomial(())
    with pytest.raises(ValueError, match="got 0 x 0"):
        chern_of(RankMinusOne(()))
    with pytest.raises(ValueError):
        mumford_slope(chern(0, 1, 0))
    with pytest.raises(ValueError):
        central_charge(chern(1, 0, 0), 0, 0)
    with pytest.raises(ValueError):
        from_slope_discriminant(0, 1, 1)
    with pytest.raises(ValueError, match="rank 1.5 is not an integer"):
        chern(1.5, 0, 0)
    with pytest.raises(ValueError, match="rank 1.5 is not an integer"):
        from_slope_discriminant(1.5, 0, 0)


def test_slope_discriminant_round_trip():
    for d in enumerate_diagrams_upto(8):
        for m in (-3, 0, 2):
            xi = twist(chern_of(rank_one(d)), m)
            back = from_slope_discriminant(xi.r, mumford_slope(xi), discriminant(xi))
            assert back == xi
    assert discriminant(chern_of(rank_one((1,)))) == 1


def test_discriminant_is_twist_invariant():
    for d in enumerate_diagrams_upto(8):
        for maker in (
            lambda d: chern_of(rank_one(d)),
            lambda d: chern_of(RankMinusOne(d)),
        ):
            xi = maker(d)
            for m in (-7, -1, 1, 12):
                assert discriminant(twist(xi, m)) == discriminant(xi)
                assert mumford_slope(twist(xi, m)) == mumford_slope(xi) + m


def test_rank_minus1_discriminant_view():
    for d in enumerate_diagrams_upto(10):
        xi = chern_of(RankMinusOne(d))
        assert discriminant(xi) == len(d) * d[0] - sum(d)
        assert discriminant(xi) >= 0


def test_hilbert_P_pinned():
    assert hilbert_P(0) == 1
    assert hilbert_P(-1) == 0
    assert hilbert_P(-2) == 0
    assert hilbert_P(Fraction(8, 5)) == Fraction(117, 25)


def test_euler_char_pinned():
    assert euler_char(line_bundle(0)) == 1
    assert euler_char(chern_of(rank_one((7, 6, 6, 2, 1)))) == -21
    assert euler_char(chern_of(RankZero((9, 9, 7, 7, 6)))) == -43
    for m in range(-6, 7):
        assert euler_char(line_bundle(m)) == hilbert_P(m)


def test_euler_pairing_pinned():
    point = chern_of(rank_one((1,)))
    for r in (1, 2, 5):
        zeta = chern(r, 0, 0)
        assert euler_pairing(dual(zeta), point) == 0
    for d in enumerate_diagrams_upto(6):
        xi = chern_of(rank_one(d))
        assert euler_pairing(line_bundle(0), xi) == euler_char(xi)
    zeta = from_slope_discriminant(1, Fraction(43, 5), Fraction(17, 25))
    xi = twist(chern_of(rank_one((2, 2))), -7)
    assert tuple(xi) == (1, -7, Fraction(41, 2))
    assert euler_pairing(dual(zeta), xi) == 0


def test_euler_pairing_closed_form_agrees_on_random_classes():
    rng = random.Random(20260823)
    for _ in range(1000):
        a = chern(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(-9, 9), Fraction(rng.randint(-40, 40), 2))
        b = chern(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(-9, 9), Fraction(rng.randint(-40, 40), 2))
        assert euler_pairing(a, b) == euler_pairing_closed(a, b)


def test_euler_pairing_is_biadditive():
    rng = random.Random(7)
    classes = [
        chern(rng.randint(-3, 3), rng.randint(-8, 8), Fraction(rng.randint(-30, 30), 2))
        for _ in range(12)
    ]
    add = lambda p, q: chern(p.r + q.r, p.c1 + q.c1, p.ch2 + q.ch2)
    for a in classes[:4]:
        for b in classes[4:8]:
            for c in classes[8:]:
                assert euler_pairing(a, add(b, c)) == euler_pairing(a, b) + euler_pairing(a, c)
                assert euler_pairing(add(a, b), c) == euler_pairing(a, c) + euler_pairing(b, c)


def test_central_charge_values():
    assert central_charge(line_bundle(0), 0, 1) == central_charge(chern(1, 0, 0), 0, 1)
    value = central_charge(line_bundle(0), 0, 1)
    assert value.real == Fraction(1, 2)
    assert value.imag_coeff == 0
    xi = chern(0, 3, Fraction(-7, 2))
    value = central_charge(xi, 2, 5)
    assert value.real == Fraction(7, 2) + 6
    assert value.imag_coeff == 3


RATIONAL_ARGUMENTS = (
    3, -2, 0, True, False, Fraction(-7, 4), Fraction(9), 2.5, -0.125, float("nan"), float("inf"),
    Decimal("1.25"), Decimal("-3"), Decimal("NaN"), "3/4", "-1.5", " 2 ", "1/0", "x", None, [1],
)


def outcome(func, *args):
    """The value, or the exception type and message, of one call."""
    try:
        return func(*args)
    except Exception as error:
        return type(error), str(error)


@pytest.mark.parametrize("x", RATIONAL_ARGUMENTS, ids=repr)
def test_rational_arguments_read_as_their_fraction(x):
    """An argument gives the value, or the error, of the same call on Fraction(x)."""
    charge = partial(central_charge, chern(2, Fraction(1, 3), Fraction(-5, 2)))
    from_slope = partial(from_slope_discriminant, 3)
    for func, *args in (
        (charge, x, 2),
        (charge, Fraction(1, 2), x),
        (from_slope, x, Fraction(1, 8)),
        (from_slope, -1, x),
    ):
        try:
            converted = [Fraction(a) for a in args]
        except Exception as error:
            expected = type(error), str(error)
        else:
            expected = outcome(func, *converted)
        value = outcome(func, *args)
        assert value == expected
        if isinstance(value, ChernCharacter):
            assert type(value.c1) is type(value.ch2) is Fraction
            assert value.d > 0 and gcd(value.a, value.b, value.d) == 1
        elif not isinstance(value, tuple):
            assert all(type(getattr(value, f.name)) is Fraction for f in fields(value))


def test_ring_product_matches_hand_expansion():
    a = chern(2, -1, Fraction(3, 2))
    b = chern(1, 4, Fraction(-5, 2))
    product = ring_product(a, b)
    assert tuple(product) == (2, 2 * 4 + 1 * -1, 2 * Fraction(-5, 2) + (-1) * 4 + Fraction(3, 2) * 1)


def test_rank0_hilbert_polynomial_pinned():
    assert rank0_hilbert_polynomial((9, 9, 7, 7, 6)) == (5, -43)
    assert rank0_hilbert_polynomial((1,)) == (1, 0)
    assert rank0_hilbert_polynomial((3, 1)) == (2, -3)  # not horizontally pure


def test_rank0_hilbert_polynomial_matches_euler_char_of_twists():
    """chi(twist by x) evaluates the polynomial at integer x."""
    for d in enumerate_diagrams_upto(8):
        leading, constant = rank0_hilbert_polynomial(d)
        for x in range(-3, 4):
            assert euler_char(twist(chern_of(RankZero(d)), x)) == leading * x + constant


@pytest.mark.parametrize("module", [ktheory, walls])
def test_character_arithmetic_knows_no_diagram(module):
    """ktheory and walls take characters, never diagrams: ``as_int`` is all they import from diagram."""
    with open(module.__file__, encoding="utf-8") as source:
        tree = ast.parse(source.read())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module in ("diagram", "staircase.diagram"):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):  # the module itself, by any spelling
            names = {f"{node.module}.{alias.name}" if node.module else alias.name for alias in node.names}
            assert not names & {"diagram", "staircase.diagram"}
    assert imported <= {"as_int"}


def test_a_character_stores_its_lowest_terms_integer_form():
    """``(r, a, b, d)`` with c1 = a/d, 2*ch2 = b/d, d > 0 and gcd(a, b, d) = 1, whatever the input's terms."""
    xi = chern(2, Fraction(1, 3), Fraction(-5, 4))
    assert [f.name for f in fields(xi)] == ["r", "a", "b", "d"]
    assert (xi.r, xi.a, xi.b, xi.d) == (2, 2, -15, 6)
    assert from_integers(2, -4, 30, -12) == xi
    assert integer_parts(from_integers(1, 0, 0, -7)) == (1, 0, 0, 1)
    with pytest.raises(ZeroDivisionError):
        from_integers(1, 1, 0, 0)

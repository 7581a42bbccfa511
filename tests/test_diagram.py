from __future__ import annotations

import re
import warnings
from fractions import Fraction

import pytest

from staircase.diagram import (
    IdealSyntaxError,
    as_diagram,
    complement_rotate,
    degree,
    enumerate_diagrams,
    enumerate_diagrams_upto,
    from_generators,
    parse_ideal,
    render_ideal,
    to_generators,
    transpose,
)
from staircase.ktheory import chern, from_slope_discriminant
from staircase.objects import rank_minus_one, rank_one, rank_zero
from slice_reference import slice_above, slice_left, slice_right

BOUND = 12  # exhaustive-check degree bound for the heavier loops


def partition_counts(n_max: int) -> list[int]:
    """p(0..n_max) by the pentagonal-number recurrence (independent oracle)."""
    p = [1]
    for n in range(1, n_max + 1):
        total = 0
        k = 1
        while True:
            g1 = k * (3 * k - 1) // 2
            g2 = k * (3 * k + 1) // 2
            if g1 > n and g2 > n:
                break
            sign = 1 if k % 2 == 1 else -1
            if g1 <= n:
                total += sign * p[n - g1]
            if g2 <= n:
                total += sign * p[n - g2]
            k += 1
        p.append(total)
    return p


def test_validation_rejects_bad_rows():
    assert as_diagram([3, 2, 0, 0]) == (3, 2)
    assert as_diagram([]) == ()
    with pytest.raises(ValueError):
        as_diagram([2, 3])
    with pytest.raises(ValueError):
        as_diagram([3, -1])
    # zero rows are dropped only at the end; before a longer row they break the order
    assert as_diagram([3, 2, 0]) == (3, 2)
    for rows, message in (([3, 0, 2], "got 0 before 2"), ((0, 0, 1), "got 0 before 1")):
        with pytest.raises(ValueError, match=message):
            as_diagram(rows)


@pytest.mark.parametrize(
    "value, expected",
    [(1.5, None), (Fraction(5, 2), None), (float("nan"), None), (float("inf"), None), (None, None), ([1], None), (2.0, 2), (Fraction(3), 3), (True, 1)],
    ids=repr,
)
@pytest.mark.parametrize(
    "noun, read",
    [
        ("row length", lambda v: as_diagram([v])[0]),
        ("generator exponent", lambda v: from_generators([(v, 0), (0, 1)])[0]),
        ("rank", lambda v: chern(v, 0, 0).r),
        ("rank", lambda v: from_slope_discriminant(v, 0, 0).r),
        ("twist", lambda v: rank_one((3, 1), v).twist),
        ("twist", lambda v: rank_zero((2, 2), v).twist),
        ("twist", lambda v: rank_minus_one((3, 1), v).twist),
        ("degree", lambda v: degree(next(enumerate_diagrams(v)))),
        ("degree bound", lambda v: max(map(degree, enumerate_diagrams_upto(v)))),
    ],
    ids=[
        "as_diagram", "from_generators", "chern", "from_slope_discriminant", "rank_one", "rank_zero",
        "rank_minus_one", "enumerate_diagrams", "enumerate_diagrams_upto",
    ],
)
def test_every_boundary_states_the_integer_rule_in_the_same_words(noun, read, value, expected):
    """Rows, exponents, ranks, twists, degrees and bounds: an integral value is read as that int."""
    if expected is None:
        with pytest.raises(ValueError, match=re.escape(f"{noun} {value!r} is not an integer")):
            read(value)
    else:
        result = read(value)
        assert result == expected and type(result) is int


def test_basic_statistics():
    d = (7, 6, 6, 2, 1)
    assert degree(d) == 22
    assert degree(()) == 0


def test_transpose_pinned_and_involutive():
    assert transpose((7, 6, 6, 2, 1)) == (5, 4, 3, 3, 3, 3, 1)
    assert transpose(()) == ()
    for d in enumerate_diagrams_upto(BOUND):
        t = transpose(d)
        assert transpose(t) == d
        assert degree(t) == degree(d)
        assert len(t) == d[0]
        assert t.count(t[0]) == d[-1]


def test_slices_pinned_values():
    d = (7, 6, 6, 2, 1)
    assert slice_above(d, 3) == (2, 1)
    assert slice_right(d, 2) == (5, 4, 4)
    assert slice_left(d, 2) == (2, 2, 2, 2, 1)
    assert slice_above(d, 0) == d
    assert slice_above(d, 9) == ()
    assert slice_right(d, 7) == ()
    assert slice_left(d, 0) == ()


def test_slices_agree_with_transposed_counterparts():
    for d in enumerate_diagrams_upto(BOUND):
        for k in range(0, max(len(d), d[0]) + 2):
            assert slice_right(d, k) == transpose(slice_above(transpose(d), k))
            assert slice_left(d, k) == transpose(transpose(d)[:k])
            assert degree(slice_above(d, k)) + degree(d[:k]) == degree(d)
            assert degree(slice_right(d, k)) + degree(slice_left(d, k)) == degree(d)


def test_complement_rotate_pinned_values():
    assert complement_rotate((7, 7, 7, 7, 6), 5, 7) == (1,)
    assert complement_rotate((3, 1), 2, 3) == (2,)
    assert complement_rotate((), 2, 3) == (3, 3)
    assert complement_rotate((3, 3), 2, 3) == ()
    assert complement_rotate((), 0, 0) == ()
    with pytest.raises(ValueError, match=re.escape("diagram () does not fit in a 0 x -1 box")):
        complement_rotate((), 0, -1)
    with pytest.raises(ValueError):
        complement_rotate((3, 1), 1, 3)


def test_complement_rotate_rejects_rows_out_of_order_or_out_of_the_box():
    """Every row is checked, not only the bottom one: (1, 3) neither decreases nor fits a 2 x 2 box."""
    with pytest.raises(ValueError, match=re.escape("diagram (1, 3) does not fit in a 2 x 2 box")):
        complement_rotate((1, 3), 2, 2)
    with pytest.raises(ValueError, match=re.escape("diagram (1, 3) does not fit in a 2 x 3 box")):
        complement_rotate((1, 3), 2, 3)
    for bad in ((3, -1), (-1,), (2, 3, 1)):
        with pytest.raises(ValueError, match="does not fit"):
            complement_rotate(bad, 3, 3)


@pytest.mark.parametrize("action", ["error", "default"])
def test_complement_rotate_reads_rows_by_the_integer_rule(action):
    """A non-integer row raises ValueError, with or without warnings as errors; an integral one is that int."""
    with warnings.catch_warnings():
        warnings.simplefilter(action)
        with pytest.raises(ValueError, match=re.escape("row length 1.5 is not an integer")):
            complement_rotate((1.5,), 1, 2)
        with pytest.raises(ValueError, match=re.escape("row length Fraction(5, 2) is not an integer")):
            complement_rotate((3, Fraction(5, 2)), 2, 3)
        result = complement_rotate((2.0, True), 2, 3)
    assert result == (2, 1) and all(type(h) is int for h in result)


def test_complement_rotate_reads_box_sides_by_the_integer_rule():
    """An integral side is that int; any other side raises ValueError, not TypeError."""
    with pytest.raises(ValueError, match=re.escape("box side 2.5 is not an integer")):
        complement_rotate((1,), 1, 2.5)
    with pytest.raises(ValueError, match=re.escape("box side 1.5 is not an integer")):
        complement_rotate((1,), 1.5, 2)
    result = complement_rotate((1,), 1, 2.0)
    assert result == (1,) and type(result[0]) is int


def test_complement_rotate_is_an_involution():
    for d in enumerate_diagrams_upto(BOUND):
        k = len(d)
        i = d[0]
        for dk in range(3):
            for di in range(3):
                c = complement_rotate(d, k + dk, i + di)
                assert complement_rotate(c, k + dk, i + di) == d
                assert degree(c) == (k + dk) * (i + di) - degree(d)


def test_generators_pinned_and_round_trip():
    assert to_generators((3, 3)) == ((3, 0), (0, 2))
    assert to_generators(()) == ((0, 0),)
    assert to_generators((1,)) == ((1, 0), (0, 1))
    assert from_generators([(3, 0), (0, 2)]) == (3, 3)
    assert from_generators([(0, 0)]) == ()
    # redundant generators are dropped
    assert from_generators([(2, 1), (1, 0), (0, 3)]) == (1, 1, 1)
    with pytest.raises(ValueError):
        from_generators([(1, 0), (1, 1)])  # no pure y-power
    with pytest.raises(ValueError):
        from_generators([(0, 1), (1, 1)])  # no pure x-power
    with pytest.raises(ValueError):
        from_generators([(1, -1), (0, 1)])  # negative exponent
    with pytest.raises(ValueError, match="at least one generator is required"):
        from_generators([])
    # rejected, not truncated to an int, as as_diagram rejects a row of 1.5
    with pytest.raises(ValueError, match="generator exponent 1.5 is not an integer"):
        from_generators([(1.5, 0), (0, 2.7)])
    with pytest.raises(ValueError, match="generator exponent 2.7 is not an integer"):
        from_generators([(1, 0), (0, 2.7)])
    assert from_generators([(2.0, 0), (0, 1.0)]) == (2,)


def test_generator_convention_and_round_trip_exhaustive():
    for d in enumerate_diagrams_upto(BOUND):
        gens = to_generators(d)
        a_values = [a for a, _ in gens]
        b_values = [b for _, b in gens]
        assert a_values == sorted(a_values, reverse=True)
        assert len(set(a_values)) == len(a_values)
        assert b_values == sorted(b_values)
        assert len(set(b_values)) == len(b_values)
        assert b_values[0] == 0
        assert a_values[-1] == 0
        assert from_generators(gens) == d


def test_enumeration_counts_match_pentagonal_recurrence():
    p = partition_counts(18)
    assert p[4] == 5
    assert p[10] == 42
    assert sum(p) == 1597
    with pytest.raises(ValueError, match="degree must be nonnegative, got -1"):
        next(enumerate_diagrams(-1))
    for n in range(0, 13):
        diagrams = list(enumerate_diagrams(n))
        assert len(diagrams) == p[n]
        assert len(set(diagrams)) == len(diagrams)
        for d in diagrams:
            assert degree(d) == n
            assert as_diagram(d) == d


def test_enumeration_order_is_deterministic():
    assert list(enumerate_diagrams(4)) == [
        (4,),
        (3, 1),
        (2, 2),
        (2, 1, 1),
        (1, 1, 1, 1),
    ]
    assert list(enumerate_diagrams_upto(3)) == [
        (1,),
        (2,),
        (1, 1),
        (3,),
        (2, 1),
        (1, 1, 1),
    ]


def test_parse_ideal_monomial_grammar():
    assert parse_ideal("x^9,x^7y^2,y^8") == (9, 9, 7, 7, 7, 7, 7, 7)
    assert parse_ideal(" x ^ 9 , x ^ 7 y ^ 2 , y ^ 8 ") == parse_ideal("x^9,x^7y^2,y^8")
    assert parse_ideal("x,y") == (1,)
    assert parse_ideal("xy^4,x^7,x^6y,x^2y^3,y^5") == (7, 6, 6, 2, 1)
    assert parse_ideal("1") == ()
    assert parse_ideal("x^3,y^2") == (3, 3)


def test_parse_ideal_rows_grammar():
    assert parse_ideal("rows:9,9,7,7,6,4,3,3") == (9, 9, 7, 7, 6, 4, 3, 3)
    assert parse_ideal("rows: 3, 3") == (3, 3)
    assert parse_ideal("rows:0") == ()
    assert parse_ideal("rows:3,2,0") == (3, 2)  # trailing zero rows are dropped
    assert parse_ideal("rows:") == ()


def test_parse_ideal_errors_carry_positions():
    with pytest.raises(IdealSyntaxError) as err:
        parse_ideal("x^2,,y")
    assert err.value.position == 4
    with pytest.raises(IdealSyntaxError):
        parse_ideal("x^2 y^3 z")
    with pytest.raises(IdealSyntaxError):
        parse_ideal("rows:3,a")
    with pytest.raises(IdealSyntaxError):
        parse_ideal("rows:1,2")
    with pytest.raises(IdealSyntaxError):
        parse_ideal("")
    with pytest.raises(ValueError):
        parse_ideal("x^2")  # no pure y-power


@pytest.mark.parametrize(
    "text, message, position",
    [
        ("x^2,z", "expected a monomial, found 'z'", 4),
        ("x^2;y", "expected ',' between monomials, found ';'", 3),
        ("x^2,,y", "expected a monomial, found ','", 4),
        ("x^2,y,", "trailing comma", 6),
        ("", "empty ideal text", 0),
        ("  ", "empty ideal text", 0),
        ("rows: 3,a", "expected a row length, found 'a'", 7),
        ("rows:3;1", "expected ',' between row lengths, found ';'", 6),
        ("rows:3,,1", "expected a row length, found ','", 7),
        ("rows:3,1,", "trailing comma", 9),
        ("rows:,", "expected a row length, found ','", 5),
        ("rows: 1,2", "rows must be weakly decreasing bottom-to-top, got 1 before 2", 5),
        ("rows:3,0,2", "rows must be weakly decreasing bottom-to-top, got 0 before 2", 5),
    ],
)
def test_parse_ideal_error_table(text, message, position):
    with pytest.raises(IdealSyntaxError) as err:
        parse_ideal(text)
    assert str(err.value) == f"{message} (position {position})"
    assert err.value.position == position


@pytest.mark.parametrize(
    "text, position",
    [
        ("rows: 3 1", 6),
        ("rows:3,1 0", 8),
        ("x^1 0,y", 3),
        ("x^2,y^1\t\n2", 7),
    ],
)
def test_whitespace_between_digits_is_an_error(text, position):
    with pytest.raises(IdealSyntaxError) as err:
        parse_ideal(text)
    assert str(err.value) == f"whitespace between digits (position {position})"
    assert err.value.position == position


def test_whitespace_elsewhere_is_insignificant():
    assert parse_ideal("rows: 3 , 1") == (3, 1)
    assert parse_ideal("x ^10, y") == (10,)
    assert parse_ideal("x^2 y^3, x^4, y^5") == parse_ideal("x^2y^3,x^4,y^5")


def test_render_ideal_round_trips():
    for d in enumerate_diagrams_upto(BOUND):
        assert parse_ideal(render_ideal(d)) == d
    assert render_ideal((9, 9, 7, 7, 7, 7, 7, 7)) == "x^9,x^7y^2,y^8"
    assert render_ideal(()) == "1"

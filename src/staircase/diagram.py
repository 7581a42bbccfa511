"""Block diagrams of monomial ideals, represented as integer partitions.

A zero-dimensional monomial subscheme of the plane is recorded by its block
diagram: the tuple of row lengths ``(h_1, h_2, ...)`` read bottom-to-top,
weakly decreasing, every entry positive.  The empty tuple is the empty scheme
(unit ideal).  Row ``j`` covers the lattice boxes ``{(a, j-1) : 0 <= a < h_j}``
of monomials *outside* the ideal with y-exponent ``j - 1``.

The tuple is read directly: ``len(d)`` is the number of rows, ``d[0]`` (the
bottom row) the number of columns on a nonempty diagram, and ``d[:k]`` the
slice of the bottom ``k`` rows.
"""

from __future__ import annotations

import re
from itertools import accumulate

Diagram = tuple[int, ...]
Generator = tuple[int, int]  # monomial x^a y^b as the exponent pair (a, b)


def as_diagram(rows) -> Diagram:
    """Validate an iterable of row lengths and return it as a diagram tuple.

    Rows must be integers, weakly decreasing and nonnegative; the zero rows,
    which can then only come last, are dropped.
    """
    rows = tuple(rows)
    if set(map(type, rows)) - {int}:
        rows = tuple(as_int(h, "row length") for h in rows)
    if rows != tuple(sorted(rows, reverse=True)):  # one C pass on sorted rows
        prev, cur = next((a, b) for a, b in zip(rows, rows[1:]) if a < b)
        raise ValueError(
            f"rows must be weakly decreasing bottom-to-top, got {prev} before {cur}"
        )
    if rows and rows[-1] < 0:
        raise ValueError(f"row length {rows[-1]} is negative")
    return rows[: rows.index(0)] if rows and not rows[-1] else rows


def as_int(value, noun: str) -> int:
    """``value`` as an int; a ValueError naming it as ``noun`` unless it is integral."""
    try:
        if value == int(value):
            return int(value)
    except (OverflowError, TypeError, ValueError):  # inf, nan, a non-number or bad text
        pass
    raise ValueError(f"{noun} {value!r} is not an integer")


class _RowText(dict):
    def __missing__(self, h):
        text = str(h)
        if type(h) is int:
            self[h] = text
        return text


_ROW_TEXT = _RowText()  # each int row length's decimal text, kept for the process


def row_texts(rows):
    """``map(str, rows)`` read from one process-wide memo: every row text the library writes.

    Only ints are stored.  A row equal to an int without being one (``2.0``, ``True``)
    occurs only in a hand-built unchecked dataclass: once ``2`` is stored,
    ``RankOne((2.0,))`` renders as ``I(2)``.
    """
    return map(_ROW_TEXT.__getitem__, rows)


def degree(diagram: Diagram) -> int:
    """Number of boxes (the length of the subscheme)."""
    return sum(diagram)


def transpose(diagram: Diagram) -> Diagram:
    """Reflect the diagram across the main diagonal (conjugate partition).

    One counting pass over the rows, then running sums from the right:
    column ``c`` is as high as the number of rows of length at least ``c``,
    so this costs O(r + c).
    """
    if not diagram:
        return ()
    counts = [0] * (diagram[0] + 1)  # counts[h]: the rows of length h
    for h in diagram:
        counts[h] += 1
    return tuple(accumulate(counts[:0:-1]))[::-1]


def complement_rotate(diagram: Diagram, k: int, i: int) -> Diagram:
    """Complement of the diagram inside a k x i box, rotated half a turn.

    Requires at most k rows, weakly decreasing from at most i to at least 0.
    The box sides, like the rows, are read as ints.  The operation is an
    involution for fixed box dimensions.
    """
    k, i = as_int(k, "box side"), as_int(i, "box side")
    if set(map(type, diagram)) - {int}:  # the rule of as_diagram: a row is read as an int or raises
        diagram = tuple(as_int(h, "row length") for h in diagram)
    if len(diagram) > k or not all(map(int.__ge__, (i,) + diagram, diagram + (0,))):
        raise ValueError(
            f"diagram {diagram} does not fit in a {k} x {i} box"
        )
    padded = diagram + (0,) * (k - len(diagram))
    return tuple(i - h for h in reversed(padded) if h < i)


def to_generators(diagram: Diagram) -> tuple[Generator, ...]:
    """Minimal monomial generators (a, b) of the ideal, ordered by falling a.

    The exponents satisfy ``a_1 > ... > a_r = 0`` and ``0 = b_1 < ... < b_r``;
    the empty diagram gives the unit ideal, generated by the monomial 1.
    """
    if not diagram:
        return ((0, 0),)
    gens = [(diagram[0], 0)]
    for j, h in enumerate(diagram[1:], start=2):
        if h < diagram[j - 2]:
            gens.append((h, j - 1))
    gens.append((0, len(diagram)))
    return tuple(gens)


def from_generators(generators) -> Diagram:
    """Diagram of the monomial ideal generated by the exponent pairs given.

    Redundant generators are dropped.  The ideal must contain a pure x-power
    and a pure y-power (otherwise the subscheme is not zero-dimensional).
    """
    noun = "generator exponent"
    gens = sorted({(as_int(a, noun), as_int(b, noun)) for a, b in generators})
    if any(a < 0 or b < 0 for a, b in gens):
        raise ValueError("generator exponents must be nonnegative")
    if not gens:
        raise ValueError("at least one generator is required")
    if gens[0][0] != 0:
        raise ValueError("ideal lacks a pure y-power; scheme is not zero-dimensional")
    rows: list[int] = []  # top to bottom
    height = gens[0][1]  # the pure y-power caps the number of rows
    for a, b in gens[1:]:  # ascending a, then ascending b: minimal while b falls
        if b < height:
            rows.extend([a] * (height - b))
            height = b
    if height != 0:
        raise ValueError("ideal lacks a pure x-power; scheme is not zero-dimensional")
    return tuple(reversed(rows))


class IdealSyntaxError(ValueError):
    """Malformed ideal text; carries the offending position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (position {position})")
        self.position = position


# ASCII digits: \d takes any Unicode digit, and re.ASCII would stop \s taking U+00A0, which split() strips
_MONOMIAL = re.compile(r"1|(?=[xy])(x(?:\^([0-9]+))?)?(y(?:\^([0-9]+))?)?")
_ROWS_ITEM = re.compile(r"[0-9]+")
_SPLIT_NUMBER = re.compile(r"[0-9]\s+(?=[0-9])")


def parse_ideal(text: str) -> Diagram:
    """Parse ideal text into a diagram.

    Two grammars of ASCII digits are accepted; whitespace is insignificant except
    between two digits, where it is an error rather than part of one number:

    * a comma-separated list of monomials, e.g. ``x^9, x^7y^2, y^8`` (an
      exponent of 1 may be omitted, ``1`` denotes the unit ideal);
    * explicit row lengths, e.g. ``rows:9,9,7,7,6,4,3,3``.

    Syntax problems raise :class:`IdealSyntaxError` with the position of the
    offending character, counted in the text with its whitespace removed; a
    well-formed ideal without a pure x- and y-power raises a plain
    :class:`ValueError`.
    """
    split = _SPLIT_NUMBER.search(text)
    if split is not None:
        raise IdealSyntaxError(
            "whitespace between digits", len("".join(text[: split.end()].split()))
        )
    compact = "".join(text.split())
    if compact.startswith("rows:"):
        return _parse_rows(compact, len("rows:"))
    if not compact:
        raise IdealSyntaxError("empty ideal text", 0)
    matches = _comma_list(compact, 0, _MONOMIAL, "a monomial", "monomials")
    return from_generators([_exponents(match) for match in matches])


def _parse_rows(compact: str, start: int) -> Diagram:
    if start == len(compact):
        return ()
    matches = _comma_list(compact, start, _ROWS_ITEM, "a row length", "row lengths")
    rows = [int(match.group(0)) for match in matches]
    try:
        return as_diagram(rows)
    except ValueError as exc:
        raise IdealSyntaxError(str(exc), start) from exc


def _comma_list(compact: str, pos: int, pattern: re.Pattern, item: str, items: str):
    """Yield the pattern's matches in the comma list from ``pos`` to the end."""
    while True:
        match = pattern.match(compact, pos)
        if match is None:
            raise IdealSyntaxError(
                f"expected {item}, found {compact[pos:pos + 1]!r}", pos
            )
        yield match
        pos = match.end()
        if pos == len(compact):
            return
        if compact[pos] != ",":
            raise IdealSyntaxError(
                f"expected ',' between {items}, found {compact[pos]!r}", pos
            )
        pos += 1
        if pos == len(compact):
            raise IdealSyntaxError("trailing comma", pos)


def _exponents(match: re.Match) -> Generator:
    """The exponent pair (a, b) of a matched monomial; an omitted exponent is 1."""
    x, a, y, b = match.groups()  # all None for the unit ideal ``1``
    return (int(a or 1) if x else 0, int(b or 1) if y else 0)


def render_ideal(diagram: Diagram) -> str:
    """Inverse of :func:`parse_ideal` for the monomial grammar."""
    return ",".join(render_monomial(a, b) for a, b in to_generators(diagram))


def render_monomial(a: int, b: int) -> str:
    """``x^a y^b`` as ideal text: ``1`` for the unit, exponents of 1 and zero powers left out."""
    if a == 0 and b == 0:
        return "1"
    parts = []
    if a == 1:
        parts.append("x")
    elif a > 1:
        parts.append(f"x^{a}")
    if b == 1:
        parts.append("y")
    elif b > 1:
        parts.append(f"y^{b}")
    return "".join(parts)


def enumerate_diagrams(n: int):
    """Yield every diagram of degree n in reverse-lexicographic order."""
    n = as_int(n, "degree")
    if n < 0:
        raise ValueError(f"degree must be nonnegative, got {n}")
    yield from _partitions(n, n)


def enumerate_diagrams_upto(n_max: int):
    """Yield every nonempty diagram of degree 1..n_max, degrees ascending."""
    n_max = as_int(n_max, "degree bound")
    for n in range(1, n_max + 1):
        yield from enumerate_diagrams(n)


def _partitions(n: int, max_part: int):
    if n == 0:
        yield ()
        return
    for first in range(min(n, max_part), 0, -1):
        for rest in _partitions(n - first, first):
            yield (first,) + rest


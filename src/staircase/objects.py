"""Monomial objects, destabilizing sequences, and decomposition trees.

Three kinds of nontrivial objects occur:

* ``RankOne(D, twist)`` — twisted ideal sheaf I_Z(twist);
* ``RankZero(D, twist)`` — I_{Z in kL}(twist), a scheme lying on the k
  lines of its k rows; construction requires horizontal purity, and the
  read-only ``k`` is the row count of D;
* ``RankMinusOne(D, twist)`` — the two-term complex
  O(-k) + O(-i) -> I_Z (twisted) on the k x i bounding box of D; the
  read-only ``k`` and ``i`` are the row count and bottom-row length of D.

Trivial objects are the leaves ``LineBundle(m)`` = O(m) and
``ShiftedLineBundle(m)`` = O(m)[1]; the factory functions normalize the
degenerate unions (empty diagram, full rectangle) to them so leaf multisets
compare canonically.  A vertical cut is a horizontal cut of the transpose:
a cut family is a list of ``lengths``, the rows of D or its columns
``transpose(D)``, and cut ``j`` puts ``lengths[j:]`` in the sub, twisted by
``-j``, and ``lengths[:j]`` in the quotient.  A rank-0 part keeps the sliced
lengths as its diagram, so vertically supported rank-0 objects are stored
transposed, which changes none of the invariants.  A rank +-1 part of a
vertical cut is sliced straight from the rows of D: right of column ``j``
are the first ``lengths[j]`` rows less ``j`` each, and left of it every row
capped at ``j``.  Parts sliced from a valid diagram are valid, so they skip
the input validation of the public factories; the rank-0 purity check runs
on every part.

Destabilization picks the largest candidate wall by the per-type integer
keys that :func:`destabilizing_sequence` states, and computes only the
chosen cut's wall; :func:`candidate_walls` evaluates the general
:func:`wall_from_parts` on every candidate and stays the reference the
selection is tested against.  Decomposing yields a finite tree of trivial
leaves.
"""

from __future__ import annotations

import json
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, islice, repeat
from typing import Iterator

from .diagram import (
    Diagram,
    as_diagram,
    col_count,
    complement_rotate,
    degree,
    full_col_count,
    full_row_count,
    row_count,
    transpose,
)
from .ktheory import (
    ChernCharacter,
    from_integers,
    ideal_integers,
    rank0_integers,
    rank_minus1_integers,
)
from .slopes import is_horizontally_pure
from .walls import SemicircleWall, is_empty, orthogonal_invariants, wall_from_parts
from .walls import potential_wall  # noqa: F401  kept bound here: perfbench's tracer test patches it

Cut = tuple[str, int]  # ("horizontal" | "vertical", index)


@dataclass(frozen=True)
class LineBundle:
    """O(twist): the trivial rank-1 object."""

    twist: int


@dataclass(frozen=True)
class ShiftedLineBundle:
    """O(twist)[1]: the trivial shifted object."""

    twist: int


@dataclass(frozen=True)
class RankOne:
    diagram: Diagram
    twist: int = 0


@dataclass(frozen=True)
class RankZero:
    diagram: Diagram
    twist: int = 0

    @property
    def k(self) -> int:
        return len(self.diagram)


@dataclass(frozen=True)
class RankMinusOne:
    diagram: Diagram
    twist: int = 0

    @property
    def k(self) -> int:
        return len(self.diagram)

    @property
    def i(self) -> int:
        return self.diagram[0]


MonomialObject = LineBundle | ShiftedLineBundle | RankOne | RankZero | RankMinusOne


@dataclass(frozen=True)
class DestabilizingSequence:
    sub: MonomialObject
    quotient: MonomialObject
    wall: SemicircleWall
    cut: Cut


@dataclass(frozen=True)
class DecompositionTree:
    node: MonomialObject
    sequence: DestabilizingSequence | None = None
    sub: DecompositionTree | None = None
    quotient: DecompositionTree | None = None

    @property
    def is_leaf(self) -> bool:
        return self.sequence is None

    def __eq__(self, other):
        """Node by node along both preorder walks, not bounded by the recursion limit.

        Equal sequences give equal shapes, so the walks end together.
        """
        if other.__class__ is not self.__class__:
            return NotImplemented
        return all(
            a.node == b.node and a.sequence == b.sequence
            for (a, _, _), (b, _, _) in zip(walk(self), walk(other))
        )

    def __hash__(self):
        """The root's; equal trees have equal roots, so this agrees with ``__eq__``."""
        return hash((self.node, self.sequence))


def rank_one(diagram, twist: int = 0) -> LineBundle | RankOne:
    """I_Z(twist), normalized to O(twist) for the empty scheme."""
    return _rank_one(as_diagram(diagram), twist)


def rank_zero(diagram, twist: int = 0) -> RankZero:
    """I_{Z in kL}(twist) on the k = r(D) lines of its rows; requires horizontal purity."""
    return _rank_zero(as_diagram(diagram), twist)


def rank_minus_one(diagram, twist: int = 0) -> ShiftedLineBundle | RankMinusOne:
    """O(-k) + O(-i) -> I_Z (twisted) on Z's k x i bounding box; trivial if Z fills it."""
    return _rank_minus_one(as_diagram(diagram), twist)


# The factories behind the public ones, on a diagram already valid.


def _rank_one(diagram: Diagram, twist: int) -> LineBundle | RankOne:
    return RankOne(diagram, twist) if diagram else LineBundle(twist)


def _rank_zero(diagram: Diagram, twist: int) -> RankZero:
    k = row_count(diagram)
    if k < 1:
        raise ValueError(f"need at least one supporting line, got k={k}")
    if not is_horizontally_pure(diagram):
        raise ValueError(
            f"diagram {diagram} on {k} lines is not horizontally pure"
        )
    return RankZero(diagram, twist)


def _rank_minus_one(diagram: Diagram, twist: int) -> ShiftedLineBundle | RankMinusOne:
    k, i = row_count(diagram), col_count(diagram)
    if not diagram:
        raise ValueError(f"box dimensions must be positive, got {k} x {i}")
    if diagram[-1] == i:  # every row as long as the bottom one: Z fills its box
        return ShiftedLineBundle(twist - k - i)
    return RankMinusOne(diagram, twist)


def is_trivial(obj: MonomialObject) -> bool:
    return isinstance(obj, (LineBundle, ShiftedLineBundle))


def integer_character(obj: MonomialObject) -> tuple[int, int, int]:
    """``(r, c1, 2*ch2)`` of any monomial object: its type's ints, twisted to c1 + r*t, 2*ch2 + 2*c1*t + r*t^2."""
    if isinstance(obj, RankOne):
        r, c1, ch2_twice = ideal_integers(obj.diagram)
    elif isinstance(obj, RankZero):
        r, c1, ch2_twice = rank0_integers(obj.diagram)
    elif isinstance(obj, RankMinusOne):
        r, c1, ch2_twice = rank_minus1_integers(obj.diagram)
    else:
        r, c1, ch2_twice = (1 if isinstance(obj, LineBundle) else -1), 0, 0
    t = obj.twist
    return r, c1 + r * t, ch2_twice + 2 * c1 * t + r * t * t


def chern_of(obj: MonomialObject) -> ChernCharacter:
    """The Chern character of any monomial object."""
    return from_integers(*integer_character(obj))


def candidate_walls(obj: MonomialObject) -> list[tuple[Cut, SemicircleWall]]:
    """Every candidate destabilizing cut with its wall: the reference path.

    Walls come from the general formula :func:`wall_from_parts` between the
    candidate subobject's integer character and the object's own, never from
    specialized radius formulas.  :func:`destabilizing_sequence` picks its
    cut without these walls, and the tests compare the two.
    """
    if is_trivial(obj):
        raise ValueError(f"trivial object {obj!r} has no candidate walls")
    target = integer_character(obj)
    return [(cut, _candidate_wall(cut, sub, target)) for cut, sub, _ in _candidate_subs(obj)]


def _candidate_wall(cut: Cut, sub, target) -> SemicircleWall:
    """The wall of two ``(r, c1, 2*ch2)`` characters; raises unless a semicircle."""
    (r1, c1, e1), (r2, c2, e2) = sub, target
    wall = wall_from_parts(r1, c1, 1, e1, 2, r2, c2, 1, e2, 2)
    if not isinstance(wall, SemicircleWall):
        raise AssertionError(f"candidate wall at {cut} is not a semicircle")
    return wall


def _families(obj: MonomialObject) -> tuple[tuple[str, Diagram, int, int], ...]:
    """(direction, lengths, first, last) of each cut family, horizontal first.

    Cut ``j`` runs from ``first >= 1`` to ``last``, and a rank -1 family
    stops at ``len(lengths) - 1``, so every selection key has a positive
    denominator.
    """
    d = obj.diagram
    if isinstance(obj, RankOne):
        return ("horizontal", d, 1, row_count(d)), ("vertical", transpose(d), 1, col_count(d))
    if isinstance(obj, RankZero):
        return (("vertical", transpose(d), full_col_count(d), col_count(d)),)
    return (
        ("horizontal", d, full_row_count(d), obj.k - 1),
        ("vertical", transpose(d), full_col_count(d), obj.i - 1),
    )


def _sub_character(obj: MonomialObject, lengths: Diagram, j: int, left: int) -> tuple[int, int, int]:
    """(r, c1, 2*ch2) of the sub at cut ``j`` keeping n' = ``left`` boxes, all ints.

    I_{Z'}(m), m = t - j, is ``(1, m, m^2 - 2n')``, and I_{Z' in KL}(m) with
    ``K = len(lengths) - j`` is ``(0, K, -K^2 - 2n' + 2Km)``.
    """
    m = obj.twist - j
    if isinstance(obj, RankMinusOne):
        k = len(lengths) - j
        return 0, k, -k * k - 2 * left + 2 * k * m
    return 1, m, m * m - 2 * left


def _candidate_subs(obj: MonomialObject):
    """(cut, (r, c1, 2*ch2), lengths) of every candidate subobject, in preference order."""
    n = degree(obj.diagram)
    for direction, lengths, first, last in _families(obj):
        cut_off = [0, *accumulate(lengths)]
        for j in range(first, last + 1):
            yield (direction, j), _sub_character(obj, lengths, j, n - cut_off[j]), lengths


def destabilizing_sequence(obj: MonomialObject) -> DestabilizingSequence:
    """The sequence along the largest candidate wall.

    Largest means: most negative center (rank 1), largest squared radius
    (rank 0, all candidates concentric), least negative center (rank -1);
    the first cut of :func:`_families` wins a tie.  One loop per object type
    walks each family once with ``w_j = sum(lengths[:j])`` and scores each
    cut by one integer key, read off :func:`wall_from_parts` with
    ``m = t - j``, ``n' = n - w_j``:

    * rank 1: center ``t - (j^2 + 2w_j)/2j``, so the first maximum of
      ``(j^2 + 2w_j)/j``, the slope key, as ``mu_j = (j^2 + 2w_j)/2j - 3/2``;
    * rank 0 ``(0, K, E)``: center ``E/2K`` and radius_sq ``(E^2 - 4Kx)/4K^2``
      with ``x = mE - K(m^2 - 2n')``, so the first minimum of ``x``;
    * rank -1, ``K' = len(lengths) - j``: center ``-(K'^2 + 2n' - 2K'm)/2K'``,
      so the first minimum of ``(K'^2 + 2n' - 2K'm)/K'``.

    Keys compare by cross-multiplication.  Only the chosen cut gets its
    character and its wall, from :func:`wall_from_parts`, so a dependent,
    vertical or empty wall raises there.  :func:`candidate_walls` stays the
    reference; the oracle's ``chern`` check compares every node's cut with it.
    """
    if is_trivial(obj):
        raise ValueError(f"trivial object {obj!r} has no candidate walls")
    target = r, big_k, e = integer_character(obj)
    t, n = obj.twist, degree(obj.diagram)
    families = _families(obj)
    # the chosen (family, j, w_j) and its key p/q, q > 0, from 0/1 (below every
    # rank 1 key) or 1/0 (above every rank 0 and rank -1 key)
    if r == 1:  # the first maximum of (j^2 + 2w_j)/j; the twist drops out
        best, bp, bq = None, 0, 1
        for family in families:
            for j, w in _cut_walk(family):
                p = j * j + 2 * w
                if p * bq > bp * j:
                    best, bp, bq = (family, j, w), p, j
    elif r == 0:  # the first minimum of x
        best, bp, bq = None, 1, 0
        for family in families:
            for j, w in _cut_walk(family):
                m = t - j
                p = m * e - big_k * (m * m - 2 * (n - w))
                if p * bq < bp:
                    best, bp, bq = (family, j, w), p, 1
    else:  # the first minimum of (K'^2 + 2n' - 2K'm)/K'
        best, bp, bq = None, 1, 0
        for family in families:
            size = len(family[1])
            for j, w in _cut_walk(family):
                k = size - j
                p = k * k + 2 * (n - w) - 2 * k * (t - j)
                if p * bq < bp * k:
                    best, bp, bq = (family, j, w), p, k
    (direction, lengths, _, _), j, w = best
    cut = direction, j
    wall = _candidate_wall(cut, _sub_character(obj, lengths, j, n - w), target)
    if is_empty(wall):
        raise AssertionError(f"selected wall at {cut} for {obj!r} is empty")
    return DestabilizingSequence(*_sequence_parts(obj, cut, lengths), wall, cut)


def _cut_walk(family):
    """``(j, w_j)`` for the cuts ``j = first..last`` of a family, ``w_j = sum(lengths[:j])``."""
    _, lengths, first, last = family
    return enumerate(islice(accumulate(lengths[:last]), first - 1, None), first)


def _sequence_parts(obj: MonomialObject, cut: Cut, lengths) -> tuple[MonomialObject, MonomialObject]:
    """(sub, quotient) at ``cut`` of its family ``lengths``, by the slicing rule of the module docstring."""
    direction, j = cut
    d, t = obj.diagram, obj.twist
    if isinstance(obj, RankOne):
        return _rank_one(_rows_past(d, cut, lengths), t - j), _rank_zero(lengths[:j], t)
    if isinstance(obj, RankZero):
        return _rank_one(_rows_past(d, cut, lengths), t - j), _rank_minus_one(_rows_before(d, cut), t)
    return _rank_zero(lengths[j:], t - j), _rank_minus_one(_rows_before(d, cut), t)


def _rows_past(d: Diagram, cut: Cut, lengths) -> Diagram:
    """The rows of ``d`` above cut ``j``, or right of column ``j``.

    Right of column ``j`` lie the first ``lengths[j]`` rows, each less ``j``,
    and nothing right of the last column.
    """
    direction, j = cut
    if direction == "horizontal":
        return d[j:]
    return tuple(map(operator.sub, d[: lengths[j]], repeat(j))) if j < len(lengths) else ()


def _rows_before(d: Diagram, cut: Cut) -> Diagram:
    """The rows of ``d`` below cut ``j``, or left of column ``j``: every row capped at ``j``."""
    direction, j = cut
    return d[:j] if direction == "horizontal" else tuple(map(min, d, repeat(j)))


@lru_cache(maxsize=None)
def decompose(obj: MonomialObject) -> DecompositionTree:
    """The full decomposition tree; trivial objects give leaves."""
    if is_trivial(obj):
        return DecompositionTree(obj)
    sequence = destabilizing_sequence(obj)
    return DecompositionTree(
        obj,
        sequence,
        decompose(sequence.sub),
        decompose(sequence.quotient),
    )


def walk(tree: DecompositionTree) -> Iterator[tuple[DecompositionTree, int, str | None]]:
    """Preorder (sub before quotient) of ``(subtree, depth, role)`` triples.

    ``role`` is ``"sub"`` or ``"quotient"``, and ``None`` at the root.  The
    walk keeps an explicit stack, so tree depth is not bounded by the
    recursion limit.
    """
    stack = [(tree, 0, None)]
    while stack:
        item = stack.pop()
        yield item
        subtree, depth, _ = item
        if not subtree.is_leaf:
            stack.append((subtree.quotient, depth + 1, "quotient"))
            stack.append((subtree.sub, depth + 1, "sub"))


def leaves(tree: DecompositionTree) -> list[MonomialObject]:
    """Leaf objects in left-to-right (sub before quotient) order."""
    return [t.node for t, _, _ in walk(tree) if t.is_leaf]


def mu_opt(obj: MonomialObject) -> Fraction:
    """The optimal (destabilizing) slope of a nontrivial object."""
    if is_trivial(obj):
        raise ValueError(f"trivial object {obj!r} has no optimal invariants")
    return orthogonal_invariants(destabilizing_sequence(obj).wall)[0]


def derived_dual(obj: RankMinusOne) -> tuple[Diagram, int]:
    """Rotated-complement dual data (diagram', twist') of a rank -1 object.

    The complex (O(-k) + O(-i) -> I_Z)(twist) dualizes to
    I_{Z'}(k + i - twist)[-1] with Z' the half-turn complement of Z in the
    k x i box; the shift is always -1.
    """
    if not isinstance(obj, RankMinusOne):
        raise ValueError(f"derived_dual acts on rank -1 objects, got {obj!r}")
    return complement_rotate(obj.diagram, obj.k, obj.i), obj.k + obj.i - obj.twist


def text_name(obj: MonomialObject) -> str:
    """Short human-readable name, e.g. I(4,3,3)(-5) or O(-8)."""
    if isinstance(obj, LineBundle):
        return f"O({obj.twist})"
    if isinstance(obj, ShiftedLineBundle):
        return f"O({obj.twist})[1]"
    rows = ",".join(str(h) for h in obj.diagram)
    suffix = f"({obj.twist})" if obj.twist else ""
    if isinstance(obj, RankOne):
        return f"I({rows}){suffix}"
    if isinstance(obj, RankZero):
        return f"I({rows} in {obj.k}L){suffix}"
    return f"F({rows} in {obj.k}x{obj.i}){suffix}"


def render_tree(tree: DecompositionTree) -> str:
    """Indented text rendering of a decomposition tree."""
    lines = []
    for t, depth, role in walk(tree):
        pad = "  " * depth
        if role is not None:
            lines.append(f"{pad[2:]}{role}:\n")
        if t.is_leaf:
            lines.append(f"{pad}{text_name(t.node)}\n")
            continue
        seq = t.sequence
        direction, index = seq.cut
        lines.append(
            f"{pad}{text_name(t.node)}"
            f"  [cut {direction} {index}; wall center {seq.wall.center},"
            f" radius_sq {seq.wall.radius_sq}]\n"
        )
    return "".join(lines)


_TYPE_NAMES = {
    LineBundle: "line_bundle",
    ShiftedLineBundle: "shifted_line_bundle",
    RankOne: "rank1",
    RankZero: "rank0",
    RankMinusOne: "rank-1",
}


def _json_block(brackets: str, items, nl: str, step: str) -> str:
    """JSON ``items`` in ``brackets``, each on its own line at ``nl + step``."""
    inner = nl + step
    return brackets[0] + inner + ("," + inner).join(items) + nl + brackets[1]


def _object_json(obj: MonomialObject, nl: str, step: str, colon: str) -> str:
    """The object's JSON, keys sorted: colines, diagram, lines, twist, type."""
    members = []
    if not is_trivial(obj):
        if isinstance(obj, RankMinusOne):
            members.append(f'"colines"{colon}{obj.i}')
        diagram = _json_block("[]", map(str, obj.diagram), nl + step, step)
        members.append(f'"diagram"{colon}{diagram}')
        if not isinstance(obj, RankOne):
            members.append(f'"lines"{colon}{obj.k}')
    members.append(f'"twist"{colon}{obj.twist}')
    members.append(f'"type"{colon}"{_TYPE_NAMES[type(obj)]}"')
    return _json_block("{}", members, nl, step)


_KINDS = {dict: "an object", int: "an integer", list: "a list", str: "a string"}


def _member(data, key: str, kind: type):
    """``data[key]`` of exactly type ``kind``: bool, an int subclass, is no integer."""
    if type(data) is not dict or key not in data:
        raise ValueError(f"expected a JSON object with the member {key!r}")
    if type(data[key]) is not kind:
        raise ValueError(f"{key} must be {_KINDS[kind]}, got {data[key]!r}")
    return data[key]


def _diagram(data: dict) -> Diagram:
    rows = _member(data, "diagram", list)
    if any(type(h) is not int for h in rows):  # the rule of _member, row by row
        raise ValueError(f"diagram rows must be integers, got {rows!r}")
    return as_diagram(rows)


def _fraction(data: dict, key: str) -> Fraction:
    try:
        return Fraction(_member(data, key, str))  # serialize_tree writes exact fraction text
    except ZeroDivisionError:
        raise ValueError(f"{key} has a zero denominator") from None


def object_from_dict(data: dict) -> MonomialObject:
    kind, twist = _member(data, "type", str), _member(data, "twist", int)
    if kind == "line_bundle":
        obj = LineBundle(twist)
    elif kind == "shifted_line_bundle":
        obj = ShiftedLineBundle(twist)
    elif kind == "rank1":
        obj = rank_one(_diagram(data), twist)
    elif kind == "rank0":
        diagram, k = _diagram(data), _member(data, "lines", int)
        if row_count(diagram) != k:
            raise ValueError(f"diagram {diagram} does not lie on exactly {k} lines")
        obj = rank_zero(diagram, twist)
    elif kind == "rank-1":
        diagram = _diagram(data)
        k, i = _member(data, "lines", int), _member(data, "colines", int)
        if (row_count(diagram), col_count(diagram)) != (k, i):
            raise ValueError(f"diagram {diagram} does not fill a {k} x {i} bounding box")
        obj = rank_minus_one(diagram, twist)
    else:
        raise ValueError(f"unknown object type {kind!r}")
    # an empty rank-1 diagram, or a full rank -1 box, builds a trivial object
    if _TYPE_NAMES[type(obj)] != kind:
        raise ValueError(f"a {kind} object cannot be {text_name(obj)}")
    return obj


def tree_from_dict(data: dict) -> DecompositionTree:
    node = object_from_dict(_member(data, "object", dict))
    if "cut" not in data:
        return DecompositionTree(node)
    if is_trivial(node):
        raise ValueError(f"the trivial object {text_name(node)} has no cut")
    cut = tuple(_member(data, "cut", list))
    # serialize_tree writes both as they are, unescaped
    if len(cut) != 2 or cut[0] not in ("horizontal", "vertical") or type(cut[1]) is not int:
        raise ValueError(f"cut must be a direction and an integer index, got {list(cut)!r}")
    sub = tree_from_dict(_member(data, "sub", dict))
    quotient = tree_from_dict(_member(data, "quotient", dict))
    wall = _member(data, "wall", dict)
    wall = SemicircleWall(_fraction(wall, "center"), _fraction(wall, "radius_sq"))
    sequence = DestabilizingSequence(sub.node, quotient.node, wall, cut)
    return DecompositionTree(node, sequence, sub, quotient)


def serialize_tree(tree: DecompositionTree, pretty: bool = False) -> str:
    """Canonical JSON text of a tree; byte-identical for equal trees.

    The text is what ``json.dumps(..., sort_keys=True)`` gives for the nested
    members, compact or with ``indent=2`` (every member and list element on
    its own line).  A node's keys sort as ``cut``, ``object``, ``quotient``,
    ``sub``, ``wall``, so the quotient subtree is written before the sub.
    One pass with an explicit stack of subtrees and pending text writes it,
    so tree depth is not bounded by the recursion limit.
    """
    step, colon = ("  ", ": ") if pretty else ("", ":")
    parts = []
    # (subtree, newline and indent of its closing brace), or text to emit
    stack: list = [(tree, "\n" if pretty else "")]
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            parts.append(item)
            continue
        t, nl = item
        inner = nl + step
        obj = _object_json(t.node, inner, step, colon)
        if t.is_leaf:
            parts.append(f'{{{inner}"object"{colon}{obj}{nl}}}')
            continue
        (direction, index), wall = t.sequence.cut, t.sequence.wall
        cut = _json_block("[]", (f'"{direction}"', str(index)), inner, step)
        members = (f'"center"{colon}"{wall.center}"', f'"radius_sq"{colon}"{wall.radius_sq}"')
        parts.append(f'{{{inner}"cut"{colon}{cut},{inner}"object"{colon}{obj},{inner}"quotient"{colon}')
        stack.append(f',{inner}"wall"{colon}{_json_block("{}", members, inner, step)}{nl}}}')
        stack.append((t.sub, inner))
        stack.append(f',{inner}"sub"{colon}')
        stack.append((t.quotient, inner))
    return "".join(parts)


def parse_tree(text: str) -> DecompositionTree:
    """Inverse of :func:`serialize_tree`."""
    return tree_from_dict(json.loads(text))


def tree_to_dot(tree: DecompositionTree) -> str:
    """Graphviz rendering: sub child on the left, quotient on the right."""
    lines = [
        "digraph decomposition {",
        "  node [shape=box];",
        "  graph [ordering=out];",
    ]
    # internal nodes whose edges follow their subtree: [name, depth, quotient]
    pending: list[list] = []

    def close(depth: int) -> None:
        while pending and pending[-1][1] >= depth:
            name, _, quotient = pending.pop()
            lines.append(f'  n{name} -> n{name + 1} [label="sub"];')
            lines.append(f'  n{name} -> n{quotient} [label="quotient"];')

    for name, (t, depth, role) in enumerate(walk(tree)):
        close(depth)
        if role == "quotient":
            pending[-1][2] = name
        label = text_name(t.node).replace('"', r"\"")
        if t.is_leaf:
            lines.append(f'  n{name} [label="{label}"];')
            continue
        wall = t.sequence.wall
        lines.append(
            f'  n{name} [label="{label}\\ncenter {wall.center},'
            f' radius_sq {wall.radius_sq}"];'
        )
        pending.append([name, depth, None])
    close(0)
    lines.append("}")
    return "\n".join(lines) + "\n"

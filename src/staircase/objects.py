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
chosen cut's wall.  Every wall of a step, chosen or listed, comes from the integer
:func:`wall_minors` of the general wall formula: :func:`candidate_walls` builds each
candidate's, the tests' reference, and the oracle's ``chern`` check re-derives the
choice by :func:`first_largest_candidate` from them.  Decomposing yields a tree of trivial leaves.

:func:`walk` is the one preorder reader; :func:`decompose`, :func:`serialize_tree`
and :func:`tree_to_dot` finish a node at a marker pushed below its children.  All
keep an explicit stack, so only :func:`parse_tree` is bounded by the recursion limit.
"""

from __future__ import annotations

import json
import operator
from collections import Counter, namedtuple
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, islice, repeat
from typing import Iterator

from .diagram import (
    Diagram,
    as_diagram,
    as_int,
    complement_rotate,
    degree,
    transpose,
)
from .ktheory import ChernCharacter
from .slopes import is_horizontally_pure
from .walls import SemicircleWall, is_empty, orthogonal_invariants, wall_minors
from .walls import potential_wall  # noqa: F401  kept bound here: perfbench's tracer test patches it

Cut = tuple[str, int]  # ("horizontal" | "vertical", index)


@dataclass(frozen=True, slots=True)
class LineBundle:
    """O(twist): the trivial rank-1 object."""

    twist: int


@dataclass(frozen=True, slots=True)
class ShiftedLineBundle:
    """O(twist)[1]: the trivial shifted object."""

    twist: int


@dataclass(frozen=True, slots=True)
class RankOne:
    """I_Z(twist), built unchecked: outside input goes through :func:`rank_one`."""

    diagram: Diagram
    twist: int = 0


@dataclass(frozen=True, slots=True)
class RankZero:
    """I_{Z in kL}(twist), built unchecked: outside input goes through :func:`rank_zero`."""

    diagram: Diagram
    twist: int = 0

    @property
    def k(self) -> int:
        return len(self.diagram)


@dataclass(frozen=True, slots=True)
class RankMinusOne:
    """The rank -1 complex on Z's box, built unchecked: outside input goes through :func:`rank_minus_one`."""

    diagram: Diagram
    twist: int = 0

    @property
    def k(self) -> int:
        return len(self.diagram)

    @property
    def i(self) -> int:
        return self.diagram[0]


MonomialObject = LineBundle | ShiftedLineBundle | RankOne | RankZero | RankMinusOne


@dataclass(frozen=True, slots=True)
class DestabilizingSequence:
    sub: MonomialObject
    quotient: MonomialObject
    wall: SemicircleWall
    cut: Cut


@dataclass(frozen=True, slots=True)
class DecompositionTree:
    node: MonomialObject
    sequence: DestabilizingSequence | None = None
    sub: DecompositionTree | None = None
    quotient: DecompositionTree | None = None

    @property
    def is_leaf(self) -> bool:
        return self.sequence is None

    def __eq__(self, other):
        """Node by node along both preorder walks, which end together: equal sequences, equal shapes."""
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
    return _rank_one(as_diagram(diagram), as_int(twist, "twist"))


def rank_zero(diagram, twist: int = 0) -> RankZero:
    """I_{Z in kL}(twist) on the k = r(D) lines of its rows; requires horizontal purity."""
    return _rank_zero(as_diagram(diagram), as_int(twist, "twist"))


def rank_minus_one(diagram, twist: int = 0) -> ShiftedLineBundle | RankMinusOne:
    """O(-k) + O(-i) -> I_Z (twisted) on Z's k x i bounding box; trivial if Z fills it."""
    return _rank_minus_one(as_diagram(diagram), as_int(twist, "twist"))


# The factories behind the public ones, on a valid diagram and an int twist.


def _rank_one(diagram: Diagram, twist: int) -> LineBundle | RankOne:
    return RankOne(diagram, twist) if diagram else LineBundle(twist)


def _rank_zero(diagram: Diagram, twist: int) -> RankZero:
    if not diagram:
        raise ValueError(_EMPTY[RankZero])
    if not is_horizontally_pure(diagram):
        raise ValueError(
            f"diagram {diagram} on {len(diagram)} lines is not horizontally pure"
        )
    return RankZero(diagram, twist)


def _rank_minus_one(diagram: Diagram, twist: int) -> ShiftedLineBundle | RankMinusOne:
    if not diagram:
        raise ValueError(_EMPTY[RankMinusOne])
    k, i = len(diagram), diagram[0]
    if diagram[-1] == i:  # every row as long as the bottom one: Z fills its box
        return ShiftedLineBundle(twist - k - i)
    return RankMinusOne(diagram, twist)


def is_trivial(obj: MonomialObject) -> bool:
    return isinstance(obj, (LineBundle, ShiftedLineBundle))


def _character(r: int, k: int, i: int, n: int, t: int) -> tuple[int, int, int]:
    """``(r, c1, 2*ch2)`` of the rank-r monomial object of degree n, twisted by t.

    Untwisted, I_Z is ``(1, 0, -2n)``, I_{Z in kL} is ``(0, k, -k^2 - 2n)``
    and the complex on the k x i box is ``(-1, k + i, -(k^2 + i^2) - 2n)``;
    O(t) and O(t)[1] are the n = 0 cases of ranks 1 and -1, on a 0 x 0 box.
    """
    if r == 1:
        c1, ch2_twice = 0, -2 * n
    elif r == 0:
        c1, ch2_twice = k, -k * k - 2 * n
    else:
        c1, ch2_twice = k + i, -(k * k + i * i) - 2 * n
    return r, c1 + r * t, ch2_twice + 2 * c1 * t + r * t * t


_RANKS = {LineBundle: 1, RankOne: 1, RankZero: 0, RankMinusOne: -1, ShiftedLineBundle: -1}
_EMPTY = {
    RankOne: "need at least one box, got 0",
    RankZero: "need at least one supporting line, got 0",
    RankMinusOne: "box dimensions must be positive, got 0 x 0",
}


def integer_character(obj: MonomialObject) -> tuple[int, int, int]:
    """``(r, c1, 2*ch2)`` of any monomial object; every cutting step reads it first.

    A nontrivial object on the empty diagram, which only the unchecked dataclasses build, raises here.
    """
    if is_trivial(obj):
        return _character(_RANKS[type(obj)], 0, 0, 0, obj.twist)
    d = obj.diagram
    if not d:
        raise ValueError(_EMPTY[type(obj)])
    return _character(_RANKS[type(obj)], len(d), d[0], degree(d), obj.twist)


def chern_of(obj: MonomialObject) -> ChernCharacter:
    """The Chern character of any monomial object; its ints with d = 1 are already the stored form."""
    return ChernCharacter(*integer_character(obj), 1)


def rank0_hilbert_polynomial(diagram: Diagram) -> tuple[Fraction, Fraction]:
    """Hilbert polynomial of I_{Z in kL} as (leading, constant): kx - (n + (k^2-3k)/2), k = r(D).

    By Riemann-Roch it is chi of the twists of ``(0, k, 2*ch2)``: kx + (3k + 2*ch2)/2, on any D, pure or not.
    """
    _, k, ch2_twice = integer_character(RankZero(diagram))
    return Fraction(k), Fraction(3 * k + ch2_twice, 2)


def candidate_walls(obj: MonomialObject) -> list[tuple[Cut, SemicircleWall]]:
    """Every candidate destabilizing cut with its wall: the reference path.

    Walls come from the minors of the general formula, :func:`wall_minors`, between
    the candidate subobject's integer character and the object's own, never from
    specialized radius formulas.  :func:`destabilizing_sequence` picks its
    cut without these walls; the tests compare it and :func:`first_largest_candidate` with them.
    """
    target = integer_character(obj)
    return [
        (cut, SemicircleWall.from_minors(*_candidate_minors(cut, sub, target)))
        for cut, sub, _ in _candidate_subs(obj)
    ]


def first_largest_candidate(obj: MonomialObject) -> tuple[Cut, SemicircleWall]:
    """The ``(cut, wall)`` that ``min``/``max`` takes from :func:`candidate_walls`, building one wall.

    Each candidate's :func:`wall_minors` (q = 1) give a key ``p/c^2``, maximized by cross-multiplying:
    ``n^2 + 4c cross`` is 4 radius_sq at rank 0, ``-r nc`` is -2r center at rank r = +-1; the first wins.
    """
    target = r, _, _ = integer_character(obj)
    best, bp, bd = None, -1, 0  # -1/0 is below every key
    for cut, sub, _ in _candidate_subs(obj):
        minors = _, c, n, cross = _candidate_minors(cut, sub, target)
        p, d = (n * n + 4 * c * cross if r == 0 else -r * n * c), c * c
        if p * bd > bp * d:
            best, bp, bd = (cut, minors), p, d
    return best[0], SemicircleWall.from_minors(*best[1])


def _candidate_minors(cut: Cut, sub, target) -> tuple[int, int, int, int]:
    """:func:`wall_minors` of two ``(r, c1, 2*ch2)`` characters; raises unless they bound a semicircle."""
    minors = wall_minors(*sub, 1, *target, 1)
    if minors[1] == 0:
        raise AssertionError(f"candidate wall at {cut} is not a semicircle")
    return minors


def _families(obj: MonomialObject) -> tuple[tuple[str, Diagram, int, int], ...]:
    """(direction, lengths, first, last) of each cut family, horizontal first.

    Cut ``j`` runs from ``first >= 1`` to ``last``, and a rank -1 family
    stops at ``len(lengths) - 1``, so every selection key has a positive
    denominator.  A trivial object has none, nor has a rank -1 object on
    a full box, which only the unchecked dataclass builds.  Of D's rows,
    ``d.count(d[0])`` are as long as the bottom one, and the top row's
    length ``d[-1]`` is the number of full-height columns.
    """
    if is_trivial(obj):
        raise ValueError(f"trivial object {obj!r} has no candidate walls")
    d = obj.diagram
    if isinstance(obj, RankMinusOne) and d[-1] == d[0]:
        raise ValueError(f"{obj!r} fills its box, so it is trivial and has no candidate walls")
    if isinstance(obj, RankOne):
        return ("horizontal", d, 1, len(d)), ("vertical", transpose(d), 1, d[0])
    if isinstance(obj, RankZero):
        return (("vertical", transpose(d), d[-1], d[0]),)
    return (
        ("horizontal", d, d.count(d[0]), obj.k - 1),
        ("vertical", transpose(d), d[-1], obj.i - 1),
    )


def _sub_character(obj: MonomialObject, lengths: Diagram, j: int, left: int) -> tuple[int, int, int]:
    """(r, c1, 2*ch2) of the sub at cut ``j`` keeping n' = ``left`` boxes, all ints.

    It is I_{Z'}(t - j), or for a rank -1 object I_{Z' in KL}(t - j) with ``K = len(lengths) - j``.
    """
    r = 0 if isinstance(obj, RankMinusOne) else 1
    return _character(r, len(lengths) - j, 0, left, obj.twist - j)


def _candidate_subs(obj: MonomialObject):
    """(cut, (r, c1, 2*ch2), lengths) of every candidate subobject, in preference order."""
    families = _families(obj)
    n = degree(obj.diagram)
    for family in families:
        direction, lengths, _, _ = family
        for j, w in _cut_walk(family):
            yield (direction, j), _sub_character(obj, lengths, j, n - w), lengths


def destabilizing_sequence(obj: MonomialObject) -> DestabilizingSequence:
    """The sequence along the largest candidate wall.

    Largest means: most negative center (rank 1), largest squared radius
    (rank 0, all candidates concentric), least negative center (rank -1);
    the first cut of :func:`_families` wins a tie.  One loop per object type
    walks each family once with ``w_j = sum(lengths[:j])`` and scores each
    cut by one integer key, read off the general wall formula with
    ``m = t - j``, ``n' = n - w_j``:

    * rank 1: center ``t - (j^2 + 2w_j)/2j``, so the first maximum of
      ``(j^2 + 2w_j)/j``, the slope key, as ``mu_j = (j^2 + 2w_j)/2j - 3/2``;
    * rank 0 ``(0, K, E)``: center ``E/2K`` and radius_sq ``(E^2 - 4Kx)/4K^2``
      with ``x = mE - K(m^2 - 2n')``, so the first minimum of ``x``;
    * rank -1, ``K' = len(lengths) - j``: center ``-(K'^2 + 2n' - 2K'm)/2K'``,
      so the first minimum of ``(K'^2 + 2n' - 2K'm)/K'``.

    Keys compare by cross-multiplication.  Only the chosen cut gets its
    character and its wall, from :func:`wall_minors`, so a dependent,
    vertical or empty wall raises there.  The tests compare the choice with :func:`candidate_walls`,
    and the oracle's ``chern`` check compares every node's with :func:`first_largest_candidate`.
    """
    target = r, big_k, e = integer_character(obj)
    families = _families(obj)
    t, n = obj.twist, degree(obj.diagram)
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
    minors = _candidate_minors(cut, _sub_character(obj, lengths, j, n - w), target)
    wall = SemicircleWall.from_minors(*minors)
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
    if isinstance(obj, RankMinusOne):
        sub = _rank_zero(lengths[j:], t - j)
    elif direction == "horizontal":
        sub = _rank_one(d[j:], t - j)
    else:  # right of column j: the first lengths[j] rows less j each, and none right of the last
        right = tuple(map(operator.sub, d[: lengths[j]], repeat(j))) if j < len(lengths) else ()
        sub = _rank_one(right, t - j)
    if isinstance(obj, RankOne):
        return sub, _rank_zero(lengths[:j], t)
    # below cut j, or left of column j: every row capped at j
    return sub, _rank_minus_one(d[:j] if direction == "horizontal" else tuple(map(min, d, repeat(j))), t)


_CacheInfo = namedtuple("CacheInfo", "hits misses maxsize currsize")
_trees: dict[MonomialObject, DecompositionTree] = {}  # decompose's memo, for the process
_lookups = Counter()  # its hits and misses since the last cache_clear


def decompose(obj: MonomialObject) -> DecompositionTree:
    """The full decomposition tree; trivial objects give leaves.

    Every tree built is memoized, subtrees included, and a node's step holds
    its children's nodes, so each object is stored once; ``cache_info()`` and
    ``cache_clear()`` count and clear the lookups as ``lru_cache``'s do.
    """
    built = []  # finished trees; a sub's tree lies below its quotient's
    stack: list = [obj]  # an object to look up, or an (object, sequence) pair to build
    while stack:
        item = stack.pop()
        if type(item) is tuple:
            (node, seq), quotient, sub = item, built.pop(), built.pop()
            sequence = DestabilizingSequence(sub.node, quotient.node, seq.wall, seq.cut)
            tree = _trees[node] = DecompositionTree(node, sequence, sub, quotient)
        elif (tree := _trees.get(item)) is not None:
            _lookups["hits"] += 1
        else:
            _lookups["misses"] += 1
            if not is_trivial(item):
                sequence = destabilizing_sequence(item)
                stack += (item, sequence), sequence.quotient, sequence.sub
                continue
            tree = _trees[item] = DecompositionTree(item)
        built.append(tree)
    return tree


def _cache_clear() -> None:
    _trees.clear()
    _lookups.clear()


decompose.cache_info = lambda: _CacheInfo(_lookups["hits"], _lookups["misses"], None, len(_trees))
decompose.cache_clear = _cache_clear


def walk(tree: DecompositionTree) -> Iterator[tuple[DecompositionTree, int, str | None]]:
    """Preorder (sub before quotient) of ``(subtree, depth, role)``; ``role`` is ``None`` at the root."""
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
    return orthogonal_invariants(destabilizing_sequence(obj).wall)[0]


def derived_dual(obj: RankMinusOne | ShiftedLineBundle) -> tuple[Diagram, int]:
    """Rotated-complement dual data (diagram', twist') of a rank -1 object.

    The complex (O(-k) + O(-i) -> I_Z)(twist) dualizes to
    I_{Z'}(k + i - twist)[-1] with Z' the half-turn complement of Z in the
    k x i box; the shift is always -1.  A full box's complex is O(m)[1] with
    m = twist - k - i, whose dual data are ``((), -m)`` by the same rule.
    """
    if isinstance(obj, ShiftedLineBundle):
        return (), -obj.twist
    if not isinstance(obj, RankMinusOne):
        raise ValueError(f"derived_dual acts on rank -1 objects, got {obj!r}")
    return complement_rotate(obj.diagram, obj.k, obj.i), obj.k + obj.i - obj.twist


def text_name(obj: MonomialObject) -> str:
    """Short human-readable name, e.g. I(4,3,3)(-5) or O(-8)."""
    if isinstance(obj, LineBundle):
        return f"O({obj.twist})"
    if isinstance(obj, ShiftedLineBundle):
        return f"O({obj.twist})[1]"
    rows = ",".join(map(str, obj.diagram))
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
    if set(map(type, rows)) - {int}:  # the rule of _member, row by row
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
        obj = _rank_one(_diagram(data), twist)
    elif kind == "rank0":
        diagram, k = _diagram(data), _member(data, "lines", int)
        if len(diagram) != k:
            raise ValueError(f"diagram {diagram} does not lie on exactly {k} lines")
        obj = _rank_zero(diagram, twist)
    elif kind == "rank-1":
        diagram = _diagram(data)
        k, i = _member(data, "lines", int), _member(data, "colines", int)
        if (len(diagram), diagram[0] if diagram else 0) != (k, i):
            raise ValueError(f"diagram {diagram} does not fill a {k} x {i} bounding box")
        obj = _rank_minus_one(diagram, twist)
    else:
        raise ValueError(f"unknown object type {kind!r}")
    # an empty rank-1 diagram, or a full rank -1 box, builds a trivial object
    if _TYPE_NAMES[type(obj)] != kind:
        raise ValueError(f"a {kind} object cannot be {text_name(obj)}")
    return obj


def tree_from_dict(data: dict) -> DecompositionTree:
    node = object_from_dict(_member(data, "object", dict))
    if "cut" not in data:
        if not is_trivial(node):
            raise ValueError(f"the nontrivial object {text_name(node)} has no cut")
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
    One pass with a stack of subtrees and pending text writes it.
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
    """Inverse of :func:`serialize_tree`; ``ValueError`` on text nested beyond the recursion limit."""
    try:
        return tree_from_dict(json.loads(text))
    except RecursionError:
        raise ValueError("tree text is nested too deep to parse") from None


def tree_to_dot(tree: DecompositionTree) -> str:
    """Graphviz rendering: sub child on the left, quotient on the right."""
    lines = ["digraph decomposition {", "  node [shape=box];", "  graph [ordering=out];"]
    name = -1  # the last name given, in preorder
    # (subtree, its parent's edge record; the root's is spare), or a record [parent, sub, quotient]
    stack: list = [(tree, [])]
    while stack:
        item = stack.pop()
        if type(item) is list:
            parent, sub, quotient = item
            lines.append(f'  n{parent} -> n{sub} [label="sub"];')
            lines.append(f'  n{parent} -> n{quotient} [label="quotient"];')
            continue
        t, edge = item
        name += 1
        edge.append(name)
        label = text_name(t.node).replace('"', r"\"")
        if t.is_leaf:
            lines.append(f'  n{name} [label="{label}"];')
            continue
        wall = t.sequence.wall
        lines.append(
            f'  n{name} [label="{label}\\ncenter {wall.center},'
            f' radius_sq {wall.radius_sq}"];'
        )
        edge = [name]
        stack += edge, (t.quotient, edge), (t.sub, edge)
    lines.append("}")
    return "\n".join(lines) + "\n"

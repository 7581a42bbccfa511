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
compare canonically.  Vertically supported rank-0 objects are stored with
the diagram transposed, which changes none of the invariants.

Destabilization picks the largest candidate wall: most negative center for
rank 1, largest squared radius among the concentric rank-0 candidates, least
negative center for rank -1.  Ties prefer the horizontal family, then the
smallest cut index.  The cut is picked exactly from integer data: every
candidate character is ``(r, c1, 2*ch2)`` in plain ints, built from running
row and column sums, and walls compare by cross-multiplication.  Only the
chosen cut's wall is computed, by the general :func:`potential_wall`, and
stored.  :func:`candidate_walls` evaluates :func:`potential_wall` on every
candidate and stays the reference that the selection is tested against.
Decomposing recursively yields a finite tree whose leaves are trivial.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate
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
    slice_above,
    slice_below,
    slice_left,
    slice_right,
    transpose,
)
from .ktheory import (
    ChernCharacter,
    chern_of_ideal,
    chern_of_rank0,
    chern_of_rank_minus1,
    from_integers,
    line_bundle,
    negate,
    twist as twist_chern,
)
from .slopes import is_horizontally_pure
from .walls import SemicircleWall, is_empty, orthogonal_invariants, potential_wall

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


def rank_one(diagram, twist: int = 0) -> LineBundle | RankOne:
    """I_Z(twist), normalized to O(twist) for the empty scheme."""
    diagram = as_diagram(diagram)
    if not diagram:
        return LineBundle(twist)
    return RankOne(diagram, twist)


def rank_zero(diagram, twist: int = 0) -> RankZero:
    """I_{Z in kL}(twist) on the k = r(D) lines of its rows; requires horizontal purity."""
    diagram = as_diagram(diagram)
    k = row_count(diagram)
    if k < 1:
        raise ValueError(f"need at least one supporting line, got k={k}")
    if not is_horizontally_pure(diagram):
        raise ValueError(
            f"diagram {diagram} on {k} lines is not horizontally pure"
        )
    return RankZero(diagram, twist)


def rank_minus_one(diagram, twist: int = 0) -> ShiftedLineBundle | RankMinusOne:
    """O(-k) + O(-i) -> I_Z (twisted) on Z's k x i bounding box; trivial if Z fills it."""
    diagram = as_diagram(diagram)
    k, i = row_count(diagram), col_count(diagram)
    if not diagram:
        raise ValueError(f"box dimensions must be positive, got {k} x {i}")
    if diagram == (i,) * k:
        return ShiftedLineBundle(twist - k - i)
    return RankMinusOne(diagram, twist)


def is_trivial(obj: MonomialObject) -> bool:
    return isinstance(obj, (LineBundle, ShiftedLineBundle))


def chern_of(obj: MonomialObject) -> ChernCharacter:
    """The Chern character of any monomial object."""
    if isinstance(obj, LineBundle):
        return line_bundle(obj.twist)
    if isinstance(obj, ShiftedLineBundle):
        return negate(line_bundle(obj.twist))
    if isinstance(obj, RankOne):
        return twist_chern(chern_of_ideal(obj.diagram), obj.twist)
    if isinstance(obj, RankZero):
        return twist_chern(chern_of_rank0(obj.diagram), obj.twist)
    if isinstance(obj, RankMinusOne):
        return twist_chern(chern_of_rank_minus1(obj.diagram), obj.twist)
    raise TypeError(f"not a monomial object: {obj!r}")


def candidate_walls(obj: MonomialObject) -> list[tuple[Cut, SemicircleWall]]:
    """Every candidate destabilizing cut with its wall: the reference path.

    Walls come from :func:`potential_wall` between the candidate subobject's
    character and the object's own, never from specialized radius formulas.
    :func:`destabilizing_sequence` picks its cut without these walls, and
    the tests compare the two.
    """
    if is_trivial(obj):
        raise ValueError(f"trivial object {obj!r} has no candidate walls")
    target = chern_of(obj)
    candidates = []
    for cut, sub in _candidate_subs(obj):
        wall = potential_wall(from_integers(*sub), target)
        if not isinstance(wall, SemicircleWall):
            raise AssertionError(f"candidate wall at {cut} is not a semicircle")
        candidates.append((cut, wall))
    return candidates


def _candidate_subs(obj: MonomialObject):
    """(cut, (r, c1, 2*ch2)) of every candidate subobject, in preference order.

    The order is horizontal before vertical, then ascending index, so the
    first of several equal walls is the preferred cut.  Every character is
    integral after doubling ch2: a subobject I_{Z'}(m) is ``(1, m, m^2 - 2n')``
    and I_{Z' in KL}(m) is ``(0, K, -K^2 - 2n' + 2Km)``, where ``n'`` is ``n``
    minus the boxes cut off, a running sum over the rows or the columns.
    """
    d, t = obj.diagram, obj.twist
    n = degree(d)
    if isinstance(obj, RankOne):
        yield from _rank_one_subs("horizontal", d, n, t, 1, row_count(d))
        yield from _rank_one_subs("vertical", transpose(d), n, t, 1, col_count(d))
    elif isinstance(obj, RankZero):
        yield from _rank_one_subs(
            "vertical", transpose(d), n, t, full_col_count(d), col_count(d)
        )
    else:
        yield from _rank_zero_subs("horizontal", d, n, t, full_row_count(d), obj.k)
        yield from _rank_zero_subs(
            "vertical", transpose(d), n, t, full_col_count(d), obj.i
        )


def _rank_one_subs(direction: str, lengths: Diagram, n: int, t: int, first: int, last: int):
    """I(slice past cut j)(t - j) for j = first..last; ``lengths`` are rows or columns."""
    cut_off = [0, *accumulate(lengths)]
    for j in range(first, last + 1):
        m = t - j
        yield (direction, j), (1, m, m * m - 2 * (n - cut_off[j]))


def _rank_zero_subs(direction: str, lengths: Diagram, n: int, t: int, first: int, lines: int):
    """I(slice past cut j in (lines - j)L)(t - j) for j = first..lines - 1."""
    cut_off = [0, *accumulate(lengths)]
    for j in range(first, lines):
        k, m = lines - j, t - j
        yield (direction, j), (0, k, -k * k - 2 * (n - cut_off[j]) + 2 * k * m)


def destabilizing_sequence(obj: MonomialObject) -> DestabilizingSequence:
    """The sequence along the largest candidate wall.

    Largest means: most negative center (rank 1), largest squared radius
    (rank 0, all candidates concentric), least negative center (rank -1).
    Ties prefer horizontal cuts, then the smallest index.  The cut is chosen
    from the integer characters of :func:`_candidate_subs` by cross-multiplied
    comparisons, so it is the first minimum of :func:`candidate_walls` (the
    reference) under the key ``center``, ``-radius_sq`` or ``-center``.  The
    stored wall is :func:`potential_wall` of the chosen candidate's own
    integer character and the object, computed once; the oracle's ``chern``
    check compares it with the walls of the sliced sub and quotient.
    """
    if is_trivial(obj):
        raise ValueError(f"trivial object {obj!r} has no candidate walls")
    target = chern_of(obj)
    r2, c2, e2 = target.r, int(target.c1), int(2 * target.ch2)
    best_cut, best_sub, best_p, best_q = None, None, 0, 1
    for cut, sub in _candidate_subs(obj):
        r1, c1, e1 = sub
        # center = num/den and radius_sq = (num^2 + 2*den*cross)/den^2,
        # the formulas of potential_wall with 2*ch2 in place of ch2
        den = 2 * (c1 * r2 - c2 * r1)
        if den == 0:
            potential_wall(from_integers(*sub), target)  # raises if dependent
            raise AssertionError(f"candidate wall at {cut} is not a semicircle")
        num = e1 * r2 - e2 * r1
        # the cut minimizes p/q, q > 0: -radius_sq for rank 0, and
        # r2 * center for rank r2 = +-1 (most or least negative center)
        if r2 == 0:
            p, q = -(num * num + 2 * den * (c1 * e2 - c2 * e1)), den * den
        else:
            p, q = (r2 * num, den) if den > 0 else (-r2 * num, -den)
        if best_cut is None or p * best_q < best_p * q:
            best_cut, best_sub, best_p, best_q = cut, sub, p, q
    wall = potential_wall(from_integers(*best_sub), target)
    if is_empty(wall):
        raise AssertionError(f"selected wall at {best_cut} for {obj!r} is empty")
    return DestabilizingSequence(*_sequence_parts(obj, best_cut), wall, best_cut)


def _sequence_parts(obj: MonomialObject, cut: Cut) -> tuple[MonomialObject, MonomialObject]:
    direction, index = cut
    d, t = obj.diagram, obj.twist
    if isinstance(obj, RankOne):
        if direction == "horizontal":
            return (
                rank_one(slice_above(d, index), t - index),
                rank_zero(slice_below(d, index), t),
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
            rank_minus_one(slice_below(d, index), t),
        )
    return (
        rank_zero(transpose(slice_right(d, index)), t - index),
        rank_minus_one(slice_left(d, index), t),
    )


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


def internal_nodes(tree: DecompositionTree) -> list[DecompositionTree]:
    """Internal subtrees in preorder."""
    return [t for t, _, _ in walk(tree) if not t.is_leaf]


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


def _integer(data: dict, key: str) -> int:
    value = data[key]
    if type(value) is not int:  # bool is an int subclass, and is rejected too
        raise ValueError(f"{key} must be an integer, got {value!r}")
    return value


def object_from_dict(data: dict) -> MonomialObject:
    kind, twist = data["type"], _integer(data, "twist")
    if kind == "line_bundle":
        return LineBundle(twist)
    if kind == "shifted_line_bundle":
        return ShiftedLineBundle(twist)
    if kind == "rank1":
        return rank_one(data["diagram"], twist)
    if kind == "rank0":
        diagram, k = as_diagram(data["diagram"]), _integer(data, "lines")
        if row_count(diagram) != k:
            raise ValueError(f"diagram {diagram} does not lie on exactly {k} lines")
        return rank_zero(diagram, twist)
    if kind == "rank-1":
        diagram = as_diagram(data["diagram"])
        k, i = _integer(data, "lines"), _integer(data, "colines")
        if (row_count(diagram), col_count(diagram)) != (k, i):
            raise ValueError(f"diagram {diagram} does not fill a {k} x {i} bounding box")
        return rank_minus_one(diagram, twist)
    raise ValueError(f"unknown object type {kind!r}")


def tree_from_dict(data: dict) -> DecompositionTree:
    node = object_from_dict(data["object"])
    if "cut" not in data:
        return DecompositionTree(node)
    direction, index = data["cut"]
    # serialize_tree writes both as they are, unescaped
    if direction not in ("horizontal", "vertical") or type(index) is not int:
        raise ValueError(f"cut must be a direction and an integer index, got {data['cut']!r}")
    sub = tree_from_dict(data["sub"])
    quotient = tree_from_dict(data["quotient"])
    wall = SemicircleWall(
        Fraction(data["wall"]["center"]), Fraction(data["wall"]["radius_sq"])
    )
    sequence = DestabilizingSequence(sub.node, quotient.node, wall, (direction, index))
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

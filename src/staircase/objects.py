"""Monomial objects, destabilizing sequences, and decomposition trees.

Three kinds of nontrivial objects occur:

* ``RankOne(D, twist)`` — twisted ideal sheaf I_Z(twist);
* ``RankZero(D, k, twist)`` — I_{Z in kL}(twist), a scheme lying on k lines
  (the diagram may have fewer than k rows, "padding"); construction requires
  horizontal purity;
* ``RankMinusOne(D, k, i, twist)`` — the two-term complex
  O(-k) + O(-i) -> I_Z (twisted) with the diagram filling a k x i bounding
  box exactly.

Trivial objects are the leaves ``LineBundle(m)`` = O(m) and
``ShiftedLineBundle(m)`` = O(m)[1]; the factory functions normalize the
degenerate unions (empty diagram, full rectangle) to them so leaf multisets
compare canonically.  Vertically supported rank-0 objects are stored with
the diagram transposed, which changes none of the invariants.

Destabilization picks the largest candidate wall: most negative center for
rank 1, largest squared radius among the concentric rank-0 candidates, least
negative center for rank -1.  Ties prefer the horizontal family, then the
smallest cut index.  Decomposing recursively yields a finite tree whose
leaves are trivial.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterator

from .diagram import (
    Diagram,
    as_diagram,
    col_count,
    complement_rotate,
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
    k: int
    twist: int = 0


@dataclass(frozen=True)
class RankMinusOne:
    diagram: Diagram
    k: int
    i: int
    twist: int = 0


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


def rank_one(diagram, twist: int = 0) -> LineBundle | RankOne:
    """I_Z(twist), normalized to O(twist) for the empty scheme."""
    diagram = as_diagram(diagram)
    if not diagram:
        return LineBundle(twist)
    return RankOne(diagram, twist)


def rank_zero(diagram, k: int, twist: int = 0) -> RankZero:
    """I_{Z in kL}(twist); requires row fit and horizontal purity."""
    diagram = as_diagram(diagram)
    if k < 1:
        raise ValueError(f"need at least one supporting line, got k={k}")
    if row_count(diagram) > k:
        raise ValueError(
            f"diagram with {row_count(diagram)} rows does not lie on {k} lines"
        )
    if not is_horizontally_pure(diagram, k):
        raise ValueError(
            f"diagram {diagram} on {k} lines is not horizontally pure"
        )
    return RankZero(diagram, k, twist)


def rank_minus_one(diagram, k: int, i: int, twist: int = 0) -> ShiftedLineBundle | RankMinusOne:
    """The complex O(-k) + O(-i) -> I_Z (twisted); trivial for the full box."""
    diagram = as_diagram(diagram)
    if k < 1 or i < 1:
        raise ValueError(f"box dimensions must be positive, got {k} x {i}")
    if row_count(diagram) != k or col_count(diagram) != i:
        raise ValueError(
            f"diagram {diagram} does not fill a {k} x {i} bounding box"
        )
    if diagram == (i,) * k:
        return ShiftedLineBundle(twist - k - i)
    return RankMinusOne(diagram, k, i, twist)


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
        return twist_chern(chern_of_rank0(obj.diagram, obj.k), obj.twist)
    if isinstance(obj, RankMinusOne):
        return twist_chern(chern_of_rank_minus1(obj.diagram, obj.k, obj.i), obj.twist)
    raise TypeError(f"not a monomial object: {obj!r}")


def twisted(obj: MonomialObject, m: int) -> MonomialObject:
    """The same object with m added to its twist."""
    if isinstance(obj, (LineBundle, ShiftedLineBundle)):
        return type(obj)(obj.twist + m)
    if isinstance(obj, RankOne):
        return RankOne(obj.diagram, obj.twist + m)
    if isinstance(obj, RankZero):
        return RankZero(obj.diagram, obj.k, obj.twist + m)
    return RankMinusOne(obj.diagram, obj.k, obj.i, obj.twist + m)


def candidate_walls(obj: MonomialObject) -> list[tuple[Cut, SemicircleWall]]:
    """Every candidate destabilizing cut with its wall.

    Walls come from :func:`potential_wall` between the candidate subobject's
    character and the object's own, never from specialized radius formulas.
    """
    if is_trivial(obj):
        raise ValueError(f"trivial object {obj!r} has no candidate walls")
    target = chern_of(obj)
    candidates = []
    for cut, sub_chern in _candidate_subs(obj):
        wall = potential_wall(sub_chern, target)
        if not isinstance(wall, SemicircleWall):
            raise AssertionError(f"candidate wall at {cut} is not a semicircle")
        candidates.append((cut, wall))
    return candidates


def _candidate_subs(obj: MonomialObject):
    """(cut, chern of candidate subobject) pairs, in deterministic order."""
    t = obj.twist
    if isinstance(obj, RankOne):
        d = obj.diagram
        for k in range(1, row_count(d) + 1):
            yield ("horizontal", k), twist_chern(chern_of_ideal(slice_above(d, k)), t - k)
        for i in range(1, col_count(d) + 1):
            yield ("vertical", i), twist_chern(chern_of_ideal(slice_right(d, i)), t - i)
    elif isinstance(obj, RankZero):
        d = obj.diagram
        if row_count(d) == obj.k:
            for i in range(full_col_count(d), col_count(d) + 1):
                yield ("vertical", i), twist_chern(chern_of_ideal(slice_right(d, i)), t - i)
        else:
            # padded support: only the ambient line-bundle kernel splits off
            yield ("vertical", 0), twist_chern(chern_of_ideal(d), t)
    else:
        d, k, i = obj.diagram, obj.k, obj.i
        for j in range(full_row_count(d), k):
            yield ("horizontal", j), twist_chern(
                chern_of_rank0(slice_above(d, j), k - j), t - j
            )
        for j in range(full_col_count(d), i):
            yield ("vertical", j), twist_chern(
                chern_of_rank0(transpose(slice_right(d, j)), i - j), t - j
            )


def _cut_preference(cut: Cut):
    direction, index = cut
    return (direction != "horizontal", index)


def destabilizing_sequence(obj: MonomialObject) -> DestabilizingSequence:
    """The sequence along the largest candidate wall.

    Largest means: most negative center (rank 1), largest squared radius
    (rank 0, all candidates concentric), least negative center (rank -1).
    Ties prefer horizontal cuts, then the smallest index.
    """
    candidates = candidate_walls(obj)
    if isinstance(obj, RankOne):
        key = lambda item: (item[1].center, *_cut_preference(item[0]))
    elif isinstance(obj, RankZero):
        key = lambda item: (-item[1].radius_sq, *_cut_preference(item[0]))
    else:
        key = lambda item: (-item[1].center, *_cut_preference(item[0]))
    cut, wall = min(candidates, key=key)
    if is_empty(wall):
        raise AssertionError(f"selected wall at {cut} for {obj!r} is empty")
    sub, quotient = _sequence_parts(obj, cut)
    return DestabilizingSequence(sub, quotient, wall, cut)


def _sequence_parts(obj: MonomialObject, cut: Cut) -> tuple[MonomialObject, MonomialObject]:
    direction, index = cut
    t = obj.twist
    if isinstance(obj, RankOne):
        d = obj.diagram
        if direction == "horizontal":
            return (
                rank_one(slice_above(d, index), t - index),
                rank_zero(slice_below(d, index), index, t),
            )
        return (
            rank_one(slice_right(d, index), t - index),
            rank_zero(transpose(slice_left(d, index)), index, t),
        )
    if isinstance(obj, RankZero):
        d = obj.diagram
        if index == 0:
            return rank_one(d, t), ShiftedLineBundle(t - obj.k)
        return (
            rank_one(slice_right(d, index), t - index),
            rank_minus_one(slice_left(d, index), obj.k, index, t),
        )
    d, k, i = obj.diagram, obj.k, obj.i
    if direction == "horizontal":
        return (
            rank_zero(slice_above(d, index), k - index, t - index),
            rank_minus_one(slice_below(d, index), index, i, t),
        )
    return (
        rank_zero(transpose(slice_right(d, index)), i - index, t - index),
        rank_minus_one(slice_left(d, index), k, index, t),
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
    return _optimal_invariants(obj)[0]


def delta_opt(obj: MonomialObject) -> Fraction:
    """The optimal discriminant of a nontrivial object."""
    return _optimal_invariants(obj)[1]


def _optimal_invariants(obj: MonomialObject) -> tuple[Fraction, Fraction]:
    if is_trivial(obj):
        raise ValueError(f"trivial object {obj!r} has no optimal invariants")
    return orthogonal_invariants(destabilizing_sequence(obj).wall)


def derived_dual_parts(diagram, k: int, i: int, twist: int = 0) -> tuple[Diagram, int, int]:
    """Rotated-complement dual data (diagram', twist', shift) of a rank -1 object.

    The complex (O(-k) + O(-i) -> I_Z)(twist) dualizes to
    I_{Z'}(k + i - twist)[-1] with Z' the half-turn complement of Z in the
    k x i box; a full box (trivial object) dualizes to the line bundle case.
    """
    diagram = as_diagram(diagram)
    if row_count(diagram) > k or col_count(diagram) > i:
        raise ValueError(f"diagram {diagram} does not fit in a {k} x {i} box")
    return complement_rotate(diagram, k, i), k + i - twist, -1


def derived_dual(obj: RankMinusOne) -> tuple[Diagram, int, int]:
    """Derived dual of a nontrivial rank -1 object; see derived_dual_parts."""
    if not isinstance(obj, RankMinusOne):
        raise ValueError(f"derived_dual acts on rank -1 objects, got {obj!r}")
    return derived_dual_parts(obj.diagram, obj.k, obj.i, obj.twist)


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


def render_tree(tree: DecompositionTree, indent: int = 0) -> str:
    """Indented text rendering of a decomposition tree."""
    lines = []
    for t, depth, role in walk(tree):
        pad = "  " * (indent + depth)
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


def object_to_dict(obj: MonomialObject) -> dict:
    if isinstance(obj, LineBundle):
        return {"type": "line_bundle", "twist": obj.twist}
    if isinstance(obj, ShiftedLineBundle):
        return {"type": "shifted_line_bundle", "twist": obj.twist}
    if isinstance(obj, RankOne):
        return {"type": "rank1", "diagram": list(obj.diagram), "twist": obj.twist}
    if isinstance(obj, RankZero):
        return {
            "type": "rank0",
            "diagram": list(obj.diagram),
            "lines": obj.k,
            "twist": obj.twist,
        }
    return {
        "type": "rank-1",
        "diagram": list(obj.diagram),
        "lines": obj.k,
        "colines": obj.i,
        "twist": obj.twist,
    }


def object_from_dict(data: dict) -> MonomialObject:
    kind = data["type"]
    if kind == "line_bundle":
        return LineBundle(data["twist"])
    if kind == "shifted_line_bundle":
        return ShiftedLineBundle(data["twist"])
    if kind == "rank1":
        return rank_one(data["diagram"], data["twist"])
    if kind == "rank0":
        return rank_zero(data["diagram"], data["lines"], data["twist"])
    if kind == "rank-1":
        return rank_minus_one(data["diagram"], data["lines"], data["colines"], data["twist"])
    raise ValueError(f"unknown object type {kind!r}")


def tree_to_dict(tree: DecompositionTree) -> dict:
    data: dict = {"object": object_to_dict(tree.node)}
    if not tree.is_leaf:
        seq = tree.sequence
        data["cut"] = [seq.cut[0], seq.cut[1]]
        data["wall"] = {
            "center": str(seq.wall.center),
            "radius_sq": str(seq.wall.radius_sq),
        }
        data["sub"] = tree_to_dict(tree.sub)
        data["quotient"] = tree_to_dict(tree.quotient)
    return data


def tree_from_dict(data: dict) -> DecompositionTree:
    node = object_from_dict(data["object"])
    if "cut" not in data:
        return DecompositionTree(node)
    sub = tree_from_dict(data["sub"])
    quotient = tree_from_dict(data["quotient"])
    wall = SemicircleWall(
        Fraction(data["wall"]["center"]), Fraction(data["wall"]["radius_sq"])
    )
    sequence = DestabilizingSequence(
        sub.node, quotient.node, wall, (data["cut"][0], data["cut"][1])
    )
    return DecompositionTree(node, sequence, sub, quotient)


def serialize_tree(tree: DecompositionTree, pretty: bool = False) -> str:
    """Canonical JSON text of a tree; byte-identical for equal trees."""
    if pretty:
        return json.dumps(tree_to_dict(tree), sort_keys=True, indent=2)
    return json.dumps(tree_to_dict(tree), sort_keys=True, separators=(",", ":"))


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

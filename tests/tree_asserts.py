"""Tree and tree-text assertions that name the first difference.

On an unequal ``==``, pytest diffs the reprs of both operands, which takes
seconds for the tree of a few hundred rows and runs again on every
hypothesis shrink step.  These helpers report the first differing preorder
node, or the first differing text offset, instead.

:func:`assert_actual_wall` checks that a node's wall is an actual
Bridgeland wall, in exact integers, and names the node and clause that fail.
"""

from __future__ import annotations

import os

import pytest

from staircase.objects import DecompositionTree, integer_character, text_name, walk


def _name(obj) -> str:
    name = text_name(obj)
    return name if len(name) <= 80 else name[:77] + "..."


def _describe(tree: DecompositionTree) -> str:
    if tree.is_leaf:
        return f"leaf {_name(tree.node)}"
    seq = tree.sequence
    return (
        f"{_name(tree.node)} [cut {seq.cut}; sub {_name(seq.sub)};"
        f" quotient {_name(seq.quotient)}; wall {seq.wall.center}, {seq.wall.radius_sq}]"
    )


def assert_same_tree(got: DecompositionTree, want: DecompositionTree) -> None:
    """Fail at the first preorder node where the two trees differ.

    Equal nodes with equal sequences have equal children, so the two walks
    stay in step up to the first difference.
    """
    for index, ((a, depth, role), (b, _, _)) in enumerate(zip(walk(got), walk(want))):
        if a.node != b.node or a.sequence != b.sequence:
            pytest.fail(
                f"trees differ at preorder node {index} ({role or 'root'}, depth {depth}):"
                f" {_describe(a)} != {_describe(b)}"
            )


def assert_same_text(got: str, want: str, where: str = "") -> None:
    """Fail at the first offset where the two texts differ."""
    if got != want:
        at = len(os.path.commonprefix((got, want)))
        pytest.fail(f"{where}at {at}: {got[at:at + 60]!r} != {want[at:at + 60]!r}")


def in_heart_along(character, wall) -> bool:
    """Clause A for one ``(r, c1, 2*ch2)``: in the tilted heart Coh^s for every s on the wall's span.

    At rank 0 that is c1 > 0.  Otherwise the slope mu = c1/r stands at least the radius
    from the center c, above it at r > 0 (a sheaf) and below it at r < 0 (H^{-1} of the
    complex): with c = a/p, radius_sq = b/q and x = c1 p - a r, so that mu - c = x/rp,
    both sides read ``x >= 0`` and ``x^2 q >= b (rp)^2``.
    """
    r, c1, _ = character
    if r == 0:
        return c1 > 0
    a, p = wall.center.as_integer_ratio()
    b, q = wall.radius_sq.as_integer_ratio()
    x = c1 * p - a * r
    return x >= 0 and x * x * q >= b * (r * p) ** 2


def assert_actual_wall(tree: DecompositionTree) -> None:
    """Clauses A and B at an internal node: its sub, itself and its quotient along its wall.

    Clause B, ``r_sub c1_quot - r_quot c1_sub > 0``, says the sub has the larger phase inside the wall.
    """
    seq = tree.sequence
    sub, node, quotient = map(integer_character, (seq.sub, tree.node, seq.quotient))
    for role, character in (("sub", sub), ("node", node), ("quotient", quotient)):
        if not in_heart_along(character, seq.wall):
            pytest.fail(f"the {role} of {_describe(tree)} leaves the heart along the wall")
    if sub[0] * quotient[1] - quotient[0] * sub[1] <= 0:
        pytest.fail(f"the sub of {_describe(tree)} does not destabilize inside the wall")

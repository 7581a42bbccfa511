"""Tree and tree-text assertions that name the first difference.

On an unequal ``==``, pytest diffs the reprs of both operands, which takes
seconds for the tree of a few hundred rows and runs again on every
hypothesis shrink step.  These helpers report the first differing preorder
node, or the first differing text offset, instead.
"""

from __future__ import annotations

import os

import pytest

from staircase.objects import DecompositionTree, text_name, walk


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

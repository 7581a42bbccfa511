"""The recursive reference for ``objects.decompose``.

One call per tree node and no memo, so shared subtrees are built again and
the depth it reaches is bounded by the recursion limit.
"""

from __future__ import annotations

from staircase.objects import DecompositionTree, destabilizing_sequence, is_trivial


def decompose(obj) -> DecompositionTree:
    """The decomposition tree of ``obj``, sub before quotient."""
    if is_trivial(obj):
        return DecompositionTree(obj)
    sequence = destabilizing_sequence(obj)
    return DecompositionTree(obj, sequence, decompose(sequence.sub), decompose(sequence.quotient))

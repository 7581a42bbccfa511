"""Exhaustive verification of the combinatorial lemmas behind the trees.

A check is a node predicate, a diagram predicate or both, folded over the
deterministic instance enumeration; each detail a predicate yields becomes
a witness in the report.  A node predicate tests one internal tree node and
its two children.  Per diagram, a check reports the details of the internal
nodes of its :func:`_tree_roots` trees in preorder, then those of the
diagram predicate.  The roots are I_Z and its box's rank -1 object; the
rank-0 quotient of I_Z's root step is checked inside I_Z's tree.  How a run
folds each distinct subtree once is stated in :func:`run_check` and
:func:`_fold`.

Checks read each destabilizing sequence, and ``(mu_opt, Delta_opt)`` of its
wall, from the nodes that :func:`decompose` built; ``duality`` compares each
rank -1 wall with ``mu(Z')`` of its dual in closed form, and ``rootwall``
reaches only duals up to the bound.  The ``chern`` check recomputes each node
wall with :func:`potential_wall` from the Chern characters of the sub and the
node, and the chosen cut with :func:`first_largest_candidate`, which runs
the integer core :func:`~staircase.walls.wall_minors` of the general wall
formula on every candidate and builds the one chosen wall, so that formula
stays the reference for every tree, as the general twist :func:`twist` does for
each node's fast :func:`integer_character`.  Its arithmetic runs on the integer
cores of :mod:`staircase.ktheory` and :mod:`staircase.walls`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from typing import Callable, Iterator

from .diagram import (
    Diagram,
    as_int,
    complement_rotate,
    degree,
    enumerate_diagrams_upto,
)
from .ktheory import (
    euler_char,
    from_integers,
    from_slope_discriminant,
    ring_product,
    twist,
)
from .objects import (
    DecompositionTree,
    MonomialObject,
    RankMinusOne,
    RankOne,
    RankZero,
    chern_of,
    decompose,
    derived_dual,
    first_largest_candidate,
    integer_character,
    is_trivial,
    rank_minus_one,
    rank_one,
    text_name,
)
from .resolution import minimal_free_resolution
from .slopes import is_horizontally_pure, scheme_slope
from .walls import is_empty, is_nested, orthogonal_invariants, potential_wall

FAILURE_CAP = 100
DEFAULT_BOUND = 18
DEFAULT_CI_BOUND = 25


@dataclass(frozen=True)
class Failure:
    """A single counterexample: the diagram it came from and what broke."""

    diagram: Diagram
    detail: str


@dataclass(frozen=True)
class VerificationReport:
    check: str
    degree_bound: int
    instances: int
    failures: tuple[Failure, ...]
    duration: float

    @property
    def passed(self) -> bool:
        return not self.failures


@cache
def _tree_roots(diagram: Diagram) -> tuple[MonomialObject, ...]:
    """I_Z and, unless Z fills its box, the box's rank -1 object.

    I_Z's rank-0 quotient I_{Z_k in kL} is checked as its quotient subtree.
    The objects are built once per process; their trees are not kept here.
    """
    ideal, full = rank_one(diagram), rank_minus_one(diagram)
    return (ideal,) if is_trivial(full) else (ideal, full)


def _check_nesting(node: DecompositionTree) -> Iterator[str]:
    """Child walls nest inside the parent wall; slopes/discriminants compare."""
    wall = node.sequence.wall
    mu, delta = orthogonal_invariants(wall)
    for role, child in (("sub", node.sub), ("quotient", node.quotient)):
        if child.is_leaf:
            continue
        child_wall = child.sequence.wall
        child_mu, child_delta = orthogonal_invariants(child_wall)
        broken = []
        if isinstance(child.node, RankZero):
            if child_mu != mu:
                broken.append(f"mu_opt {child_mu} != {mu}")
            if child_delta > delta:
                broken.append(f"Delta_opt {child_delta} > {delta}")
            side = "left"
        elif isinstance(child.node, RankOne):
            if child_mu > mu:
                broken.append(f"mu_opt {child_mu} > {mu}")
            side = "left"
        else:
            if child_mu < mu:
                broken.append(f"mu_opt {child_mu} < {mu}")
            side = "right"
        if not is_nested(child_wall, wall, side):
            broken.append(f"wall {child_wall} not nested in {wall}")
        # the names are built only for a failing clause
        for clause in broken:
            yield f"{role} {text_name(child.node)} of {text_name(node.node)}: {clause}"


def _check_purity(node: DecompositionTree) -> Iterator[str]:
    """Rank-0 children of the trees are horizontally pure of the right shape."""
    obj = node.node
    if isinstance(obj, RankOne) and not isinstance(node.sequence.quotient, RankZero):
        yield f"quotient of {text_name(obj)} is not a rank-0 object"
    if isinstance(obj, RankMinusOne) and not isinstance(node.sequence.sub, RankZero):
        yield f"sub of {text_name(obj)} is not a rank-0 object"
    if isinstance(obj, RankZero) and not is_horizontally_pure(obj.diagram):
        yield f"{text_name(obj)} is not horizontally pure"


def _check_duality(node: DecompositionTree) -> Iterator[str]:
    """Involutivity, and the wall's ``mu_opt`` against ``mu(Z')`` in closed form, at rank -1 nodes.

    No dual is decomposed: ``rootwall`` reaches ``mu_opt(I_{Z'}) = mu(Z')`` only up to the bound.
    """
    obj = node.node
    if not isinstance(obj, RankMinusOne):
        return
    dual_diagram, twist = derived_dual(obj)
    if complement_rotate(dual_diagram, obj.k, obj.i) != obj.diagram:
        yield f"complement rotation not involutive at {text_name(obj)}"
    untwisted = orthogonal_invariants(node.sequence.wall)[0] + obj.twist
    expected = -scheme_slope(dual_diagram).value + twist + obj.twist - 3
    if untwisted != expected:
        yield f"dual slope identity fails at {text_name(obj)}: {untwisted} != {expected}"


def _check_chern(node: DecompositionTree) -> Iterator[str]:
    """Twist agreement, Chern additivity, wall agreement, largest cut, orthogonality on a nonempty wall.

    The wall and the pairing are checked on the sub and the node only.  Once additivity holds,
    ``quot = total - sub`` exactly, since every :func:`chern_of` has ``d = 1``; the minors
    ``(c, n, cross)`` of :func:`~staircase.walls.wall_minors` are bilinear and antisymmetric, so
    ``W(total, quot) = W(sub, total)``, and ``chi(zeta . -)`` is linear.  So a quotient clause
    could fail only where additivity or its sub-side twin fails.

    The pairing is the statement that Z is imaginary at the wall's top ``(s, t^2) = (center,
    radius_sq)``: there ``(mu, Delta) = (-s - 3/2, (t^2 - 1/4)/2)`` and ``(mu + 1)(mu + 2) = s^2 -
    1/4``, so by Riemann-Roch ``chi(zeta . xi) = ch2 - s c1 + (s^2 - t^2) r/2 = -Re Z_{s,t}(xi)``
    for every ``xi``.  It is the clause kept, as the one that tests the wall minors against a
    formula of their own, and it is the interpolation condition ``chi(E . I_Z) = 0``.
    """
    seq, obj = node.sequence, node.node
    total, sub, quot = chern_of(obj), chern_of(seq.sub), chern_of(seq.quotient)
    if total != twist(chern_of(type(obj)(obj.diagram)), obj.twist):
        yield f"integer character differs from the general twist at {text_name(obj)}"
    if from_integers(
        sub.r + quot.r, sub.a * quot.d + quot.a * sub.d, sub.b * quot.d + quot.b * sub.d, sub.d * quot.d
    ) != total:
        yield f"chern additivity fails at {text_name(obj)}"
    # the stored wall came from the cut's integer character, not from this slice
    if potential_wall(sub, total) != seq.wall:
        yield f"W(sub, node) differs from node wall at {text_name(obj)}"
    cut, wall = first_largest_candidate(obj)
    if (cut, wall) != (seq.cut, seq.wall):
        yield f"cut {seq.cut} is not the first largest candidate {cut} (wall {wall}) at {text_name(obj)}"
    if is_empty(seq.wall):
        yield f"empty node wall {seq.wall} at {text_name(obj)}"
        return
    mu, delta = orthogonal_invariants(seq.wall)
    zeta = from_slope_discriminant(1, mu, delta)
    for name, ch in (("sub", sub), ("node", total)):
        pairing = euler_char(ring_product(zeta, ch))
        if pairing != 0:
            yield f"orthogonal class pairs to {pairing} with {name} at {text_name(obj)}"


def _check_resolution_chern(diagram: Diagram) -> Iterator[str]:
    """The Chern characters of the minimal free resolution sum to the ideal's."""
    res = minimal_free_resolution(diagram)
    # sum of +-ch O(m) = (1, m, m^2/2) in the integer form (r, c1, 2*ch2)
    r = c1 = ch2_twice = 0
    for sign, twists in ((1, res.generator_twists), (-1, res.syzygy_twists)):
        for m in twists:
            r, c1, ch2_twice = r + sign, c1 + sign * m, ch2_twice + sign * m * m
    if (r, c1, ch2_twice) != integer_character(RankOne(diagram)):
        yield "resolution chern sum differs from ideal chern character"


def _check_root_wall(diagram: Diagram) -> Iterator[str]:
    """The root step of I_Z cuts, centers and sizes its wall by the scheme slope."""
    best = scheme_slope(diagram)
    seq = decompose(_tree_roots(diagram)[0]).sequence
    center = -best.value - Fraction(3, 2)
    if seq.cut != (best.orientation, best.index):
        yield f"root cut {seq.cut} is not {best.orientation} at k={best.index}"
    if seq.wall.center != center:
        yield f"root wall center {seq.wall.center} != {center}"
    if seq.wall.radius_sq != center**2 - 2 * degree(diagram):
        yield f"root wall radius^2 {seq.wall.radius_sq} != center^2 - 2n"


def _check_ci(rectangle: Diagram) -> Iterator[str]:
    """Closed forms for a complete intersection at the first two steps of its tree."""
    a, b = rectangle[0], len(rectangle)
    tree = decompose(rank_one(rectangle))
    seq, second = tree.sequence, tree.quotient.sequence
    mu, delta = orthogonal_invariants(seq.wall)
    second_mu, second_delta = orthogonal_invariants(second.wall)
    if seq.sub != rank_one((), -a):
        yield f"CI({a},{b}) sub is {text_name(seq.sub)}, expected O(-{a})"
    if seq.wall.center != Fraction(-a, 2) - b:
        yield f"CI({a},{b}) center {seq.wall.center} != -a/2 - b"
    if seq.wall.radius_sq != Fraction((a - 2 * b) ** 2, 4):
        yield f"CI({a},{b}) radius^2 {seq.wall.radius_sq} != (a/2 - b)^2"
    if mu != b + Fraction(a - 3, 2):
        yield f"CI({a},{b}) mu_opt != b + (a-3)/2"
    if delta != Fraction((a - 2 * b) ** 2 - 1, 8):
        yield f"CI({a},{b}) Delta_opt != ((a-2b)^2 - 1)/8"
    if (second.wall == seq.wall) != (a == b):
        yield f"CI({a},{b}) wall equality should hold exactly when a = b"
    if second.wall.center != seq.wall.center:
        yield f"CI({a},{b}) second wall not concentric with the first"
    if second.wall.radius_sq != Fraction(a * a, 4):
        yield f"CI({a},{b}) second radius^2 {second.wall.radius_sq} != a^2/4"
    if seq.wall.radius_sq - second.wall.radius_sq != b * (b - a):
        yield f"CI({a},{b}) radius^2 gap != b(b-a)"
    if second_mu != b + Fraction(a - 3, 2):
        yield f"CI({a},{b}) rank-0 mu_opt != b + (a-3)/2"
    if second_delta != Fraction(a * a - 1, 8):
        yield f"CI({a},{b}) rank-0 Delta_opt != (a^2-1)/8"


def _check_triviality(node: DecompositionTree) -> Iterator[str]:
    """Walls are nonempty and trivial children satisfy the case inequalities."""
    seq, obj = node.sequence, node.node
    if is_empty(seq.wall):
        yield f"empty destabilizing wall at {text_name(obj)}"
    direction, index = seq.cut
    if isinstance(obj, RankOne):
        n = degree(obj.diagram)
        if is_trivial(seq.sub) and not index * index < 2 * n:
            yield f"case 1 fails at {text_name(obj)}: {index}^2 >= 2*{n}"
    elif isinstance(obj, RankZero):
        n, k = degree(obj.diagram), obj.k
        if is_trivial(seq.sub) and not 2 * k * index < 2 * n + k * k:
            yield f"case 2 fails at {text_name(obj)}: {index} >= n/k + k/2"
        if is_trivial(seq.quotient) and not 2 * k * index >= 2 * n - k * k:
            yield f"case 3 fails at {text_name(obj)}: {index} < n/k - k/2"
    else:
        n, k, i = degree(obj.diagram), obj.k, obj.i
        if is_trivial(seq.quotient):
            gap = k - index if direction == "horizontal" else i - index
            if not gap * gap < 2 * (k * i - n):
                yield f"case 4 fails at {text_name(obj)}: {gap}^2 >= 2(ki - n)"


def _check_gieseker(diagram: Diagram) -> Iterator[str]:
    """Purity agrees with the reduced Hilbert-polynomial comparisons.

    Slice j's reduced constant ``(3j + 2*ch2)/2j`` is read from its rank-0 ``(0, j, 2*ch2)``.
    """
    k = len(diagram)
    pure = is_horizontally_pure(diagram)
    chars = [integer_character(RankZero(diagram[:j])) for j in range(1, k + 1)]
    e = chars[-1][2]
    compared = all((3 * j + e_j) * k >= (3 * k + e) * j for _, j, e_j in chars[:-1])
    if pure != compared:
        yield (
            f"purity ({pure}) and reduced-polynomial criterion ({compared})"
            " disagree"
        )


@cache
def _diagrams(n_max: int) -> tuple[Diagram, ...]:
    return tuple(enumerate_diagrams_upto(n_max))


@cache
def _rectangles(a_max: int) -> tuple[Diagram, ...]:
    """``(a,) * b`` for ``a <= b <= a_max``: the bound is on the sides, so degrees reach ``a_max**2``."""
    return tuple((a,) * b for a in range(1, a_max + 1) for b in range(a, a_max + 1))


# name -> (instances, node predicate, diagram predicate); None means no such part
_CHECKS: dict[str, tuple[Callable, Callable | None, Callable | None]] = {
    "nesting": (_diagrams, _check_nesting, None),
    "purity": (_diagrams, _check_purity, None),
    "duality": (_diagrams, _check_duality, None),
    "chern": (_diagrams, _check_chern, _check_resolution_chern),
    "rootwall": (_diagrams, None, _check_root_wall),
    "ci": (_rectangles, None, _check_ci),
    "triviality": (_diagrams, _check_triviality, None),
    "gieseker": (_diagrams, None, _check_gieseker),
}

CHECK_NAMES = tuple(_CHECKS)


def _fold(tree: DecompositionTree, node_check: Callable, folded: dict) -> tuple[str, ...]:
    """The details of ``tree``'s internal nodes in preorder, read from ``folded``.

    A leaf has none; an internal subtree's details are ``node_check`` of its
    root, then those of its sub subtree, then those of its quotient subtree.
    A subtree missing from ``folded`` pushes the marker ``(node,)`` below its
    children, which folds it from theirs; one already there is skipped.  Only
    the first ``FAILURE_CAP`` details are kept, all that a report can show.
    """
    stack: list = [tree]
    while stack:
        node = stack.pop()
        if type(node) is tuple:
            (node,) = node
            details = tuple(node_check(node))
            sub_details = folded[id(node.sub)][1]
            quotient_details = folded[id(node.quotient)][1]
            if sub_details or quotient_details:
                details = (details + sub_details + quotient_details)[:FAILURE_CAP]
            folded[id(node)] = node, details
        elif id(node) in folded:
            continue
        elif node.is_leaf:
            folded[id(node)] = node, ()
        else:
            stack += (node,), node.quotient, node.sub
    return folded[id(tree)][1]


def run_check(name: str, n_max: int | None = None) -> VerificationReport:
    """Run one named check up to the bound: on each diagram's degree, or for ``ci`` on the rectangle's sides.

    The instance list and the root objects come from the per-process
    caches; the trees come from ``decompose`` at each call.  The subtree
    memo lives for this call only: each distinct subtree of the run's
    trees is folded once, and each diagram reads the folded details of its
    roots: the witnesses, and the ``FAILURE_CAP`` cut, of checking every
    visit.  A later run, or a tree re-built over the same objects, is
    checked afresh.
    """
    if name not in _CHECKS:
        raise ValueError(f"unknown check {name!r}; choose from {CHECK_NAMES}")
    if n_max is None:
        n_max = DEFAULT_CI_BOUND if name == "ci" else DEFAULT_BOUND
    n_max = as_int(n_max, "degree bound")
    if n_max < 0:
        raise ValueError(f"degree bound must be nonnegative, got {n_max}")
    enumerate_instances, node_check, item_check = _CHECKS[name]
    instances = enumerate_instances(n_max)
    begin = time.perf_counter()
    # id(subtree) -> (subtree, details); holding the subtree keeps its id unique
    folded: dict[int, tuple[DecompositionTree, tuple[str, ...]]] = {}
    failures = []
    for item in instances:
        details = []
        if node_check:
            for root in _tree_roots(item):
                details += _fold(decompose(root), node_check, folded)
        if item_check:
            details += item_check(item)
        for detail in details:
            if len(failures) < FAILURE_CAP:
                failures.append(Failure(item, detail))
    return VerificationReport(
        name, n_max, len(instances), tuple(failures), time.perf_counter() - begin
    )


def render_report(report: VerificationReport) -> str:
    """Structured text with no timing, so equal runs give identical bytes."""
    lines = [
        f"check: {report.check}",
        f"bound: {report.degree_bound}",
        f"instances: {report.instances}",
        f"failures: {len(report.failures)}",
    ]
    for failure in report.failures:
        rows = ",".join(map(str, failure.diagram))
        lines.append(f"  witness rows:{rows} -- {failure.detail}")
    lines.append(f"status: {'pass' if report.passed else 'FAIL'}")
    return "\n".join(lines)


def render_reports(reports) -> str:
    return "\n\n".join(render_report(r) for r in reports)

"""Property tests beyond the exhaustive degree bound.

Skewed partitions of 50-200 rows and columns, twists in -50..50; the cut
of every rank-1 tree node, twisted in -300..300, against the scheme slope;
the leaf twists of I_Z's tree against its minimal free resolution, and
its syzygy matrix against the steps of the generator exponents; the
clauses of ``assert_actual_wall`` on every tree wall; every
node and diagram predicate of the oracle but ``ci`` on diagrams of up to 300
rows and columns, staircases, doubled triangles, hooks and near-rectangles,
and ``ci`` on complete intersections to 300; the parts
of every candidate cut of I_Z, of the rank-0 objects on its pure bottom
slices and of its box, twisted in -300..300, against the row and column
slices; the trees of ``decompose`` against a recursive reference with no
memo, and the memo's counts; the integer slope comparisons against the
Fraction rule; the oracle's first-largest-candidate chooser against the
candidate walls; the derived dual, and ``mu_opt`` of the dual of every
rank -1 tree node against its scheme slope; the integer characters of objects,
twisted in -300..300, against the Fraction twist; the tree writer against
``json.dumps`` of a reference dict (also exhaustively to degree 11), and
the text round-trips of trees and ideals; rational Chern characters of
rank -3..3 against the Fraction formulas of the integer arithmetic cores,
and their integer form against its inverse; the linearity of the wall and
pairing in ``total - sub``, and the pairing with a wall's orthogonal class
as minus the real part of Z at its top, on those characters and on every
tree node to degree 12; the stored lowest-terms form
after every builder, and equality as exact rational equality;
row lists of mixed types for ``as_diagram``.
"""

from __future__ import annotations

import json
from dataclasses import fields, replace
from fractions import Fraction
from functools import cache
from math import gcd, lcm, prod

from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from staircase import objects, oracle
from staircase.diagram import (
    as_diagram,
    complement_rotate,
    degree,
    enumerate_diagrams_upto,
    parse_ideal,
    render_ideal,
    to_generators,
    transpose,
)
from staircase.ktheory import (
    chern,
    euler_char,
    from_integers,
    from_slope_discriminant,
    ring_product,
    twist,
)
from staircase.objects import (
    LineBundle,
    RankMinusOne,
    RankOne,
    RankZero,
    ShiftedLineBundle,
    candidate_walls,
    chern_of,
    decompose,
    derived_dual,
    destabilizing_sequence,
    first_largest_candidate,
    is_trivial,
    leaves,
    mu_opt,
    parse_tree,
    rank0_hilbert_polynomial,
    rank_minus_one,
    rank_one,
    rank_zero,
    serialize_tree,
    text_name,
    walk,
)
from staircase.resolution import minimal_free_resolution, render_matrix
from staircase.slopes import is_horizontally_pure, scheme_slope, slope_table
from staircase.walls import (
    SemicircleWall,
    VerticalWall,
    orthogonal_invariants,
    potential_wall,
    wall_minors,
)
import decompose_reference
from slice_reference import parts_or_error, slice_above, slice_parts
from tree_asserts import assert_actual_wall, assert_same_text, assert_same_tree


@st.composite
def skewed_diagrams(draw):
    """Row lengths u^p * cols for uniform u: p > 1 crowds the short rows, p < 1 the long."""
    rows = draw(st.integers(50, 200))
    cols = draw(st.integers(50, 200))
    power = draw(st.sampled_from((Fraction(1, 4), Fraction(1), Fraction(4))))
    scale = 1000
    draws = draw(st.lists(st.integers(0, scale), min_size=rows - 1, max_size=rows - 1))
    lengths = sorted(
        (1 + int((cols - 1) * (Fraction(u, scale) ** power)) for u in draws),
        reverse=True,
    )
    return (cols, *lengths)


TWISTS = st.integers(-50, 50)


def first_minimum(obj):
    if isinstance(obj, RankOne):
        key = lambda wall: wall.center
    elif isinstance(obj, RankZero):
        key = lambda wall: -wall.radius_sq
    else:
        key = lambda wall: -wall.center
    # candidate_walls lists the cuts in preference order; min keeps the first
    return min(candidate_walls(obj), key=lambda item: key(item[1]))


@settings(max_examples=15, deadline=None)
@given(skewed_diagrams(), TWISTS)
def test_integer_selection_is_the_candidate_wall_minimum(diagram, t):
    rank_zero_root = decompose(rank_one(diagram)).sequence.quotient
    for root in (*oracle._tree_roots(diagram), rank_zero_root):
        obj = replace(root, twist=t)
        seq = destabilizing_sequence(obj)
        assert (seq.cut, seq.wall) == first_minimum(obj) == first_largest_candidate(obj)


@settings(max_examples=10, deadline=None)
@given(skewed_diagrams(), st.integers(-300, 300))
def test_rank_one_nodes_cut_where_the_scheme_slope_is_attained(diagram, t):
    """The rank-1 key is the slope key, and the twist drops out of it."""
    for node, _, _ in walk(decompose(rank_one(diagram))):
        if isinstance(node.node, RankOne):
            best = scheme_slope(node.node.diagram)
            assert node.sequence.cut == (best.orientation, best.index)
            retwisted = destabilizing_sequence(replace(node.node, twist=t))
            assert retwisted.cut == (best.orientation, best.index)


def sliced_objects(diagram, t):
    """I_Z, the rank-0 object on each pure bottom slice, and the box object, twisted by ``t``."""
    yield rank_one(diagram, t)
    for j in range(1, len(diagram) + 1):
        if is_horizontally_pure(diagram[:j]):
            yield rank_zero(diagram[:j], t)
    yield rank_minus_one(diagram, t)


@settings(max_examples=5, deadline=None)
@given(skewed_diagrams(), st.integers(-300, 300))
def test_every_candidate_cut_of_a_large_object_splits_as_the_slices(diagram, t):
    """Beyond the exhaustive degree bound, and on rank -1 objects, which deep trees lack."""
    for obj in sliced_objects(diagram, t):
        if is_trivial(obj):  # Z fills its box
            continue
        for cut, _, lengths in objects._candidate_subs(obj):
            got = parts_or_error(objects._sequence_parts, obj, cut, lengths)
            # a bool, so that a failure does not diff the reprs of large parts
            same = got == parts_or_error(slice_parts, obj, cut)
            assert same, f"the parts differ at {cut} of {text_name(obj)}"
            if got is ValueError:
                continue
            for part in got:
                if not is_trivial(part):
                    valid = as_diagram(part.diagram) == part.diagram
                    valid = valid and {type(h) for h in part.diagram} == {int}
                    assert valid, f"{text_name(part)} at {cut} of {text_name(obj)} is no diagram of ints"


@settings(max_examples=25, deadline=None)
@given(skewed_diagrams())
def test_transpose_is_the_conjugate_partition(diagram):
    columns = transpose(diagram)
    assert columns == tuple(
        sum(1 for h in diagram if h >= c) for c in range(1, diagram[0] + 1)
    )
    assert transpose(columns) == diagram


@settings(max_examples=8, deadline=None)
@given(skewed_diagrams())
def test_leaf_characters_sum_to_the_ideal(diagram):
    total = [0, 0, 0]
    for leaf in leaves(decompose(rank_one(diagram))):
        total = [a + b for a, b in zip(total, chern_of(leaf))]
    assert chern(*total) == chern(1, 0, -degree(diagram))


@settings(max_examples=8, deadline=None)
@given(skewed_diagrams())
def test_leaf_twists_are_the_minimal_free_resolution(diagram):
    """The O(a) leaves are the generator twists, the O(b)[1] leaves the syzygy twists."""
    tree_leaves = leaves(decompose(rank_one(diagram)))
    res = minimal_free_resolution(diagram)
    line_bundles = [leaf.twist for leaf in tree_leaves if isinstance(leaf, LineBundle)]
    shifted = [leaf.twist for leaf in tree_leaves if isinstance(leaf, ShiftedLineBundle)]
    assert len(line_bundles) + len(shifted) == len(tree_leaves)
    assert sorted(line_bundles) == sorted(res.generator_twists)
    assert sorted(shifted) == sorted(res.syzygy_twists)


@settings(max_examples=8, deadline=None)
@given(skewed_diagrams())
def test_matrix_is_the_bidiagonal_of_generator_exponent_steps(diagram):
    """Column i holds y^(b_{i+1}-b_i) in row i and -x^(a_i-a_{i+1}) in row i+1, else 0."""
    gens = to_generators(diagram)

    def power(var, e):
        return var if e == 1 else f"{var}^{e}"

    expected = [["0"] * (len(gens) - 1) for _ in gens]
    for i, ((a, b), (a_next, b_next)) in enumerate(zip(gens, gens[1:])):
        expected[i][i] = power("y", b_next - b)
        expected[i + 1][i] = "-" + power("x", a - a_next)
    lines = render_matrix(minimal_free_resolution(diagram)).split("\n")
    assert all(line.startswith("[ ") and line.endswith(" ]") for line in lines)
    assert [line[2:-2].split() for line in lines] == expected


@settings(max_examples=15, deadline=None)
@given(skewed_diagrams())
def test_root_wall_is_fixed_by_the_scheme_slope(diagram):
    seq = destabilizing_sequence(rank_one(diagram))
    best = scheme_slope(diagram)
    center = -best.value - Fraction(3, 2)
    assert seq.cut == (best.orientation, best.index)
    assert (seq.wall.center, seq.wall.radius_sq) == (center, center * center - 2 * degree(diagram))


@settings(max_examples=10, deadline=None)
@given(skewed_diagrams())
def test_rank_zero_nodes_lie_on_exactly_their_rows(diagram):
    """Every rank-0 node of the trees of I_Z and of its box has k = r(D) and is pure."""
    for root in (rank_one(diagram), rank_minus_one(diagram)):
        for node, _, _ in walk(decompose(root)):
            if isinstance(node.node, RankZero):
                assert node.node.k == len(node.node.diagram)
                assert is_horizontally_pure(node.node.diagram)
    for family, rows in zip(slope_table(diagram), (diagram, transpose(diagram))):
        n = degree(rows)
        assert family == tuple(
            Fraction(n - degree(slice_above(rows, k)), k) + Fraction(k - 3, 2)
            for k in range(1, len(rows) + 1)
        )


@settings(max_examples=8, deadline=None)
@given(skewed_diagrams())
def test_tree_walls_are_actual_walls(diagram):
    """Clauses A and B of every internal node of both roots' trees, beyond the exhaustive bound."""
    for root in oracle._tree_roots(diagram):
        for node, _, _ in walk(decompose(root)):
            if not node.is_leaf:
                assert_actual_wall(node)


@st.composite
def wide_diagrams(draw):
    """Up to 300 rows and 300 columns, the rows above the bottom one of uniform length."""
    rows = draw(st.integers(1, 300))
    cols = draw(st.integers(1, 300))
    lengths = draw(st.lists(st.integers(1, cols), min_size=rows - 1, max_size=rows - 1))
    return (cols, *sorted(lengths, reverse=True))


def doubled_triangle(r):
    """(2r, 2r, ..., 2, 2)."""
    return tuple(2 * k for k in range(r, 0, -1) for _ in range(2))


def lemma_details(diagram):
    """(check, detail) of each node predicate folded over both roots' trees, then each diagram predicate but ci."""
    details = []
    for name, (_, node_check, item_check) in oracle._CHECKS.items():
        if node_check:
            folded = {}
            for root in oracle._tree_roots(diagram):
                details += [(name, x) for x in oracle._fold(decompose(root), node_check, folded)]
        if item_check and name != "ci":
            details += [(name, x) for x in item_check(diagram)]
    return details


@settings(max_examples=10, deadline=None)
@given(wide_diagrams())
@example(tuple(range(100, 0, -1)))
@example(tuple(range(200, 0, -1)))
@example(doubled_triangle(1))
@example(doubled_triangle(2))
@example(doubled_triangle(3))
@example(doubled_triangle(75))
@example(doubled_triangle(150))
@example((300,) + (1,) * 299)
@example((300,) * 299 + (299,))
@example((300,) * 150 + (1,))
def test_the_lemmas_hold_far_beyond_the_exhaustive_bound(diagram):
    assert lemma_details(diagram) == []


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 300), st.integers(1, 300))
@example(300, 300)
@example(1, 300)
def test_complete_intersections_keep_their_closed_forms_to_300(x, y):
    a, b = sorted((x, y))
    assert list(oracle._check_ci((a,) * b)) == []


def fraction_pure(diagram):
    """Horizontal purity in Fraction arithmetic: mu_j <= mu_r for every j."""
    horizontal = slope_table(diagram)[0]
    return all(mu <= horizontal[-1] for mu in horizontal)


@settings(max_examples=25, deadline=None)
@given(skewed_diagrams())
def test_integer_slope_comparisons_follow_the_fraction_rule(diagram):
    """scheme_slope is the first maximum of the table; purity is mu_j <= mu_r."""
    horizontal, vertical = slope_table(diagram)
    cuts = [(mu, "horizontal", k) for k, mu in enumerate(horizontal, 1)]
    cuts += [(mu, "vertical", i) for i, mu in enumerate(vertical, 1)]
    top = max(mu for mu, _, _ in cuts)
    best = scheme_slope(diagram)
    assert tuple(best) == next(cut for cut in cuts if cut[0] == top)
    assert type(best.value) is Fraction
    assert is_horizontally_pure(diagram) == fraction_pure(diagram)
    if best.orientation == "horizontal":
        # the bottom rows up to the best cut end on their largest slope: pure
        below = diagram[: best.index]
        assert is_horizontally_pure(below) == fraction_pure(below) is True


@settings(max_examples=15, deadline=None)
@given(skewed_diagrams(), TWISTS)
def test_derived_dual_is_an_involution_with_the_slope_identity(diagram, t):
    box = rank_minus_one(diagram, t)
    assume(isinstance(box, RankMinusOne))  # Z fills its box: a trivial object
    dual, dual_twist = derived_dual(box)
    assert dual_twist == box.k + box.i - t
    assert complement_rotate(dual, box.k, box.i) == diagram
    assert mu_opt(box) + t == -mu_opt(rank_one(dual)) + box.i + box.k - 3


@settings(max_examples=10, deadline=None)
@given(skewed_diagrams())
def test_the_dual_of_every_rank_minus_one_node_has_its_scheme_slope_as_mu_opt(diagram):
    """mu_opt(I_{Z'}) = mu(Z') for the dual Z' of each internal rank -1 node: the oracle's duality reads mu(Z')."""
    for root in oracle._tree_roots(diagram):
        for node, _, _ in walk(decompose(root)):
            if isinstance(node.node, RankMinusOne) and not node.is_leaf:
                dual, _ = derived_dual(node.node)
                assert mu_opt(rank_one(dual)) == scheme_slope(dual).value, text_name(node.node)


def fraction_character(obj):
    """The Chern character by the Fraction formula of the object's type and the general Fraction twist."""
    if isinstance(obj, LineBundle):
        return chern(1, obj.twist, Fraction(obj.twist**2, 2))
    if isinstance(obj, ShiftedLineBundle):
        return chern(-1, -obj.twist, Fraction(-obj.twist**2, 2))
    d = obj.diagram
    k, i, n = len(d), d[0], degree(d)
    untwisted = {
        RankOne: (1, 0, -n),
        RankZero: (0, k, -Fraction(k * k, 2) - n),
        RankMinusOne: (-1, k + i, -Fraction(k * k + i * i, 2) - n),
    }
    return twist(chern(*untwisted[type(obj)]), obj.twist)


@settings(max_examples=25, deadline=None)
@given(skewed_diagrams(), st.integers(-300, 300))
def test_integer_characters_are_the_fraction_twist(diagram, t):
    """All five kinds: I_Z, its box, the parts of their root steps, and both leaf kinds."""
    box = rank_minus_one(diagram)
    assume(isinstance(box, RankMinusOne))  # Z fills its box: a trivial object
    found = [LineBundle(0), ShiftedLineBundle(0)]
    for root in (rank_one(diagram), box):
        seq = destabilizing_sequence(root)
        found += [root, seq.sub, seq.quotient]
    assert {type(obj) for obj in found} == {LineBundle, ShiftedLineBundle, RankOne, RankZero, RankMinusOne}
    for obj in found:
        obj = replace(obj, twist=t)
        assert chern_of(obj) == fraction_character(obj)
        assert_lowest_terms(chern_of(obj))


# -- the tree writer against json.dumps, and the text round-trips --


def reference_object(obj):
    """The members of an object's JSON, as a dict for ``json.dumps``."""
    if isinstance(obj, LineBundle):
        return {"type": "line_bundle", "twist": obj.twist}
    if isinstance(obj, ShiftedLineBundle):
        return {"type": "shifted_line_bundle", "twist": obj.twist}
    if isinstance(obj, RankOne):
        return {"type": "rank1", "diagram": list(obj.diagram), "twist": obj.twist}
    if isinstance(obj, RankZero):
        return {"type": "rank0", "diagram": list(obj.diagram), "lines": obj.k, "twist": obj.twist}
    return {
        "type": "rank-1",
        "diagram": list(obj.diagram),
        "lines": obj.k,
        "colines": obj.i,
        "twist": obj.twist,
    }


def reference_tree(tree):
    """The members of a tree's JSON, as a nested dict for ``json.dumps``."""
    data = {"object": reference_object(tree.node)}
    if not tree.is_leaf:
        seq = tree.sequence
        data["cut"] = [seq.cut[0], seq.cut[1]]
        data["wall"] = {"center": str(seq.wall.center), "radius_sq": str(seq.wall.radius_sq)}
        data["sub"] = reference_tree(tree.sub)
        data["quotient"] = reference_tree(tree.quotient)
    return data


def assert_written_as_json_dumps(tree):
    data = reference_tree(tree)
    for pretty, want in (
        (False, json.dumps(data, sort_keys=True, separators=(",", ":"))),
        (True, json.dumps(data, sort_keys=True, indent=2)),
    ):
        assert_same_text(serialize_tree(tree, pretty), want, f"pretty={pretty}, ")


def test_tree_writer_is_json_dumps_to_degree_11_and_on_staircases():
    for diagram in enumerate_diagrams_upto(11):
        for root in oracle._tree_roots(diagram):
            assert_written_as_json_dumps(decompose(root))
    for rows in (40, 150):
        assert_written_as_json_dumps(decompose(rank_one(tuple(range(rows, 0, -1)))))


@settings(max_examples=10, deadline=None)
@given(skewed_diagrams())
def test_tree_writer_is_json_dumps(diagram):
    for root in oracle._tree_roots(diagram):
        assert_written_as_json_dumps(decompose(root))


@settings(max_examples=10, deadline=None)
@given(skewed_diagrams())
def test_decompose_builds_the_recursive_reference_tree_and_counts_as_lru_cache(diagram):
    """On a fresh memo each object is one miss and one entry, and each internal tree two lookups."""
    rank_one_root, *box = oracle._tree_roots(diagram)
    rank_zero_root = decompose(rank_one_root).sequence.quotient
    for root in (rank_one_root, rank_zero_root, *box):
        decompose.cache_clear()
        tree = decompose(root)
        info = decompose.cache_info()
        want = decompose_reference.decompose(root)
        assert_same_tree(tree, want)
        assert tree == want
        assert_same_text(serialize_tree(tree), serialize_tree(want))
        nodes = {t.node: t.is_leaf for t, _, _ in walk(tree)}
        internal = sum(not is_leaf for is_leaf in nodes.values())
        assert info.misses == info.currsize == len(nodes)
        assert info.hits + info.misses == 1 + 2 * internal


@settings(max_examples=10, deadline=None)
@given(skewed_diagrams())
def test_decompose_returns_a_memoized_root_as_one_hit(diagram):
    """A second call on a root gives the very tree of the first, for one hit and no miss or entry."""
    for root in oracle._tree_roots(diagram):
        decompose.cache_clear()
        tree = decompose(root)
        before = decompose.cache_info()
        assert decompose(root) is tree
        after = decompose.cache_info()
        assert after.hits == before.hits + 1
        assert (after.misses, after.currsize) == (before.misses, before.currsize)


@settings(max_examples=10, deadline=None)
@given(skewed_diagrams())
def test_trees_round_trip_through_their_text(diagram):
    tree = decompose(rank_one(diagram))
    for pretty in (False, True):
        text = serialize_tree(tree, pretty)
        assert_same_tree(parse_tree(text), tree)
        assert_same_text(serialize_tree(parse_tree(text), pretty), text)


@settings(max_examples=25, deadline=None)
@given(skewed_diagrams())
def test_ideals_round_trip_through_their_text(diagram):
    assert parse_ideal(render_ideal(diagram)) == diagram


# -- the integer cores of ktheory and walls against their Fraction formulas --
#
# Each reference below is the formula written out in Fraction arithmetic, one
# operation at a time; the library computes the same values from integer
# numerators over a common denominator.

RATIONALS = st.builds(Fraction, st.integers(-40, 40), st.integers(1, 12))
RANKS = st.integers(-3, 3)
CHARACTERS = st.builds(chern, RANKS, RATIONALS, RATIONALS)


def outcome(func, *args):
    """The value, or the exception type and message, of one call."""
    try:
        return func(*args)
    except ValueError as error:
        return type(error), str(error)


def assert_fraction_fields(value):
    """Every field but the integer rank is a Fraction."""
    assert all(type(getattr(value, f.name)) is Fraction for f in fields(value) if f.name != "r")


def assert_lowest_terms(xi):
    """``c1`` and ``ch2`` are Fractions, and the stored ints ``(r, a, b, d)`` have d > 0 and gcd(a, b, d) = 1."""
    assert type(xi.c1) is type(xi.ch2) is Fraction
    assert [type(getattr(xi, f.name)) for f in fields(xi)] == [int] * 4
    assert xi.d > 0 and gcd(xi.a, xi.b, xi.d) == 1


@st.composite
def wall_pairs(draw):
    """Independent pairs, dependent pairs, rank-0 pairs and equal-slope pairs."""
    xi = draw(CHARACTERS)
    kind = draw(st.sampled_from(("any", "dependent", "rank0", "same_slope")))
    if kind == "dependent":
        scale = draw(st.integers(-3, 3))
        other = chern(scale * xi.r, scale * xi.c1, scale * xi.ch2)
    elif kind == "rank0":
        xi = chern(0, xi.c1, xi.ch2)
        other = chern(0, draw(RATIONALS), draw(RATIONALS))
    elif kind == "same_slope":
        xi = chern(draw(st.sampled_from((-3, -2, -1, 1, 2, 3))), xi.c1, xi.ch2)
        r = draw(RANKS)
        other = chern(r, xi.c1 * r / xi.r, draw(RATIONALS))
    else:
        other = draw(CHARACTERS)
    return (xi, other) if draw(st.booleans()) else (other, xi)


def reference_wall(xi1, xi2):
    if (
        xi1.r * xi2.c1 == xi2.r * xi1.c1
        and xi1.r * xi2.ch2 == xi2.r * xi1.ch2
        and xi1.c1 * xi2.ch2 == xi2.c1 * xi1.ch2
    ):
        raise ValueError("linearly dependent characters bound no wall")
    c = xi1.c1 * xi2.r - xi2.c1 * xi1.r
    if c == 0:
        if xi1.r == 0 and xi2.r == 0:
            raise ValueError("two rank-0 characters share no wall (empty locus)")
        reference = xi1 if xi1.r != 0 else xi2
        return VerticalWall(Fraction(reference.c1, reference.r))
    center = (xi1.ch2 * xi2.r - xi2.ch2 * xi1.r) / c
    radius_sq = center * center + 2 * (xi1.c1 * xi2.ch2 - xi2.c1 * xi1.ch2) / c
    return SemicircleWall(center, radius_sq)


@settings(max_examples=200, deadline=None)
@given(wall_pairs())
def test_potential_wall_matches_the_fraction_formula(pair):
    wall = outcome(potential_wall, *pair)
    assert wall == outcome(reference_wall, *pair)
    if isinstance(wall, (VerticalWall, SemicircleWall)):
        assert_fraction_fields(wall)
    if isinstance(wall, SemicircleWall):
        mu, delta = orthogonal_invariants(wall)
        assert (mu, delta) == (-wall.center - Fraction(3, 2), wall.radius_sq / 2 - Fraction(1, 8))
        assert type(mu) is type(delta) is Fraction


@settings(max_examples=150, deadline=None)
@given(CHARACTERS)
def test_stored_fields_are_one_denominator_that_from_integers_inverts(xi):
    r, a, b, d = xi.r, xi.a, xi.b, xi.d
    assert d == lcm(xi.c1.denominator, (2 * xi.ch2).denominator) > 0
    assert from_integers(r, a, b, d) == xi


NONZERO = st.integers(-12, 12).filter(bool)


@settings(max_examples=150, deadline=None)
@given(RANKS, st.integers(-60, 60), st.integers(-60, 60), NONZERO, CHARACTERS, st.integers(-20, 20))
@example(1, 2, -4, -6, chern(0, 0, 0), 0)
@example(0, 0, 0, -3, chern(-1, Fraction(1, 2), Fraction(-1, 4)), 1)
def test_every_builder_stores_the_lowest_terms_form(r, a, b, d, zeta, m):
    """d > 0 and gcd(a, b, d) = 1 after ``chern``, ``from_integers`` of any sign of d, and every operation."""
    xi = from_integers(r, a, b, d)
    assert (xi.c1, 2 * xi.ch2) == (Fraction(a, d), Fraction(b, d))
    built = [xi, chern(r, Fraction(a, d), Fraction(b, 2 * d)), twist(xi, m), ring_product(xi, zeta)]
    built.append(from_slope_discriminant(r or 1, Fraction(a, d), Fraction(b, d)))
    for value in built:
        assert_lowest_terms(value)


@settings(max_examples=150, deadline=None)
@given(RANKS, st.integers(-60, 60), st.integers(-60, 60), NONZERO, NONZERO)
@example(2, 3, 5, 4, -1)
def test_scaled_integer_forms_are_one_character(r, a, b, d, scale):
    """Every nonzero scale, negative included, gives an equal character of equal hash."""
    xi, scaled = from_integers(r, a, b, d), from_integers(r, scale * a, scale * b, scale * d)
    assert scaled == xi and hash(scaled) == hash(xi)
    assert (scaled.r, scaled.a, scaled.b, scaled.d) == (xi.r, xi.a, xi.b, xi.d)


@st.composite
def character_pairs(draw):
    """Independent pairs, and pairs of one character reached by another builder or a nudged one."""
    xi = draw(CHARACTERS)
    kind = draw(st.sampled_from(("any", "same", "nudged")))
    if kind == "any":
        return xi, draw(CHARACTERS)
    r, a, b, d = xi.r, xi.a, xi.b, xi.d
    if kind == "same":
        scale = draw(NONZERO)
        return xi, from_integers(r, scale * a, scale * b, scale * d)
    nudge = [0, 0, 0]
    nudge[draw(st.integers(0, 2))] = draw(NONZERO)
    return xi, chern(r + nudge[0], xi.c1 + Fraction(nudge[1], 7), xi.ch2 + Fraction(nudge[2], 11))


@settings(max_examples=150, deadline=None)
@given(character_pairs())
def test_characters_are_equal_exactly_when_their_rationals_are(pair):
    xi, zeta = pair
    assert (xi == zeta) == (tuple(xi) == tuple(zeta))
    if xi == zeta:
        assert hash(xi) == hash(zeta)


def scaled_parts(xi, *scales):
    """(r, a, b, d) with c1 = a/d and 2*ch2 = b/d, read from the fields over their lcm times ``scales``."""
    d = lcm(xi.c1.denominator, (2 * xi.ch2).denominator) * prod(scales)
    return xi.r, int(xi.c1 * d), int(2 * xi.ch2 * d), d


@settings(max_examples=200, deadline=None)
@given(wall_pairs(), st.lists(st.integers(1, 6), min_size=4, max_size=4))
@example((chern(1, Fraction(2, 3), 0), chern(0, 0, Fraction(5, 7))), [2, 1, 3, 5])
@example((chern(3, Fraction(2, 5), Fraction(1, 7)), chern(-3, Fraction(-2, 5), 0)), [1, 4, 2, 3])
@example((chern(1, Fraction(2, 3), Fraction(3, 7)), chern(2, Fraction(4, 3), Fraction(6, 7))), [3, 1, 1, 2])
@example((chern(0, Fraction(2, 9), 3), chern(0, 4, Fraction(5, 11))), [1, 1, 6, 6])
def test_integer_wall_core_agrees_with_potential_wall(pair, scales):
    """Vertical walls and both errors included, on parts in and out of lowest terms.

    The integer core raises the same errors, its minor c is 0 exactly for a vertical wall,
    and its minors give the same semicircle.
    """
    xi1, xi2 = pair
    parts = scaled_parts(xi1, *scales[:2]) + scaled_parts(xi2, *scales[2:])
    wall = outcome(potential_wall, xi1, xi2)
    minors = outcome(wall_minors, *parts)
    if not isinstance(wall, (VerticalWall, SemicircleWall)):
        assert minors == wall
    elif isinstance(wall, VerticalWall):
        assert minors[1] == 0
    else:
        assert minors[0] == lcm(parts[3], parts[7]) and minors[1] != 0
        assert SemicircleWall.from_minors(*minors) == wall


def assert_quotient_follows(sub, total, zeta):
    """With quot = total - sub: W(total, quot) = W(sub, total), and chi(zeta . -) is linear.

    These are why the ``chern`` check tests its wall and pairing on the sub and the node only.
    """
    quot = chern(total.r - sub.r, total.c1 - sub.c1, total.ch2 - sub.ch2)
    assert outcome(potential_wall, total, quot) == outcome(potential_wall, sub, total)
    total_chi, sub_chi, quot_chi = (euler_char(ring_product(zeta, xi)) for xi in (total, sub, quot))
    assert quot_chi == total_chi - sub_chi


@cache
def node_characters(n_max):
    """The distinct (sub, node, quotient) characters and wall of the oracle's tree nodes to degree ``n_max``."""
    characters = {}
    for d in oracle._diagrams(n_max):
        for root in oracle._tree_roots(d):
            for node, _, _ in walk(decompose(root)):
                if not node.is_leaf:
                    parts = node.sub.node, node.node, node.quotient.node
                    characters[(*map(chern_of, parts), node.sequence.wall)] = None
    return tuple(characters)


def real_part(xi, s, t2):
    """Re Z_{s,t}(xi) = -ch2 + s c1 - (s^2 - t^2) r/2, in Fractions."""
    return -xi.ch2 + s * xi.c1 - (s * s - t2) * Fraction(xi.r, 2)


@settings(max_examples=150, deadline=None)
@given(CHARACTERS, RATIONALS, RATIONALS)
def test_the_orthogonal_pairing_is_minus_the_real_part_at_the_wall_top(xi, s, t2):
    """chi(zeta . xi) = -Re Z_{s,t}(xi): why the ``chern`` check tests no central charge."""
    zeta = from_slope_discriminant(1, *orthogonal_invariants(SemicircleWall(s, t2)))
    assert euler_char(ring_product(zeta, xi)) == -real_part(xi, s, t2)


def test_every_tree_node_to_degree_12_has_real_part_0_at_its_wall_top():
    for sub, total, _, wall in node_characters(12):
        assert real_part(sub, wall.center, wall.radius_sq) == 0
        assert real_part(total, wall.center, wall.radius_sq) == 0


@settings(max_examples=200, deadline=None)
@given(wall_pairs(), CHARACTERS)
def test_the_quotient_wall_and_pairing_follow_from_the_sub_and_node(pair, zeta):
    assert_quotient_follows(*pair, zeta)


@settings(max_examples=10, deadline=None)
@given(CHARACTERS)
def test_every_tree_node_to_degree_12_splits_its_quotient_clauses(zeta):
    for sub, total, quot, _ in node_characters(12):
        assert quot == chern(total.r - sub.r, total.c1 - sub.c1, total.ch2 - sub.ch2)
        assert_quotient_follows(sub, total, zeta)


@settings(max_examples=150, deadline=None)
@given(CHARACTERS, CHARACTERS, st.integers(-20, 20))
def test_twist_ring_product_euler_char_match_the_fraction_formulas(xi, zeta, m):
    twisted = twist(xi, m)
    assert twisted == chern(
        xi.r, xi.c1 + xi.r * m, xi.ch2 + xi.c1 * m + Fraction(xi.r * m * m, 2)
    )
    product = ring_product(xi, zeta)
    assert product == chern(
        xi.r * zeta.r,
        xi.r * zeta.c1 + zeta.r * xi.c1,
        xi.r * zeta.ch2 + xi.c1 * zeta.c1 + xi.ch2 * zeta.r,
    )
    chi = euler_char(xi)
    assert chi == xi.r + Fraction(3, 2) * xi.c1 + xi.ch2
    for value in (twisted, product):
        assert_lowest_terms(value)
    assert type(chi) is Fraction


@settings(max_examples=100, deadline=None)
@given(st.sampled_from((-3, -2, -1, 1, 2, 3)), RATIONALS, RATIONALS)
def test_from_slope_discriminant_matches_the_fraction_formula(r, mu, delta):
    xi = from_slope_discriminant(r, mu, delta)
    assert xi == chern(r, r * mu, r * (mu * mu / 2 - delta))
    assert_lowest_terms(xi)


@settings(max_examples=50, deadline=None)
@given(skewed_diagrams())
def test_rank0_hilbert_polynomials_match_the_fraction_formula(diagram):
    """On every bottom slice; the gieseker check's integer comparison of them agrees."""
    reduced = []
    for j in range(1, len(diagram) + 1):
        d = diagram[:j]
        k, n = len(d), degree(d)
        leading, constant = Fraction(k), -(n + Fraction(k * k - 3 * k, 2))
        full = rank0_hilbert_polynomial(d)
        assert full == (leading, constant)
        assert {type(x) for x in full} == {Fraction}
        reduced.append(constant / leading)
    assert is_horizontally_pure(diagram) == all(c >= reduced[-1] for c in reduced[:-1])
    assert not any(oracle._check_gieseker(diagram))


ROW_ENTRIES = st.one_of(
    st.integers(-2, 6), st.booleans(), st.sampled_from((0.0, 2.0, 2.5, Fraction(3), Fraction(1, 2)))
)


@settings(max_examples=200, deadline=None)
@given(st.lists(ROW_ENTRIES, max_size=6))
def test_as_diagram_accepts_and_rejects_as_the_plain_loop(rows):
    def reference(rows):
        ints = []
        for h in rows:
            if h != int(h):
                raise ValueError(f"row length {h!r} is not an integer")
            ints.append(int(h))
        for prev, cur in zip(ints, ints[1:]):
            if cur > prev:
                raise ValueError(
                    f"rows must be weakly decreasing bottom-to-top, got {prev} before {cur}"
                )
        cleaned = []
        for h in ints:  # weakly decreasing, so the last row is the least
            if h < 0:
                raise ValueError(f"row length {ints[-1]} is negative")
            if h > 0:
                cleaned.append(h)
        return tuple(cleaned)

    result, expected = outcome(as_diagram, rows), outcome(reference, rows)
    assert result == expected
    assert list(map(type, result)) == list(map(type, expected))

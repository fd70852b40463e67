"""The bnode matcher: distances, signatures, solver tiers, oracle."""

from __future__ import annotations

import math
import random
import time

import numpy as np
import pytest

from bnodematch import (
    EquivalenceRelation,
    Graph,
    InstanceTooLarge,
    Renaming,
    Triple,
    bnode,
    brute_force_match,
    iri,
    literal,
    mapping_cost,
    match_bnodes,
    pair_distance,
    rename_graph,
)
from bnodematch import ntriples
from bnodematch.generator import GenSpec, generate_pair
from bnodematch.matcher import (
    ASSIGNMENT,
    BRUTE_FORCE,
    REFINEMENT,
    BnodeMapping,
    _incident_tokens,
    _move_gain,
    _oracle_dist,
    _color_of,
    _distance_matrix,
    _exact_search,
    _PairContext,
    _wildcard,
    format_mapping,
    parse_mapping,
)
from conftest import random_relabeling, round_tokens, signatures, small_pair


class TestPairDistance:
    def test_matching_addresses_have_distance_zero(self, g1, g2):
        assert pair_distance(g1, g2, bnode("1"), bnode("2")) == 0

    def test_changed_address_costs_eight(self, g2, g3):
        # oracle: four component triples deleted, four added; the
        # hasAddress in-edge aligns once the bnodes are identified
        d = pair_distance(g2, g3, bnode("2"), bnode("3"))
        incident2 = 5
        incident3 = 5
        shared = 1
        assert d == (incident2 - shared) + (incident3 - shared)
        assert d == 8

    def test_self_distance_is_zero(self, g4):
        for b in g4.bnodes():
            assert pair_distance(g4, g4, b, b, mapping={x: x for x in g4.bnodes()}) == 0

    def test_rejects_non_bnodes(self, g1, g2):
        with pytest.raises(ValueError):
            pair_distance(g1, g2, iri("http://x"), bnode("2"))

    def test_unmapped_neighbors_never_match(self, g4):
        # the two address structures in g3/g4 differ only in their owners:
        # an IRI in one, an unmapped bnode in the other
        other = rename_graph(g4, Renaming({bnode("4"): bnode("40"), bnode("5"): bnode("50")}))
        d_unmapped = pair_distance(g4, other, bnode("4"), bnode("40"))
        assert d_unmapped == 2  # the hasAddress in-edges cannot align
        d_mapped = pair_distance(
            g4, other, bnode("4"), bnode("40"), mapping={bnode("5"): bnode("50")}
        )
        assert d_mapped == 0

    def test_equivalence_relation_feeds_the_distance(self, g3, g4):
        exact_d = pair_distance(g3, g4, bnode("3"), bnode("4"))
        # identical components; only the in-edge subjects differ
        assert exact_d == 2
        suffix = EquivalenceRelation.for_graphs("suffix", [g3, g4])
        assert pair_distance(g3, g4, bnode("3"), bnode("4"), equiv=suffix) == 2

    def test_mapping_independence_without_bnode_neighbors(self, g1, g2):
        stray = {bnode("1"): bnode("2")}
        assert pair_distance(g1, g2, bnode("1"), bnode("2"), mapping=stray) == \
            pair_distance(g1, g2, bnode("1"), bnode("2"), mapping=None)


class TestSignatures:
    def test_matching_bnodes_share_a_signature(self, g1, g2):
        assert round_tokens(g1, bnode("1")) == round_tokens(g2, bnode("2"))
        assert signatures(g1)[bnode("1")] == signatures(g2)[bnode("2")]
        assert signatures(g1)[bnode("1")] == _color_of(round_tokens(g1, bnode("1")))

    def test_token_count_equals_degree(self, g4):
        assert len(round_tokens(g4, bnode("4"))) == 5
        assert len(round_tokens(g4, bnode("5"))) == 3

    def test_different_predicates_give_different_signatures(self):
        p, q, u = iri("http://p"), iri("http://q"), iri("http://u")
        g = Graph([Triple(bnode("a"), p, u), Triple(bnode("b"), q, u)])
        assert round_tokens(g, bnode("a")) != round_tokens(g, bnode("b"))
        assert signatures(g)[bnode("a")] != signatures(g)[bnode("b")]

    def test_connected_pair_changes_between_rounds(self, g4):
        # recomputed by hand: round 1 sees the neighbor as a placeholder,
        # round 2 sees its color, so the tokens must differ
        for b in (bnode("4"), bnode("5")):
            assert round_tokens(g4, b, rounds=1) != round_tokens(g4, b, rounds=2)
            assert signatures(g4, rounds=2)[b] == _color_of(round_tokens(g4, b, rounds=2))


class TestSolver:
    def test_running_example_first_pair(self, g1, g2):
        m = match_bnodes(g1, g2)
        assert m.pairs == {bnode("1"): bnode("2")}
        assert m.cost == 0

    def test_running_example_second_pair(self, g2, g3):
        m = match_bnodes(g2, g3)
        assert m.pairs == {bnode("2"): bnode("3")}
        assert m.cost == 8

    def test_self_match_is_identity(self, g4):
        m = match_bnodes(g4, g4)
        assert m.pairs == {b: b for b in g4.bnodes()}
        assert m.cost == 0

    def test_empty_side_gives_empty_mapping(self, g1):
        ground = Graph([Triple(iri("http://a"), iri("http://p"), literal("x"))])
        assert match_bnodes(Graph(), g1).pairs == {}
        assert match_bnodes(Graph(), ground).cost == 0

    def test_swap_convention(self, g4, g1):
        # first graph has more bnodes: solved swapped, inverted back
        m = match_bnodes(g4, g1)
        assert set(m.pairs) <= g4.bnodes()
        assert set(m.pairs.values()) <= g1.bnodes()

    def test_assignment_tier_engages_on_unconnected_graphs(self):
        pair = small_pair(3, bnodes=5, connectivity=0.0, mutations=1)
        m = match_bnodes(pair.g1, pair.g2, exact_threshold=0)
        assert m.method == ASSIGNMENT

    def test_refinement_tier_engages_on_connected_graphs(self):
        pair = small_pair(4, bnodes=5, connectivity=0.9, mutations=1)
        m = match_bnodes(pair.g1, pair.g2, exact_threshold=0)
        assert m.method == REFINEMENT

    def test_deterministic_given_config(self):
        pair = small_pair(11, bnodes=6, connectivity=0.5, mutations=3)
        runs = [match_bnodes(pair.g1, pair.g2) for _ in range(3)]
        assert all(r.pairs == runs[0].pairs and r.cost == runs[0].cost for r in runs)


class TestBruteForceOracle:
    def test_agrees_with_exact_tier_on_the_fixture(self, g1, g2):
        oracle = brute_force_match(g1, g2)
        solved = match_bnodes(g1, g2)
        assert solved.method == BRUTE_FORCE
        assert oracle.cost == solved.cost == 0
        assert oracle.pairs == {bnode("1"): bnode("2")}

    def test_empty_graph_against_ground_graph_costs_nothing(self):
        ground = Graph([Triple(iri("http://a"), iri("http://p"), literal("v"))])
        m = brute_force_match(Graph(), ground)
        assert m.pairs == {} and m.cost == 0

    def test_cross_checks_assignment_tier_on_unconnected_pairs(self):
        for seed in range(6):
            pair = small_pair(40 + seed, bnodes=4, connectivity=0.0, mutations=2)
            oracle = brute_force_match(pair.g1, pair.g2)
            tier2 = match_bnodes(pair.g1, pair.g2, exact_threshold=0)
            assert tier2.method == ASSIGNMENT
            assert tier2.cost == oracle.cost

    def test_guard_rejects_large_instances(self):
        g = Graph(
            [Triple(bnode(f"b{i}"), iri("http://p"), literal(str(i))) for i in range(9)]
        )
        with pytest.raises(InstanceTooLarge):
            brute_force_match(g, g)


def test_exact_tiers_agree_with_oracle_on_generated_instances():
    rng = random.Random(2024)
    for trial in range(40):
        connectivity = 0.0 if trial % 2 else 0.5
        bnodes = rng.randint(1, 5)
        if connectivity > 0 and bnodes < 2:
            bnodes = 2
        pair = small_pair(500 + trial, bnodes=bnodes, connectivity=connectivity,
                          mutations=rng.randint(0, 4))
        oracle = brute_force_match(pair.g1, pair.g2)
        solved = match_bnodes(pair.g1, pair.g2)
        assert solved.cost == oracle.cost, f"trial {trial}"
        assert mapping_cost(pair.g1, pair.g2, solved.pairs) == solved.cost


def test_assignment_distances_ignore_the_mapping():
    pair = small_pair(77, bnodes=5, connectivity=0.0, mutations=2)
    some_pairs = dict(match_bnodes(pair.g1, pair.g2).pairs)
    for b1 in pair.g1.bnodes():
        for b2 in pair.g2.bnodes():
            assert pair_distance(pair.g1, pair.g2, b1, b2, mapping=some_pairs) == \
                pair_distance(pair.g1, pair.g2, b1, b2, mapping=None)


def test_refinement_cost_is_bounded_both_ways():
    for seed in range(12):
        pair = small_pair(900 + seed, bnodes=4, connectivity=0.6, mutations=seed % 5)
        oracle = brute_force_match(pair.g1, pair.g2)
        approx = match_bnodes(pair.g1, pair.g2, exact_threshold=0)
        if approx.method == REFINEMENT:
            empty = mapping_cost(pair.g1, pair.g2, {})
            assert oracle.cost <= approx.cost <= empty


def test_relabeling_invariance():
    rng = random.Random(31)
    for seed in range(10):
        pair = small_pair(seed, bnodes=5, connectivity=0.5, mutations=0)
        g = pair.g1
        relabeled = rename_graph(g, random_relabeling(g, rng))
        assert match_bnodes(g, relabeled).cost == 0


def test_zero_cost_is_symmetric(g1, g2, g2_no_birthday):
    assert (match_bnodes(g1, g2_no_birthday).cost == 0) == (
        match_bnodes(g2_no_birthday, g1).cost == 0
    )
    assert (match_bnodes(g1, g2).cost == 0) == (match_bnodes(g2, g1).cost == 0)


def test_planted_mapping_bounds_the_solver():
    for seed in range(15):
        pair = small_pair(300 + seed, bnodes=5, connectivity=0.4, mutations=seed % 6)
        solved = match_bnodes(pair.g1, pair.g2)
        assert solved.cost <= mapping_cost(pair.g1, pair.g2, pair.truth)


def test_mapping_file_round_trip(g2, g3):
    m = match_bnodes(g2, g3)
    text = format_mapping(m)
    assert text.splitlines()[0] == "M 2 3"
    assert text.splitlines()[-1] == "# cost=8 method=brute_force"
    loaded = parse_mapping(text)
    assert loaded.pairs == m.pairs
    assert loaded.cost == 8
    assert loaded.method == "brute_force"


@pytest.mark.parametrize("eol", ["\r", "\r\n"], ids=["cr", "crlf"])
def test_mapping_file_lines_end_at_cr_as_at_lf(eol):
    text = "M a x\nM b y\n# cost=3 method=loaded\n"
    loaded, same = parse_mapping(text), parse_mapping(text.replace("\n", eol))
    assert (same.pairs, same.cost, same.method) == (loaded.pairs, loaded.cost, loaded.method)
    with pytest.raises(ntriples.ParseError) as err:
        parse_mapping(f"M a x{eol}{eol}M b x{eol}")
    assert err.value.line_no == 3


def test_mapping_file_rejects_garbage():
    with pytest.raises(ValueError):
        parse_mapping("M a\n")
    with pytest.raises(ValueError):
        parse_mapping("Z a b\n")


@pytest.mark.parametrize("text", ["M a x\nM b x\n", "M a x\nM a y\n"],
                         ids=["target", "source"])
def test_mapping_file_rejects_a_repeated_label(text):
    with pytest.raises(ntriples.ParseError) as err:
        parse_mapping(text)
    assert err.value.line_no == 2


def test_negative_exact_threshold_is_rejected(g1, g2):
    with pytest.raises(ValueError, match="exact_threshold must be >= 0"):
        match_bnodes(g1, g2, exact_threshold=-1)


# -- the vectorised cost matrix ---------------------------------------------


def _per_cell_matrix(ctx, rows, cols, m):
    """Reference for ``cost_matrix``: one ``dist`` call per cell."""
    return np.array(
        [[ctx.dist(b1, b2, m) - ctx.penalty_right(b2) for b2 in cols] for b1 in rows],
        dtype=np.int64,
    ).reshape(len(rows), len(cols))


def _other_namespace(g: Graph) -> Graph:
    """Move subject/object IRIs to another namespace with their case changed."""
    moved = {
        u: iri("http://other.example/" + u.value.rsplit("/", 1)[1].upper())
        for u in g.uris()
    }
    return rename_graph(g, Renaming(moved))


def _with_self_loops(g: Graph, every: int = 3) -> Graph:
    loop = iri("http://gen.example/loop")
    bs = sorted(g.bnodes(), key=lambda b: b.value)
    return Graph(g.triples | {Triple(b, loop, b) for b in bs[::every]}, g.graph_id)


def _contexts(seed: int, connectivity: float):
    pair = small_pair(seed, bnodes=6 + seed % 5, connectivity=connectivity,
                      mutations=seed % 4)
    right = _other_namespace(pair.g2) if seed % 2 else pair.g2
    for g1, g2 in ((pair.g1, right), (_with_self_loops(pair.g1), _with_self_loops(right, 2))):
        for policy in ("exact", "suffix"):
            equiv = EquivalenceRelation.for_graphs(policy, [g1, g2])
            yield pair, _PairContext(g1, g2, equiv)


class TestCostMatrix:
    def test_equals_per_cell_distances_under_the_empty_mapping(self):
        for seed in range(12):
            for _, ctx in _contexts(seed, 0.0):
                np.testing.assert_array_equal(
                    ctx.cost_matrix(ctx.left, ctx.right, {}),
                    _per_cell_matrix(ctx, ctx.left, ctx.right, {}),
                )

    def test_equals_per_cell_distances_for_the_residue_of_a_partial_mapping(self):
        for seed in range(12):
            for pair, ctx in _contexts(seed, 0.5):
                m = dict(sorted(pair.truth.items(), key=lambda p: p[0].value)[::2])
                rest1 = [b for b in ctx.left if b not in m]
                rest2 = [b for b in ctx.right if b not in set(m.values())]
                np.testing.assert_array_equal(
                    ctx.cost_matrix(rest1, rest2, m),
                    _per_cell_matrix(ctx, rest1, rest2, m),
                )
                # rows that are themselves mapped read the same way
                np.testing.assert_array_equal(
                    ctx.cost_matrix(ctx.left, ctx.right, m),
                    _per_cell_matrix(ctx, ctx.left, ctx.right, m),
                )

    def test_counts_collapsed_tokens_once(self):
        p, q = iri("http://gen.example/p"), iri("http://gen.example/q")
        b = bnode("b")
        g1 = Graph([
            Triple(b, p, iri("http://a.org/Name")),
            Triple(b, p, iri("http://b.org/name")),
            Triple(b, q, literal("x")),
        ])
        g2 = Graph([
            Triple(bnode("c"), p, iri("http://c.org/NAME")),
            Triple(bnode("c"), q, literal("x")),
            Triple(bnode("d"), q, literal("y")),
        ])
        equiv = EquivalenceRelation.for_graphs("suffix", [g1, g2])
        ctx = _PairContext(g1, g2, equiv)
        # the two IRI objects share one representative: 2 tokens, degree 3
        tokens = _incident_tokens(g1, b, ctx._ground, ntriples.render_term)
        assert len(set(tokens)) < ctx.penalty(b)
        matrix = ctx.cost_matrix(ctx.left, ctx.right, {})
        np.testing.assert_array_equal(matrix, _per_cell_matrix(ctx, ctx.left, ctx.right, {}))
        assert matrix[0, 0] + ctx.penalty_right(bnode("c")) == 0

    def test_empty_row_or_column_lists(self, g1, g2):
        ctx = _PairContext(g1, g2, EquivalenceRelation.exact())
        assert ctx.cost_matrix([], ctx.right, {}).shape == (0, len(ctx.right))
        assert ctx.cost_matrix(ctx.left, [], {}).shape == (len(ctx.left), 0)


def _per_cell_distances(rows, cols):
    """Reference for ``_distance_matrix``: one ``len(L ^ R)`` per cell."""
    return np.array([[len(left ^ right) for right in cols] for left in rows],
                    dtype=np.int64).reshape(len(rows), len(cols))


class TestDistanceMatrix:
    def _assert_per_cell(self, rows, cols):
        matrix = _distance_matrix(rows, cols)
        assert matrix.dtype == np.int64
        np.testing.assert_array_equal(matrix, _per_cell_distances(rows, cols))

    def test_empty_row_and_column_lists(self):
        toks = [frozenset({"a", "b"})]
        for rows, cols in (([], []), ([], toks), (toks, [])):
            self._assert_per_cell(rows, cols)

    def test_empty_token_sets(self):
        empty, some = frozenset(), frozenset({"a", "b"})
        self._assert_per_cell([empty, some, empty], [some, empty])
        self._assert_per_cell([empty], [empty])

    def test_row_tokens_no_column_holds(self):
        self._assert_per_cell(
            [frozenset({"x", "y"}), frozenset({"a", "x"}), frozenset({"z"})],
            [frozenset({"a", "b"}), frozenset({"b"}), frozenset({"a", "c"})],
        )

    @pytest.mark.parametrize("n", [400, 1500])
    @pytest.mark.parametrize("connectivity", [0.0, 0.3])
    def test_cost_and_bound_matrices_of_generated_pairs(self, n, connectivity):
        pair = generate_pair(GenSpec(n, n // 2, connectivity, n // 20, seed=7))
        ctx = _PairContext(pair.g1, pair.g2, EquivalenceRelation.exact())
        right = [ctx._right_tokens[b] for b in ctx.right]
        for m in ({}, pair.truth):
            self._assert_per_cell([ctx._left_tokens(b, m) for b in ctx.left], right)

        def wild(g, bnodes):
            return [frozenset(_incident_tokens(g, b, ctx._ground, _wildcard)) for b in bnodes]

        self._assert_per_cell(wild(ctx.g1, ctx.left), wild(ctx.g2, ctx.right))


def test_assignment_tier_agrees_with_oracle_under_suffix():
    for seed in range(16):
        pair = small_pair(700 + seed, bnodes=2 + seed % 5, connectivity=0.0,
                          mutations=seed % 4)
        g2 = _other_namespace(pair.g2)
        if seed % 4 == 3:
            g2 = _with_self_loops(g2)
        equiv = EquivalenceRelation.for_graphs("suffix", [pair.g1, g2])
        oracle = brute_force_match(pair.g1, g2, equiv)
        tier2 = match_bnodes(pair.g1, g2, equiv, exact_threshold=0)
        assert tier2.method == ASSIGNMENT, f"seed {seed}"
        assert tier2.cost == oracle.cost, f"seed {seed}"


def test_assignment_tier_scales_to_fifteen_hundred_bnodes():
    pair = generate_pair(GenSpec(bnode_count=1500, ground_triples=750,
                                 mutation_ops=75, seed=5))
    start = time.perf_counter()
    m = match_bnodes(pair.g1, pair.g2)
    elapsed = time.perf_counter() - start
    assert m.method == ASSIGNMENT
    assert m.cost <= mapping_cost(pair.g1, pair.g2, pair.truth)
    assert elapsed < 5.0, f"n=1500 assignment took {elapsed:.1f} s"


# -- one predicate rule: equivalence applies to predicates too ---------------


def _all_iris_moved(g: Graph) -> Graph:
    """Every IRI, predicates included, in another namespace with its case changed.

    ``rename_graph`` never moves predicates, so the triples are rebuilt.
    """

    def move(term):
        if term.kind != "iri":
            return term
        return iri("http://other.example/" + term.value.rsplit("/", 1)[1].upper())

    return Graph([Triple(move(t.s), move(t.p), move(t.o)) for t in g], g.graph_id)


def _moved_cases(count: int):
    """Generated pairs n <= 6, flat and linked, with the right side's IRIs moved."""
    for seed in range(count):
        pair = small_pair(1100 + seed, bnodes=2 + seed % 5,
                          connectivity=0.0 if seed % 2 else 0.5, mutations=seed % 4)
        moved = _all_iris_moved(pair.g2)
        yield seed, pair, moved, EquivalenceRelation.for_graphs("suffix", [pair.g1, moved])


class TestPredicateEquivalence:
    def test_tiers_against_the_oracle_with_predicates_moved(self):
        tiers = set()
        for seed, pair, moved, equiv in _moved_cases(28):
            oracle = brute_force_match(pair.g1, moved, equiv)
            # suffix equivalence undoes the move, predicates included
            assert oracle.cost == brute_force_match(pair.g1, pair.g2).cost, f"seed {seed}"
            exact = match_bnodes(pair.g1, moved, equiv)
            assert (exact.method, exact.cost) == (BRUTE_FORCE, oracle.cost), f"seed {seed}"
            forced = match_bnodes(pair.g1, moved, equiv, exact_threshold=0)
            tiers.add(forced.method)
            if forced.method == REFINEMENT:
                assert forced.cost >= oracle.cost, f"seed {seed}"
            else:  # the assignment tier, or the exact one on an empty side
                assert forced.cost == oracle.cost, f"seed {seed}"
            assert mapping_cost(pair.g1, moved, forced.pairs, equiv) == forced.cost
        assert {ASSIGNMENT, REFINEMENT} <= tiers

    def test_distances_agree_with_the_oracle_route_and_the_lower_bound(self):
        for seed, pair, moved, equiv in _moved_cases(16):
            if len(pair.g1.bnodes()) > len(moved.bnodes()):
                continue
            ctx = _PairContext(pair.g1, moved, equiv)
            bounds = ctx.bound_matrix()
            rng = random.Random(seed)
            k = rng.randint(0, len(ctx.left))
            m = dict(zip(rng.sample(ctx.left, k), rng.sample(ctx.right, k)))
            for i, b1 in enumerate(ctx.left):
                for j, b2 in enumerate(ctx.right):
                    d = ctx.dist(b1, b2, m)
                    assert bounds[i, j] <= d, f"seed {seed}"
                    assert d == _oracle_dist(pair.g1, moved, b1, b2, m, equiv), f"seed {seed}"
                    assert d == pair_distance(pair.g1, moved, b1, b2, m, equiv), f"seed {seed}"

    def test_signatures_see_equivalent_predicates_as_one(self):
        pair = small_pair(5, bnodes=6, connectivity=0.5, mutations=0)
        moved = _all_iris_moved(pair.g1)
        equiv = EquivalenceRelation.for_graphs("suffix", [pair.g1, moved])
        for rounds in (1, 2, 3):
            assert signatures(pair.g1, equiv, rounds) == signatures(moved, equiv, rounds)


# -- one gain rule -----------------------------------------------------------


def test_move_gain_equals_the_change_of_the_full_objective():
    rng = random.Random(17)
    checked = 0
    for seed in range(10):
        for pair, ctx in _contexts(200 + seed, 0.5):
            left, right = ctx.left, ctx.right
            k = rng.randint(0, len(left))
            m = dict(zip(rng.sample(left, k), rng.sample(right, k)))
            for _ in range(25):
                b1 = rng.choice(left)
                unused = [b for b in right if b not in set(m.values())]
                kind = rng.choice(("swap", "reassign", "unmap"))
                if kind == "swap" and len(m) >= 2:
                    a, b = rng.sample(sorted(m, key=lambda t: t.value), 2)
                    new_m = dict(m)
                    new_m[a], new_m[b] = m[b], m[a]
                    moved = (a, b)
                elif kind == "reassign" and unused:
                    new_m = {x: y for x, y in m.items() if x != b1} | {b1: rng.choice(unused)}
                    moved = (b1,)
                else:
                    new_m = {x: y for x, y in m.items() if x != b1}
                    moved = (b1,)
                assert _move_gain(ctx, m, new_m, moved) == \
                    ctx.eval_cost(new_m) - ctx.eval_cost(m), f"seed {seed}"
                checked += 1
                m = new_m
    assert checked == 10 * 4 * 25


# -- one distance kernel: the bound matrix replaced a per-cell bound ---------


def _reference_lower_bound(ctx: _PairContext, b1, b2) -> int:
    """The replaced ``_PairContext.lower_bound``: one cell, neighbor slots wildcarded."""
    lw = frozenset(_incident_tokens(ctx.g1, b1, ctx._ground, _wildcard))
    rw = frozenset(_incident_tokens(ctx.g2, b2, ctx._ground, _wildcard))
    return len(lw ^ rw)


def _criterion_5_pairs():
    """The generated pairs of acceptance criterion 5, in its plan order."""
    unconnected = [1, 2, 3, 4, 5] * 47 + [6] * 10 + [7] * 5
    connected = [2, 3, 4, 5] * 60 + [6] * 7 + [7] * 3
    plans = [(size, 0.0, i % 6, 20_000 + i) for i, size in enumerate(unconnected)]
    plans += [(size, 0.5, i % 6, 30_000 + i) for i, size in enumerate(connected)]
    for size, connectivity, mutations, seed in plans:
        pair = generate_pair(GenSpec(bnode_count=size, ground_triples=4,
                                     connectivity=connectivity, mutation_ops=mutations,
                                     seed=seed))
        yield pair.g1, pair.g2, EquivalenceRelation.exact()


def test_bound_matrix_equals_the_replaced_per_cell_bound(g1):
    cases = list(_criterion_5_pairs())
    cases += [(pair.g1, moved, equiv) for _, pair, moved, equiv in _moved_cases(28)]
    cases += [(Graph(), g1, EquivalenceRelation.exact()),
              (g1, Graph(), EquivalenceRelation.exact())]
    empty_sides = 0
    for a, b, equiv in cases:
        for g_left, g_right in ((a, b), (b, a)):
            ctx = _PairContext(g_left, g_right, equiv)
            bounds = ctx.bound_matrix()
            assert bounds.shape == (len(ctx.left), len(ctx.right))
            assert bounds.tolist() == [
                [_reference_lower_bound(ctx, b1, b2) for b2 in ctx.right] for b1 in ctx.left
            ]
            empty_sides += not ctx.left or not ctx.right
    assert len(cases) == 530 and empty_sides >= 4


def test_pair_distance_to_an_absent_bnode_is_the_other_side_alone(g2, g3):
    absent = bnode("absent")
    assert pair_distance(g2, g3, absent, bnode("3")) == 5
    assert pair_distance(g2, g3, bnode("2"), absent) == 5
    assert pair_distance(g2, g3, absent, absent) == 0


# -- mapping_cost checks its pairs ----------------------------------------------


@pytest.mark.parametrize("pair", [("1", "nope"), ("nope", "2")], ids=["image", "domain"])
def test_mapping_cost_rejects_a_bnode_its_graph_lacks(g1, g2, pair):
    mapping = {bnode(pair[0]): bnode(pair[1])}
    for a, b, m in ((g1, g2, mapping), (g2, g1, {y: x for x, y in mapping.items()})):
        with pytest.raises(ValueError, match="nope"):
            mapping_cost(a, b, m)
    assert mapping_cost(g1, g2, {bnode("1"): bnode("2")}) == 0


def test_mapping_cost_rejects_a_non_injective_mapping():
    a, b, x = bnode("a"), bnode("b"), bnode("x")
    g1 = Graph([Triple(a, iri("http://x/p"), literal("1")),
                Triple(b, iri("http://x/q"), literal("2"))])
    g2 = Graph([Triple(x, iri("http://x/p"), literal("1"))])
    with pytest.raises(ValueError, match="bnode mapping must be injective"):
        mapping_cost(g1, g2, {a: x, b: x})
    assert mapping_cost(g1, g2, {a: x}) == 1


# -- one bound for the exact tier ----------------------------------------------


def _reference_exact_search(ctx: _PairContext) -> BnodeMapping:
    """The replaced ``_exact_search``: a per-row bound plus the cheapest stranded
    right penalties, cutting only branches strictly above the best cost."""
    left, right = ctx.left, ctx.right
    n1, n2 = len(left), len(right)
    penalty = [ctx.penalty(b) for b in left]
    lbm = ctx.bound_matrix().tolist()
    best_one = [min([penalty[i]] + lbm[i]) for i in range(n1)]
    suffix = [0] * (n1 + 1)
    for i in range(n1 - 1, -1, -1):
        suffix[i] = suffix[i + 1] + best_one[i]
    rp_sorted = sorted(ctx.penalty_right(b) for b in right)
    rp_prefix = [0]
    for p in rp_sorted:
        rp_prefix.append(rp_prefix[-1] + p)

    best_cost = best_key = None
    best_pairs: dict = {}
    assignment: dict = {}
    used = [False] * n2

    def leaf() -> None:
        nonlocal best_cost, best_key, best_pairs
        cost = ctx.eval_cost(assignment)
        key = tuple(sorted((a.value, b.value) for a, b in assignment.items()))
        if best_cost is None or (cost, key) < (best_cost, best_key):
            best_cost, best_key, best_pairs = cost, key, dict(assignment)

    def dfs(i: int, acc: int, skips: int) -> None:
        stranded = n2 - n1 + skips
        if best_cost is not None and acc + suffix[i] + rp_prefix[max(stranded, 0)] > best_cost:
            return
        if i == n1:
            leaf()
            return
        b1 = left[i]
        options = [(penalty[i], -1)]
        options.extend((lbm[i][j], j) for j in range(n2) if not used[j])
        options.sort(key=lambda o: (o[0], o[1]))
        for bound, j in options:
            if j < 0:
                dfs(i + 1, acc + penalty[i], skips + 1)
            else:
                used[j] = True
                assignment[b1] = right[j]
                dfs(i + 1, acc + bound, skips)
                del assignment[b1]
                used[j] = False

    dfs(0, 0, 0)
    return BnodeMapping(best_pairs, cost=best_cost, method=BRUTE_FORCE)


def _injections(k: int, n: int) -> int:
    """The partial injections of k bnodes into n: what a flat enumeration visits."""
    return sum(math.comb(k, r) * math.perm(n, r) for r in range(k + 1))


def _random_pairs(count: int):
    """Seeded pairs: smaller side 0-7, larger side up to 12, linked at 0, 0.3 or 0.6.

    Half are near copies, padded with unrelated bnodes up to the larger
    size; half are unrelated, kept only with at most 20 000 partial
    injections so that the reference search stays well under a second.
    Every third pair moves the larger side's IRIs into another namespace
    and compares under ``suffix``.
    """
    rng = random.Random(7)
    for trial in range(count):
        k = rng.randint(0, 7)
        n = rng.randint(k, 12)
        connectivity = rng.choice((0.0, 0.3, 0.6)) if k >= 2 else 0.0
        pair = generate_pair(GenSpec(k, 3, connectivity, rng.randint(0, 4), seed=5000 + trial))
        if rng.random() < 0.5:
            pad = GenSpec(n - k, 0, connectivity if n - k >= 2 else 0.0, seed=6000 + trial)
            large = Graph(pair.g2.triples | generate_pair(pad).g1.triples)
        elif _injections(k, n) <= 20_000:
            spec = GenSpec(n, 3, connectivity if n >= 2 else 0.0, seed=6000 + trial)
            large = generate_pair(spec).g2
        else:
            continue
        policy = "suffix" if trial % 3 == 0 else "exact"
        if policy == "suffix":
            large = _other_namespace(large)
        yield trial, pair.g1, large, EquivalenceRelation.for_graphs(policy, [pair.g1, large])


def _assert_as_the_reference(a: Graph, b: Graph, equiv: EquivalenceRelation, label) -> int:
    """Both argument orders solve as the replaced search does; returns the orders run."""
    runs = 0
    for left, right in ((a, b), (b, a)):
        if len(left.bnodes()) <= len(right.bnodes()):
            new = _exact_search(_PairContext(left, right, equiv))
            old = _reference_exact_search(_PairContext(left, right, equiv))
            assert (new.pairs, new.cost) == (old.pairs, old.cost), label
            runs += 1
    return runs


def test_exact_search_equals_the_reference_on_criterion_5():
    runs = sum(_assert_as_the_reference(a, b, equiv, f"plan {i}")
               for i, (a, b, equiv) in enumerate(_criterion_5_pairs()))
    assert runs >= 500


def test_exact_search_equals_the_reference_on_random_pairs():
    cases = list(_random_pairs(200))
    for trial, small, large, equiv in cases:
        _assert_as_the_reference(small, large, equiv, f"trial {trial}")
    sizes = {(len(s.bnodes()), len(l.bnodes())) for _, s, l, _ in cases}
    assert len(cases) >= 150 and (7, 12) in sizes
    assert {min(size) for size in sizes} == set(range(8))


@pytest.mark.parametrize("connectivity", [0.0, 0.3, 0.6])
def test_exact_search_agrees_with_the_oracle_on_unrelated_pairs(connectivity):
    """Unrelated graphs, at most 8 bnodes a side: nearly every injection ties."""
    for k, n in ((1, 8), (2, 8), (3, 8), (4, 7), (5, 6), (6, 6), (8, 3)):
        a = generate_pair(GenSpec(k, 2, connectivity if k >= 2 else 0.0, seed=k)).g1
        b = generate_pair(GenSpec(n, 2, connectivity, seed=10 + n)).g2
        for x, y in ((a, b), (b, a)):
            oracle = brute_force_match(x, y)
            solved = match_bnodes(x, y)
            assert solved.method == BRUTE_FORCE
            assert (solved.pairs, solved.cost) == (oracle.pairs, oracle.cost), (k, n)


def _unrelated(n1: int, n2: int, connectivity: float = 0.0) -> tuple[Graph, Graph]:
    """``g1`` of seed 1 with n1 bnodes against ``g2`` of seed 2 with n2."""
    return (generate_pair(GenSpec(n1, 2, connectivity, seed=1)).g1,
            generate_pair(GenSpec(n2, 2, connectivity, seed=2)).g2)


@pytest.mark.parametrize("n1, n2, connectivity, cost, limit", [
    (4, 30, 0.0, 62, 1.0), (2, 400, 0.0, 781, 1.0), (6, 12, 0.3, 45, 5.0),
])
def test_exact_search_on_unrelated_pairs_is_fast(n1, n2, connectivity, cost, limit):
    g1, g2 = _unrelated(n1, n2, connectivity)
    start = time.perf_counter()
    m = match_bnodes(g1, g2)
    elapsed = time.perf_counter() - start
    assert (m.method, m.cost) == (BRUTE_FORCE, cost)
    assert elapsed < limit, f"{n1}x{n2} took {elapsed:.2f} s"

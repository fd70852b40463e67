"""Equivalence testing and simple entailment."""

from __future__ import annotations

import itertools
import random
import subprocess
import sys
import time
from pathlib import Path
from typing import Optional

import pytest

from bnodematch import (
    EntailmentMapping,
    EquivalenceRelation,
    Graph,
    Renaming,
    Term,
    Triple,
    bnode,
    entails,
    find_equivalence_bijection,
    graphs_equivalent,
    iri,
    literal,
    ntriples,
    rename_graph,
    verify_entailment,
)
from bnodematch import decision
from bnodematch.delta import TARGET_LABELS, mapped_delta
from bnodematch.decision import (
    DEFAULT_BUDGET,
    SearchBudgetExceeded,
    _bijection_search,
    _Budget,
    _candidates,
    _EntailIndex,
    _ground_triples,
)
from bnodematch.generator import GenSpec, generate_pair
from bnodematch.matcher import (
    REFINEMENT,
    BnodeMapping,
    _color_of,
    _grounder,
    _incident_tokens,
    _stable_signatures,
    _wildcard,
)
from bnodematch.model import BNODE, bnode_components, incident_triples
from conftest import random_relabeling, signatures, small_pair

NAME = iri("http://example.org/name")
SURNAME = iri("http://example.org/surname")
ANDRE = iri("http://Andre")


@pytest.fixture(scope="module")
def andre_entailing() -> Graph:
    return Graph(
        [
            Triple(ANDRE, NAME, literal("Andre")),
            Triple(ANDRE, SURNAME, literal("Smith")),
            Triple(bnode("1"), NAME, literal("Natalie")),
        ],
        "andre1",
    )


@pytest.fixture(scope="module")
def andre_entailed() -> Graph:
    return Graph(
        [
            Triple(bnode("2"), NAME, literal("Andre")),
            Triple(bnode("3"), SURNAME, literal("Smith")),
        ],
        "andre2",
    )


class TestEquivalence:
    def test_birthday_triple_breaks_equivalence(self, g1, g2):
        assert not graphs_equivalent(g1, g2)

    def test_dropping_the_birthday_restores_it(self, g1, g2_no_birthday):
        assert graphs_equivalent(g1, g2_no_birthday)
        witness = find_equivalence_bijection(g1, g2_no_birthday)
        assert witness == {bnode("1"): bnode("2")}

    def test_any_relabeling_is_equivalent(self, g4):
        rng = random.Random(9)
        for _ in range(5):
            relabeled = rename_graph(g4, random_relabeling(g4, rng))
            assert graphs_equivalent(g4, relabeled)

    def test_reflexive_symmetric_transitive_on_fixtures(self, g1, g2, g3, g2_no_birthday):
        graphs = [g1, g2, g3, g2_no_birthday]
        for g in graphs:
            assert graphs_equivalent(g, g)
        for a, b in itertools.combinations(graphs, 2):
            assert graphs_equivalent(a, b) == graphs_equivalent(b, a)
        for a, b, c in itertools.permutations(graphs, 3):
            if graphs_equivalent(a, b) and graphs_equivalent(b, c):
                assert graphs_equivalent(a, c)

    def test_ground_difference_is_caught(self, g2, g3):
        # same bnode count and equal address costs aside, literals differ
        assert not graphs_equivalent(g2, g3)

    @staticmethod
    def _force_approximate(monkeypatch):
        """The matcher answers with a positive-cost approximate mapping."""
        monkeypatch.setattr(decision, "match_bnodes",
                            lambda g1, g2: BnodeMapping({}, cost=1, method=REFINEMENT))

    def test_fallback_search_is_exercised(self, monkeypatch):
        # an approximate result with positive cost forces the exact fallback,
        # which must still certify equivalence of relabeled connected graphs
        pair = small_pair(8, bnodes=4, connectivity=0.8, mutations=0)
        self._force_approximate(monkeypatch)
        assert graphs_equivalent(pair.g1, pair.g2)

    def test_fallback_search_rejects_inequivalents(self, monkeypatch):
        pair = small_pair(13, bnodes=4, connectivity=0.8, mutations=3)
        expected = graphs_equivalent(pair.g1, pair.g2)
        self._force_approximate(monkeypatch)
        assert graphs_equivalent(pair.g1, pair.g2) == expected

    def test_budget_errors_out_instead_of_guessing(self):
        x, y = bnode("x"), bnode("y")
        p = iri("http://p")
        g = Graph([Triple(x, p, y), Triple(y, p, x)])
        with pytest.raises(SearchBudgetExceeded):
            _bijection_search(g, rename_graph(g, Renaming({x: bnode("a"), y: bnode("b")})),
                              _Budget(0))


class TestEntailment:
    def test_andre_example(self, andre_entailing, andre_entailed):
        witness = entails(andre_entailing, andre_entailed)
        assert witness is not None
        assert verify_entailment(andre_entailing, andre_entailed, witness)
        # the documented witness maps both bnodes onto the same IRI
        expected = EntailmentMapping({bnode("2"): ANDRE, bnode("3"): ANDRE})
        assert verify_entailment(andre_entailing, andre_entailed, expected)

    def test_running_example_backward_entailment(self, g1, g2):
        witness = entails(g2, g1)
        assert witness is not None
        assert witness.assignments == {bnode("1"): bnode("2")}

    def test_running_example_forward_fails(self, g1, g2):
        # the birthday triple of the second graph has no image in the first
        assert entails(g1, g2) is None

    def test_every_graph_entails_itself(self, g1, g2, g3, g4):
        for g in (g1, g2, g3, g4):
            witness = entails(g, g)
            assert witness is not None
            assert verify_entailment(g, g, witness)

    def test_ground_subset_check_comes_first(self, g1):
        bigger = Graph(set(g1.triples) | {Triple(iri("http://extra"), NAME, literal("e"))})
        assert entails(g1, bigger) is None

    def test_connected_bnodes_are_searched_jointly(self, g4):
        relabeled = rename_graph(
            g4, Renaming({bnode("4"): bnode("a4"), bnode("5"): bnode("a5")})
        )
        witness = entails(g4, relabeled)
        assert witness is not None
        assert witness.assignments[bnode("a4")] == bnode("4")
        assert witness.assignments[bnode("a5")] == bnode("5")


class TestVerifyEntailment:
    def test_wrong_assignment_fails(self, andre_entailing, andre_entailed):
        wrong = EntailmentMapping({bnode("2"): bnode("1"), bnode("3"): ANDRE})
        # "Natalie" is not "Andre": the renamed triple is missing
        assert not verify_entailment(andre_entailing, andre_entailed, wrong)

    def test_bnode_free_subset_with_empty_mapping(self, g1):
        sub = Graph({t for t in g1 if t.s.kind != "bnode" and t.o.kind != "bnode"})
        assert verify_entailment(g1, sub, EntailmentMapping({}))

    def test_literal_assignments_are_rejected(self):
        with pytest.raises(ValueError):
            EntailmentMapping({bnode("2"): literal("x")})

    def test_partial_mappings_are_rejected(self, g1, g2):
        with pytest.raises(ValueError):
            verify_entailment(g2, g1, EntailmentMapping({}))


def _all_entailment_functions(g1: Graph, g2: Graph):
    """Oracle: every function from the entailed bnodes into B1 and U1."""
    targets = sorted(g1.bnodes() | g1.uris(), key=lambda t: t.sort_key())
    sources = sorted(g2.bnodes(), key=lambda t: t.sort_key())
    for images in itertools.product(targets, repeat=len(sources)):
        yield EntailmentMapping(dict(zip(sources, images)))


def _entails_by_enumeration(g1: Graph, g2: Graph) -> bool:
    for t in g2:
        if t.s.kind != "bnode" and t.o.kind != "bnode" and t not in g1:
            return False
    return any(
        verify_entailment(g1, g2, m) for m in _all_entailment_functions(g1, g2)
    )


def test_entailment_agrees_with_enumeration_on_small_instances():
    rng = random.Random(6)
    checked_yes = 0
    for seed in range(30):
        connectivity = 0.5 if seed % 3 == 0 else 0.0
        bnodes = rng.randint(1, 3) if connectivity == 0 else rng.randint(2, 3)
        pair = small_pair(700 + seed, bnodes=bnodes, connectivity=connectivity,
                          mutations=rng.randint(0, 2))
        g1, g2 = pair.g2, pair.g1  # ask whether the mutated graph entails the original
        got = entails(g1, g2)
        expected = _entails_by_enumeration(g1, g2)
        assert (got is not None) == expected, f"seed {seed}"
        if got is not None:
            assert verify_entailment(g1, g2, got)
            checked_yes += 1
    assert checked_yes > 0  # the sample must include positive instances


def test_equivalence_implies_mutual_entailment(g1, g2_no_birthday):
    assert graphs_equivalent(g1, g2_no_birthday)
    assert entails(g1, g2_no_birthday) is not None
    assert entails(g2_no_birthday, g1) is not None


# -- the recursive searches and the universe scan that ``_search`` and the
# -- index-seeded ``_candidates`` replaced, kept as references ---------------


def _reference_consistent(g_from: Graph, g_to: Graph, b: Term, assignment) -> bool:
    for t in incident_triples(g_from, b):
        if t.s.kind == BNODE and t.s not in assignment:
            continue
        if t.o.kind == BNODE and t.o not in assignment:
            continue
        s = assignment.get(t.s, t.s)
        o = assignment.get(t.o, t.o)
        if Triple(s, t.p, o) not in g_to:
            return False
    return True


def _reference_bijection_search(g1: Graph, g2: Graph, budget: _Budget):
    if _ground_triples(g1) != _ground_triples(g2):
        return None
    colors1, colors2 = _stable_signatures(g1, g2, EquivalenceRelation.exact())
    by_color: dict[str, list[Term]] = {}
    for b, color in colors2.items():
        by_color.setdefault(color, []).append(b)
    candidates = {
        b1: sorted(by_color.get(color, []), key=Term.sort_key)
        for b1, color in colors1.items()
    }
    sizes1: dict[str, int] = {}
    for color in colors1.values():
        sizes1[color] = sizes1.get(color, 0) + 1
    sizes2: dict[str, int] = {}
    for color in colors2.values():
        sizes2[color] = sizes2.get(color, 0) + 1
    if sizes1 != sizes2:
        return None

    order = sorted(candidates, key=lambda b: (len(candidates[b]), b.sort_key()))
    assignment: dict[Term, Term] = {}
    used: set[Term] = set()

    def backtrack(i: int) -> bool:
        if i == len(order):
            return True
        b1 = order[i]
        for b2 in candidates[b1]:
            if b2 in used:
                continue
            budget.tick()
            assignment[b1] = b2
            used.add(b2)
            if _reference_consistent(g1, g2, b1, assignment) and backtrack(i + 1):
                return True
            del assignment[b1]
            used.discard(b2)
        return False

    if backtrack(0):
        return dict(assignment)
    return None


def _reference_candidates(g2: Graph, b2: Term, index: _EntailIndex,
                          universe: list[Term]) -> list[Term]:
    patterns = []
    for t in incident_triples(g2, b2):
        s = "slot" if t.s == b2 else (None if t.s.kind == BNODE else t.s)
        o = "slot" if t.o == b2 else (None if t.o.kind == BNODE else t.o)
        patterns.append((s, t.p, o))
    out = []
    for x in universe:
        ok = True
        for s, p, o in patterns:
            sv = x if s == "slot" else s
            ov = x if o == "slot" else o
            if not index.pattern_holds(sv, p, ov):
                ok = False
                break
        if ok:
            out.append(x)
    return out


def _reference_entails(g1: Graph, g2: Graph, tracker: _Budget) -> Optional[dict[Term, Term]]:
    for t in _ground_triples(g2):
        if t not in g1:
            return None
    if not g2.bnodes():
        return {}
    index = _EntailIndex(g1)
    universe = sorted(g1.bnodes() | g1.uris(), key=Term.sort_key)
    candidates = {b2: _reference_candidates(g2, b2, index, universe) for b2 in g2.bnodes()}
    if any(not c for c in candidates.values()):
        return None
    assignments: dict[Term, Term] = {}
    for component in bnode_components(g2):
        order = sorted(component, key=lambda b: (len(candidates[b]), b.sort_key()))
        local: dict[Term, Term] = {}

        def backtrack(i: int) -> bool:
            if i == len(order):
                return True
            b2 = order[i]
            for x in candidates[b2]:
                tracker.tick()
                local[b2] = x
                if _reference_consistent(g2, g1, b2, local) and backtrack(i + 1):
                    return True
                del local[b2]
            return False

        if not backtrack(0):
            return None
        assignments.update(local)
    return assignments


def _reference_rounds(g: Graph, equiv: EquivalenceRelation):
    """The colors of every refinement round in turn, computed without ``_refine``."""
    ground = _grounder(equiv)
    colors = None
    while True:
        neighbor = _wildcard if colors is None else colors.__getitem__
        colors = {
            b: _color_of(sorted(_incident_tokens(g, b, ground, neighbor)))
            for b in sorted(g.bnodes(), key=Term.sort_key)
        }
        yield colors


def _reference_stable_signatures(g1: Graph, g2: Graph, equiv: EquivalenceRelation):
    """The replaced stopping rule: stop once both graphs' blocks of bnodes repeat."""
    cap = max(1, len(g1.bnodes()) + len(g2.bnodes()))
    prev_partition = None
    rounds = zip(_reference_rounds(g1, equiv), _reference_rounds(g2, equiv))
    for count, (colors1, colors2) in enumerate(rounds, start=1):
        blocks: list[frozenset] = []
        for colors in (colors1, colors2):
            by_color: dict[str, set[str]] = {}
            for b, color in colors.items():
                by_color.setdefault(color, set()).add(b.value)
            blocks.append(frozenset(frozenset(v) for v in by_color.values()))
        partition = tuple(blocks)
        if partition == prev_partition or count >= cap:
            return colors1, colors2, count
        prev_partition = partition


def _cycles(lengths: list[int]) -> Graph:
    """Directed bnode cycles of the given lengths, all on one predicate."""
    step = iri("http://example.org/next")
    triples, start = [], 0
    for k in lengths:
        triples += [Triple(bnode(f"n{start + i}"), step, bnode(f"n{start + (i + 1) % k}"))
                    for i in range(k)]
        start += k
    return Graph(triples)


def _differential_pairs():
    """Ordered pairs for the differential test.

    Both orders of 120 seeded relabelled-and-mutated pairs, flat and
    linked, n <= 30; half use vocabularies of four IRIs and three literals.
    Then cycles, which colour refinement cannot split, so both searches
    backtrack: two k-cycles against one 2k-cycle and each against a
    relabelling of itself.
    """
    for seed in range(120):
        small = seed % 4 < 2
        pair = generate_pair(GenSpec(
            bnode_count=2 + seed % 29,
            ground_triples=3 + seed % 7,
            connectivity=0.0 if seed % 2 else 0.3,
            mutation_ops=seed % 3,
            seed=900 + seed,
            uri_pool=4 if small else 20,
            literal_pool=3 if small else 30,
        ))
        yield pair.g1, pair.g2
        yield pair.g2, pair.g1
    for k in range(3, 7):
        two, one = _cycles([k, k]), _cycles([2 * k])
        yield two, one
        yield one, two
        for g in (two, one):
            yield g, rename_graph(g, random_relabeling(g, random.Random(k)))


class TestAgainstTheReplacedSearches:
    def test_same_witnesses_candidates_and_budget(self, monkeypatch):
        budgets: list[_Budget] = []

        class Recorded(_Budget):
            def __init__(self, limit: int) -> None:
                super().__init__(limit)
                budgets.append(self)

        monkeypatch.setattr(decision, "_Budget", Recorded)
        equivalent = entailing = bijection_backtracked = entail_backtracked = 0
        for a, b in _differential_pairs():
            old, new = _Budget(DEFAULT_BUDGET), _Budget(DEFAULT_BUDGET)
            witness = _bijection_search(a, b, new)
            assert witness == _reference_bijection_search(a, b, old)
            assert new.spent == old.spent
            equivalent += witness is not None
            bijection_backtracked += new.spent > len(a.bnodes())

            index = _EntailIndex(a)
            universe = sorted(a.bnodes() | a.uris(), key=Term.sort_key)
            for b2 in b.bnodes():
                assert _candidates(b, b2, index, universe) == _reference_candidates(
                    b, b2, index, universe)

            budgets.clear()
            old = _Budget(DEFAULT_BUDGET)
            got = entails(a, b)
            assert (None if got is None else got.assignments) == _reference_entails(a, b, old)
            assert (budgets[0].spent if budgets else 0) == old.spent
            entailing += got is not None
            entail_backtracked += old.spent > len(b.bnodes())
        assert equivalent > 20 and entailing > 40
        assert bijection_backtracked >= 8 and entail_backtracked > 10

    def test_stable_signatures_equal_build_signatures_at_the_final_round(self, g1, g2, g3, g4,
                                                                       g2_no_birthday):
        fixtures = [g1, g2, g3, g4, g2_no_birthday]
        linked = [
            generate_pair(GenSpec(bnode_count=n, ground_triples=n // 2, connectivity=0.3,
                                  mutation_ops=n % 4, seed=300 + n))
            for n in range(4, 40, 3)
        ]
        pairs = list(itertools.permutations(fixtures, 2)) + [(p.g1, p.g2) for p in linked]
        pairs += [(Graph(), g1), (g1, Graph()), (Graph(), Graph())]
        # cycles, which refinement cannot split, and a list of equal items,
        # which it splits one cell per round from each end
        for k in range(3, 7):
            two, one = _cycles([k, k]), _cycles([2 * k])
            pairs += [(two, one), (one, two)]
            pairs += [(g, rename_graph(g, random_relabeling(g, random.Random(k))))
                      for g in (two, one)]
        same = _collection([literal("same")] * 200)
        pairs.append((same, rename_graph(same, random_relabeling(same, random.Random(5)))))
        short = _collection([literal("same")] * 10)
        pairs += [(short, same), (same, short), (Graph(), same)]
        most_rounds = 0
        for policy in ("exact", "suffix"):
            for a, b in pairs:
                equiv = EquivalenceRelation.for_graphs(policy, [a, b])
                colors1, colors2 = _stable_signatures(a, b, equiv)
                ref1, ref2, rounds = _reference_stable_signatures(a, b, equiv)
                assert list(colors1.items()) == list(ref1.items())
                assert list(colors2.items()) == list(ref2.items())
                assert list(signatures(a, equiv, rounds).items()) == list(ref1.items())
                most_rounds = max(most_rounds, rounds)
        assert most_rounds > 90


# -- long RDF collections -------------------------------------------------------

RDF = "http://www.w3.org/1999/02/22-rdf-syntax-ns#"
FIRST, REST, NIL = iri(RDF + "first"), iri(RDF + "rest"), iri(RDF + "nil")


def _collection(items: list[Term]) -> Graph:
    """An RDF list of ``items``: one bnode cell per item, hung from one IRI."""
    cells = [bnode(f"c{i}") for i in range(len(items))]
    triples = [Triple(iri("http://example.org/s"), iri("http://example.org/items"), cells[0])]
    for i, (cell, item) in enumerate(zip(cells, items)):
        triples.append(Triple(cell, FIRST, item))
        triples.append(Triple(cell, REST, cells[i + 1] if i + 1 < len(cells) else NIL))
    return Graph(triples)


@pytest.fixture(scope="module")
def long_list() -> tuple[Graph, Graph]:
    g = _collection([literal(f"item {i}") for i in range(1500)])
    return g, rename_graph(g, random_relabeling(g, random.Random(3)))


def _cli_entail(g1: Graph, g2: Graph, tmp_path: Path) -> subprocess.CompletedProcess:
    paths = [tmp_path / "g1.nt", tmp_path / "g2.nt"]
    for g, path in zip((g1, g2), paths):
        ntriples.save_graph(g, str(path))
    return subprocess.run([sys.executable, "-m", "bnodematch", "entail", *map(str, paths)],
                          capture_output=True, text=True)


class TestLongCollections:
    def test_entails_a_relabelled_1500_item_list(self, long_list, tmp_path):
        g, relabelled = long_list
        start = time.perf_counter()
        witness = entails(g, relabelled)
        assert time.perf_counter() - start < 5
        assert witness is not None and verify_entailment(g, relabelled, witness)

        start = time.perf_counter()
        run = _cli_entail(g, relabelled, tmp_path)
        assert time.perf_counter() - start < 5
        assert run.returncode == 0, run.stderr
        assert run.stdout == "".join(
            f"M {b.value} {ntriples.render_term(x)}\n"
            for b, x in sorted(witness.assignments.items(), key=lambda p: p[0].value)
        )

    def test_one_changed_item_breaks_the_entailment(self, long_list, tmp_path):
        g, relabelled = long_list
        changed = Graph(
            Triple(t.s, t.p, literal("changed")) if t.o == literal("item 700") else t
            for t in relabelled
        )
        start = time.perf_counter()
        assert entails(g, changed) is None
        run = _cli_entail(g, changed, tmp_path)
        assert time.perf_counter() - start < 5
        assert run.returncode == 1
        assert "no entailment" in run.stderr and "Traceback" not in run.stderr

    def test_bijection_search_on_a_1500_item_list(self, long_list):
        g, relabelled = long_list
        start = time.perf_counter()
        witness = _bijection_search(g, relabelled, _Budget(DEFAULT_BUDGET))
        assert time.perf_counter() - start < 5
        assert witness is not None
        assert rename_graph(g, Renaming(witness)) == relabelled

    def test_list_of_equal_items_refines_round_on_round(self):
        # Colour refinement splits a list of equal items one cell per round
        # from each end, so it stabilises only after about n/2 rounds.
        g = _collection([literal("same")] * 200)
        relabelled = rename_graph(g, random_relabeling(g, random.Random(5)))
        start = time.perf_counter()
        colors1, _ = _stable_signatures(g, relabelled, EquivalenceRelation.exact())
        witness = _bijection_search(g, relabelled, _Budget(DEFAULT_BUDGET))
        assert time.perf_counter() - start < 5
        assert len(set(colors1.values())) == 200
        assert witness is not None
        assert rename_graph(g, Renaming(witness)) == relabelled


# -- witness checks on triple sets: the replaced Graph-building paths ----------


def _reference_verify_entailment(g1: Graph, g2: Graph, mapping: EntailmentMapping) -> bool:
    """``verify_entailment`` as it was, renaming g2 through ``rename_graph``."""
    missing = g2.bnodes() - set(mapping.assignments)
    if missing:
        raise ValueError(
            f"mapping must cover every bnode of the entailed graph; missing {len(missing)}"
        )
    renamed = rename_graph(g2, Renaming(mapping.assignments))
    return renamed.triples <= g1.triples


def _reference_cost_zero_answer(g1: Graph, g2: Graph, mapping: BnodeMapping):
    """The cost-0 branch as it was: the pairs, if their target-labels delta is empty."""
    script = mapped_delta(g1, g2, mapping, TARGET_LABELS)
    return dict(mapping.pairs) if script.is_empty() else None


def _witness_pairs(fixtures):
    """The 20 ordered fixture pairs, then the differential pairs above."""
    yield from itertools.permutations(fixtures, 2)
    yield from _differential_pairs()


def _outcome(check, *args):
    try:
        return check(*args)
    except ValueError as err:
        return str(err)


def test_verify_entailment_equals_the_rename_graph_path(g1, g2, g3, g4, g2_no_birthday):
    rng = random.Random(31)
    verified = refuted = collapsing = 0
    for a, b in _witness_pairs([g1, g2, g3, g4, g2_no_birthday]):
        found = entails(a, b)
        universe = sorted(a.bnodes() | a.uris(), key=Term.sort_key)
        witnesses = [] if found is None else [found.assignments]
        if universe:
            # any function into the universe: often not injective, so
            # renamed triples may collapse, and most do not land inside a
            witnesses += [{b2: rng.choice(universe) for b2 in b.bnodes()} for _ in range(3)]
        if b.bnodes():
            partial = dict(witnesses[0]) if witnesses else {}
            partial.pop(next(iter(b.bnodes())), None)
            witnesses.append(partial)
        for assignments in witnesses:
            mapping = EntailmentMapping(assignments)
            got = _outcome(verify_entailment, a, b, mapping)
            assert got == _outcome(_reference_verify_entailment, a, b, mapping)
            verified += got is True
            refuted += got is False
            collapsing += len(rename_graph(b, Renaming(assignments))) < len(b)
    assert verified > 60 and refuted > 200 and collapsing > 50


def test_the_cost_zero_answer_equals_the_mapped_delta_check(monkeypatch, g1, g2, g3, g4,
                                                            g2_no_birthday):
    """Equivalence answers, and the cost-0 check on the matcher's pairs and on
    cost-0 mappings that cover too little or carry triples elsewhere."""
    real = decision.match_bnodes
    offered: list[BnodeMapping] = []
    monkeypatch.setattr(decision, "match_bnodes", lambda a, b: offered[0] if offered else real(a, b))
    rng = random.Random(37)
    answered = broken = 0
    for a, b in _witness_pairs([g1, g2, g3, g4, g2_no_birthday]):
        offered.clear()
        mapping = real(a, b)
        witness = find_equivalence_bijection(a, b)
        if mapping.cost == 0 and len(a.bnodes()) == len(b.bnodes()) and len(a) == len(b):
            assert witness == _reference_cost_zero_answer(a, b, mapping)
        if a.uris() != b.uris() or a.literals() != b.literals() or not a.bnodes():
            continue
        pairs = sorted(mapping.pairs.items(), key=lambda p: p[0].sort_key())
        images = [dst for _, dst in pairs]
        rng.shuffle(images)
        for crafted in (pairs, pairs[1:], list(zip((src for src, _ in pairs), images))):
            offered[:] = [BnodeMapping(dict(crafted), cost=0, method="crafted")]
            got = find_equivalence_bijection(a, b)
            if len(a.bnodes()) == len(b.bnodes()) and len(a) == len(b):
                assert got == _reference_cost_zero_answer(a, b, offered[0])
                answered += got is not None
                broken += got is None
    assert answered > 40 and broken > 40


def test_decision_imports_nothing_from_delta():
    import ast

    tree = ast.parse(Path(decision.__file__).read_text(encoding="utf-8"))
    modules = {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
    assert "delta" not in modules and "bnodematch.delta" not in modules

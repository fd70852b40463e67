"""Cross-source integration under URI-equivalence policies."""

from __future__ import annotations

import pytest

from bnodematch import (
    EquivalenceRelation,
    Graph,
    Renaming,
    Triple,
    bnode,
    graphs_equivalent,
    iri,
    literal,
    pair_distance,
    rename_graph,
)
from bnodematch.equivalence import OWL_SAMEAS
from bnodematch.integration import (
    CandidateLink,
    integrate_all,
    majority_accept,
    prefix_bnodes,
)
from conftest import small_pair

MUS = "http://www.example.com/music/v0/"
DB = "http://www.dbpedia.org/"


def _integrate_seeing_candidates(graphs, policy):
    """``integrate_all`` with the default rule, and every candidate it judged."""
    seen: list[CandidateLink] = []

    def accept(*candidate):
        seen.append(CandidateLink(*candidate))
        return majority_accept(*candidate)

    return integrate_all(graphs, policy, accept=accept), seen


def _links_without_prefix(result):
    return {
        (a.value.split("_", 1)[1], b.value.split("_", 1)[1])
        for a, b in result.bnode_links
    }


def test_two_source_integration_links_the_addresses(g1, g2):
    result = integrate_all([g1, g2], "suffix")
    assert _links_without_prefix(result) == {("1", "2")}
    # merged corpus keeps both sources plus the link triple; the one
    # ground triple common to both sources collapses under set union
    assert len(result.merged) == len(g1) + len(g2) - 1 + 1
    sameas = iri(OWL_SAMEAS)
    assert any(t.p == sameas for t in result.merged)


def test_full_corpus_yields_exactly_the_two_documented_pairs(g1, g2, g3, g4):
    result = integrate_all([g1, g2, g3, g4], policy="suffix")
    assert _links_without_prefix(result) == {("1", "2"), ("3", "4")}
    assert result.uri_links == {
        (iri(MUS + "John_Lennon"), iri(DB + "John_Lennon"))
    }


def test_exact_policy_finds_no_cross_namespace_uris(g1, g2, g3, g4):
    result = integrate_all([g1, g2, g3, g4], policy="exact")
    assert result.uri_links == set()


def test_policy_monotonicity_on_the_fixture_corpus(g1, g2, g3, g4):
    exact_links = integrate_all([g1, g2, g3, g4], policy="exact").bnode_links
    suffix_links = integrate_all([g1, g2, g3, g4], policy="suffix").bnode_links
    assert exact_links <= suffix_links


def test_integrating_with_an_empty_graph_is_identity(g1):
    result = integrate_all([g1, Graph()], "exact")
    assert result.bnode_links == set()
    assert graphs_equivalent(result.merged, g1)


def test_scope_safety_on_colliding_labels(g3, g4):
    # both graphs reuse small numeric labels; prefixing keeps them apart
    p1, p2 = prefix_bnodes(g3, "src1"), prefix_bnodes(g4, "src2")
    assert not (p1.bnodes() & p2.bnodes())
    result = integrate_all([g3, g3], "exact")
    assert _links_without_prefix(result) == {("3", "3")}


def test_unify_collapses_linked_pairs(g1, g2):
    unified = integrate_all([g1, g2], "suffix", unify=True)
    assert len(unified.merged.bnodes()) == 1
    sameas = iri(OWL_SAMEAS)
    bnode_sameas = [
        t for t in unified.merged if t.p == sameas and t.s.kind == "bnode"
    ]
    assert bnode_sameas == []


def test_report_counts_matched_and_unmatched(g1, g2, g3, g4):
    report = integrate_all([g1, g2, g3, g4], policy="suffix").report
    assert report["src1"] == {"bnodes": 1, "matched": 1, "unmatched": 0}
    assert report["src4"] == {"bnodes": 2, "matched": 1, "unmatched": 1}


def test_accept_callback_overrides_the_default_rule(g1, g2):
    rejecting = integrate_all([g1, g2], "suffix", accept=lambda *a: False)
    assert rejecting.bnode_links == set()
    accepting = integrate_all([g1, g2], "suffix", accept=lambda *a: True)
    assert _links_without_prefix(accepting) == {("1", "2")}


def test_weakly_overlapping_addresses_are_not_linked(g1, g3):
    # the two addresses share only the hasAddress in-edge; the majority
    # rule must refuse the pair even though the matcher proposes it
    result, seen = _integrate_seeing_candidates([g1, g3], "suffix")
    assert result.bnode_links == set()
    assert [(c.left.value, c.right.value) for c in seen] == [("src1_1", "src2_3")]


def test_candidates_expose_distances(g1, g2, g3, g4):
    _, seen = _integrate_seeing_candidates([g1, g2, g3, g4], "suffix")
    by_pair = {(c.left.value, c.right.value): c.dist for c in seen}
    assert by_pair.get(("src1_1", "src2_2")) == 0
    assert by_pair.get(("src3_3", "src4_4")) == 2


def test_candidate_distances_match_pair_distance_under_suffix():
    swapped_seen = False
    for seed in range(10):
        pair = small_pair(60 + seed, bnodes=5 + seed % 4,
                          connectivity=0.0 if seed % 2 else 0.5, mutations=3)
        # subject/object IRIs move namespace; suffix equivalence rejoins them
        moved = rename_graph(pair.g2, Renaming(
            {u: iri(u.value.replace("gen.example", "other.example")) for u in pair.g2.uris()}
        ))
        # odd seeds give the second source fewer bnodes, so the solve swaps
        sources = (pair.g1, moved) if seed % 3 else (moved, _drop_one_bnode(pair.g1))
        _, seen = _integrate_seeing_candidates(list(sources), "suffix")
        p1, p2 = prefix_bnodes(sources[0], "src1"), prefix_bnodes(sources[1], "src2")
        swapped_seen |= len(p1.bnodes()) > len(p2.bnodes())
        equiv = EquivalenceRelation.for_graphs("suffix", [p1, p2])
        mapping = {c.left: c.right for c in seen}
        assert seen, f"seed {seed}"
        for c in seen:
            assert c.dist == pair_distance(p1, p2, c.left, c.right, mapping, equiv)
    assert swapped_seen


def _drop_one_bnode(g: Graph) -> Graph:
    victim = min(g.bnodes(), key=lambda b: b.value)
    return Graph([t for t in g if victim not in (t.s, t.o)])


def test_bnodes_that_differ_only_by_an_equivalent_predicate_are_linked():
    a, b = "http://a.org/", "http://b.org/"
    left = Graph([
        Triple(bnode("x"), iri(a + "name"), literal("Yoko Ono")),
        Triple(bnode("x"), iri(a + "street"), literal("West Street")),
    ])
    right = Graph([
        Triple(bnode("y"), iri(b + "Name"), literal("Yoko Ono")),
        Triple(bnode("y"), iri(b + "Street"), literal("West Street")),
    ])
    result, seen = _integrate_seeing_candidates([left, right], "suffix")
    assert (iri(a + "name"), iri(b + "Name")) in result.uri_links
    assert _links_without_prefix(result) == {("x", "y")}
    assert [c.dist for c in seen] == [0]
    assert integrate_all([left, right], policy="exact").bnode_links == set()

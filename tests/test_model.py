"""Term/triple/graph model, renamings, and structural queries."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from bnodematch import (
    Graph,
    Renaming,
    Triple,
    bnode,
    bnode_components,
    has_connected_bnodes,
    incident_triples,
    iri,
    literal,
    rename_graph,
    rename_triple,
    rename_triples,
)

A, B, C, D, E, F, K = (iri(x) for x in "abcdefk")
P = iri("p")


def test_literal_cannot_carry_both_datatype_and_langtag():
    with pytest.raises(ValueError):
        literal("x", datatype="http://dt", langtag="en")


def test_bnode_labels_must_be_nonempty():
    with pytest.raises(ValueError):
        bnode("")


def test_triple_position_rules():
    with pytest.raises(ValueError):
        Triple(literal("x"), P, A)
    with pytest.raises(ValueError):
        Triple(A, bnode("b"), A)
    with pytest.raises(ValueError):
        Triple(A, literal("x"), A)


def test_terms_compare_by_exact_field_equality():
    assert literal("1") != literal("1", datatype="http://int")
    assert literal("x", langtag="en") != literal("x", langtag="de")
    assert iri("a") != bnode("a") != literal("a")


class TestRenaming:
    def test_replaces_object(self):
        # (a,b,c) # {(c,d)} -> (a,b,d)
        assert rename_triple(Triple(A, B, C), Renaming({C: D})) == Triple(A, B, D)

    def test_leaves_unrelated_triple_alone(self):
        # (a,b,c) # {(e,f)} -> (a,b,c)
        t = Triple(A, B, C)
        assert rename_triple(t, Renaming({E: F})) == t

    def test_replaces_both_positions(self):
        # (a,p,a) # {(a,k)} -> (k,p,k)
        assert rename_triple(Triple(A, P, A), Renaming({A: K})) == Triple(K, P, K)

    def test_predicate_never_replaced(self):
        assert rename_triple(Triple(A, P, C), Renaming({P: D})) == Triple(A, P, C)

    def test_simultaneous_not_sequential(self):
        # {a->b, b->c} must send a to b, never chase on to c
        t = rename_triple(Triple(A, P, A), Renaming({A: B, B: C}))
        assert t == Triple(B, P, B)

    def test_no_literals_in_domain_or_range(self):
        with pytest.raises(ValueError):
            Renaming({literal("x"): A})
        with pytest.raises(ValueError):
            Renaming({A: literal("x")})

    def test_empty_renaming_is_identity_on_graphs(self):
        g = Graph([Triple(A, P, C), Triple(bnode("b"), P, C)])
        assert rename_graph(g, Renaming()) == g

    def test_graph_image_may_collapse(self):
        # {(a,p,b),(c,p,b)} # {(a,c)} -> {(c,p,b)}
        g = Graph([Triple(A, P, B), Triple(C, P, B)])
        assert rename_graph(g, Renaming({A: C})) == Graph([Triple(C, P, B)])

    def test_empty_graph_image(self):
        assert rename_graph(Graph(), Renaming({A: B})) == Graph()

    def test_triple_set_image_collapses_and_applies_simultaneously(self):
        x, y = bnode("x"), bnode("y")
        triples = frozenset({Triple(A, P, x), Triple(A, P, y), Triple(x, P, y)})
        assert rename_triples(triples, Renaming({x: y})) == {Triple(A, P, y), Triple(y, P, y)}
        assert rename_triples(triples, Renaming({x: y, y: C})) == {
            Triple(A, P, y), Triple(A, P, C), Triple(y, P, C)}
        assert rename_triples((), Renaming({x: y})) == frozenset()

    def test_empty_renaming_returns_a_frozenset_as_is(self):
        triples = frozenset({Triple(A, P, bnode("x"))})
        assert rename_triples(triples, Renaming()) is triples
        assert rename_triples(list(triples), Renaming()) == triples


def test_renaming_relabels_fixture_bnode(g1, g2_no_birthday):
    # relabeling the address bnode of the first graph gives the second,
    # birthday-free graph exactly
    renamed = rename_graph(g1, Renaming({bnode("1"): bnode("2")}))
    assert renamed == g2_no_birthday


class TestIncidentTriples:
    def test_running_example_address_bnode(self, g1):
        got = incident_triples(g1, bnode("1"))
        assert len(got) == 5  # hasAddress in-edge plus four components
        by_scan = {t for t in g1 if bnode("1") in (t.s, t.o)}
        assert got == by_scan

    def test_fresh_bnode_has_no_triples(self, g1):
        assert incident_triples(g1, bnode("nowhere")) == frozenset()

    def test_self_loop_counted_once(self):
        x = bnode("x")
        g = Graph([Triple(x, P, x)])
        assert incident_triples(g, x) == frozenset({Triple(x, P, x)})

    def test_rejects_non_bnodes(self, g1):
        with pytest.raises(ValueError):
            incident_triples(g1, A)


class TestBnodeComponents:
    def test_directly_connected_pair(self, g4):
        comps = bnode_components(g4)
        assert frozenset({bnode("4"), bnode("5")}) in comps
        assert has_connected_bnodes(g4)

    def test_singleton_component(self, g1):
        assert bnode_components(g1) == [frozenset({bnode("1")})]
        assert not has_connected_bnodes(g1)

    def test_no_bnodes_empty_partition(self):
        g = Graph([Triple(A, P, C)])
        assert bnode_components(g) == []

    def test_self_loop_is_not_a_connected_pair(self):
        x = bnode("x")
        g = Graph([Triple(x, P, x)])
        assert bnode_components(g) == [frozenset({x})]
        assert not has_connected_bnodes(g)


# -- property tests ---------------------------------------------------------

terms = st.one_of(
    st.sampled_from([A, B, C, D, E]),
    st.builds(bnode, st.sampled_from(["x", "y", "z"])),
    st.builds(literal, st.sampled_from(["1", "2"])),
)
resources = st.one_of(
    st.sampled_from([A, B, C, D, E]),
    st.builds(bnode, st.sampled_from(["x", "y", "z"])),
)
triples = st.builds(Triple, resources, st.sampled_from([P, B]), terms)
graphs = st.builds(Graph, st.sets(triples, max_size=12))


@given(graphs)
def test_partitions_cover_all_terms_disjointly(g):
    occurring = {t for tr in g for t in tr.terms()}
    assert g.uris() | g.bnodes() | g.literals() == occurring
    assert not (g.uris() & g.bnodes())
    assert not (g.uris() & g.literals())
    assert not (g.bnodes() & g.literals())


@given(graphs, st.sampled_from([A, B, C]), st.sampled_from([D, E]))
def test_renaming_locality(g, src, dst):
    renamed = rename_graph(g, Renaming({src: dst}))
    untouched = {t for t in g if src not in t.terms()}
    assert untouched <= renamed.triples


renamings = st.builds(Renaming, st.dictionaries(resources, st.one_of(resources, st.just(P)),
                                                max_size=4))


@given(graphs, renamings)
@settings(max_examples=300)
def test_rename_triples_is_the_image_of_each_triple(g, renaming):
    # an independent statement of the image: subjects and objects move at
    # once, predicates never, and equal images collapse into one triple
    r = renaming.pairs
    expected = {Triple(r.get(t.s, t.s), t.p, r.get(t.o, t.o)) for t in g}
    image = rename_triples(g.triples, renaming)
    assert type(image) is frozenset and image == expected
    renamed = rename_graph(g, renaming)
    assert renamed.triples == expected and renamed.graph_id == g.graph_id


@given(graphs)
def test_incident_triples_cover_every_bnode_triple(g):
    covered = set()
    for b in g.bnodes():
        covered |= incident_triples(g, b)
    with_bnode = {t for t in g if t.s.kind == "bnode" or t.o.kind == "bnode"}
    assert covered == with_bnode


@given(graphs)
def test_components_partition_the_bnodes(g):
    comps = bnode_components(g)
    seen = set()
    for comp in comps:
        assert comp, "components are non-empty"
        assert not (comp & seen), "components are disjoint"
        seen |= comp
    assert seen == g.bnodes()

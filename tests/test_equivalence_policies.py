"""URI equivalence policies: exact, canonical suffix, sameAs closure."""

from __future__ import annotations

import itertools

import pytest
from hypothesis import given, strategies as st

from bnodematch import EquivalenceRelation, bnode, canonical_suffix, iri, literal
from bnodematch.equivalence import load_sameas_pairs


def _same(r: EquivalenceRelation, a, b) -> bool:
    """The relation as the matcher reads it: one representative for both."""
    return r.representative(a) == r.representative(b)


@pytest.mark.parametrize(
    "uri,expected",
    [
        ("http://www.dbpedia.org/John_Lennon", "johnlennon"),
        ("http://www.example.com/music/v0/John_Lennon", "johnlennon"),
        ("abc", "abc"),
        ("http://x.org/ont#Has_Part", "haspart"),
        ("http://x.org/a/b/C_D", "cd"),
    ],
)
def test_canonical_suffix(uri, expected):
    assert canonical_suffix(uri) == expected


def test_exact_policy_is_string_identity():
    u, v = iri("http://a/x"), iri("http://b/x")
    r = EquivalenceRelation.exact([u, v])
    assert _same(r, u, u)
    assert not _same(r, u, v)


def test_suffix_policy_crosses_namespaces():
    a = iri("http://www.dbpedia.org/John_Lennon")
    b = iri("http://www.example.com/music/v0/John_Lennon")
    assert _same(EquivalenceRelation.suffix([a, b]), a, b)


def test_suffix_documented_false_positive():
    # a country and a fish genus share the suffix "argentina"
    country = iri("http://www.fishbase.org/entity#Argentina")
    genus = iri("http://www.marinespecies.org/entity#WoRMS:125885/Argentina")
    assert _same(EquivalenceRelation.suffix([country, genus]), country, genus)


def test_literals_stay_exact_under_suffix():
    terms = [literal("x"), literal("a_b"), literal("ab"), iri("http://a/x")]
    r = EquivalenceRelation.suffix(terms)
    assert _same(r, literal("x"), literal("x"))
    assert not _same(r, literal("a_b"), literal("ab"))
    assert not _same(r, iri("http://a/x"), literal("x"))


def test_sameas_transitive_closure():
    a, b, c, d = (iri(f"http://s/{x}") for x in "abcd")
    r = EquivalenceRelation.sameas([(a, b), (b, c)], [d])
    assert _same(r, a, c)
    assert not _same(r, a, d)
    # a term in no pair is equivalent to itself only
    assert _same(r, d, d)


def test_bnodes_are_rejected():
    with pytest.raises(ValueError):
        EquivalenceRelation.sameas([(bnode("x"), bnode("x"))])
    with pytest.raises(ValueError):
        EquivalenceRelation.exact().representative(bnode("x"))


class TestRepresentative:
    def test_shortest_member_wins(self):
        long = iri("http://long.example/x")
        short = iri("http://a/x")
        r = EquivalenceRelation.suffix([long, short])
        assert r.representative(long) == short
        assert r.representative(short) == short

    def test_singleton_is_its_own_representative(self):
        a = iri("http://only/one")
        assert EquivalenceRelation.suffix([a]).representative(a) == a

    def test_equal_length_tie_breaks_lexicographically(self):
        u1 = iri("http://b/x")
        u2 = iri("http://a/x")
        assert len(u1.value) == len(u2.value)
        r = EquivalenceRelation.suffix([u1, u2])
        # oracle: plain sort of the rendered forms
        expected = min([u1, u2], key=lambda t: f"<{t.value}>")
        assert r.representative(u1) == expected

    def test_idempotent_and_group_constant(self):
        terms = [iri(f"http://ns{i}/Shared_Name") for i in range(4)]
        r = EquivalenceRelation.suffix(terms)
        reps = {r.representative(t) for t in terms}
        assert len(reps) == 1
        rep = reps.pop()
        assert r.representative(rep) == rep

    def test_an_unregistered_iri_joins_its_suffix_group(self):
        registered = iri("http://long.example.org/Name")
        unregistered = iri("http://x/name")  # shorter, but not in the universe
        r = EquivalenceRelation.suffix([registered])
        assert _same(r, registered, unregistered)
        assert r.representative(unregistered) == registered
        assert r.representative(r.representative(unregistered)) == registered

    def test_sameas_groups_through_common_resource(self):
        # resources connected through a shared hub form one class
        hub, a, b = iri("http://h"), iri("http://aaaa"), iri("http://bbbb")
        r = EquivalenceRelation.sameas([(a, hub), (hub, b)])
        assert _same(r, a, b)
        assert r.representative(a) == r.representative(b) == hub  # shortest


def test_exact_implies_suffix():
    uris = [iri(f"http://ns/{name}") for name in ("a", "b", "A_b", "ab")]
    exact = EquivalenceRelation.exact(uris)
    suffix = EquivalenceRelation.suffix(uris)
    for u1, u2 in itertools.product(uris, repeat=2):
        if _same(exact, u1, u2):
            assert _same(suffix, u1, u2)


_uris = st.builds(iri, st.sampled_from(
    ["http://a/X", "http://b/x", "http://b/X_", "http://c/y", "http://d/x#x"]
))


@given(_uris, _uris, _uris)
def test_policies_are_equivalence_relations(u1, u2, u3):
    terms = [u1, u2, u3]
    for r in (EquivalenceRelation.exact(terms), EquivalenceRelation.suffix(terms),
              EquivalenceRelation.sameas([(u1, u2)], terms)):
        assert _same(r, u1, u1)  # reflexive
        assert _same(r, u1, u2) == _same(r, u2, u1)  # symmetric
        if _same(r, u1, u2) and _same(r, u2, u3):  # transitive
            assert _same(r, u1, u3)


def test_load_sameas_pairs(tmp_path):
    path = tmp_path / "pairs.nt"
    path.write_text(
        "<http://a> <http://www.w3.org/2002/07/owl#sameAs> <http://b> .\n"
        "<http://b> <http://www.w3.org/2002/07/owl#sameAs> <http://c> .\n"
    )
    pairs = load_sameas_pairs(str(path))
    assert len(pairs) == 2
    r = EquivalenceRelation.sameas(pairs)
    assert _same(r, iri("http://a"), iri("http://c"))


def test_load_sameas_rejects_other_predicates(tmp_path):
    path = tmp_path / "bad.nt"
    path.write_text("<http://a> <http://other> <http://b> .\n")
    with pytest.raises(ValueError):
        load_sameas_pairs(str(path))

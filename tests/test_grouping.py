"""One grouping helper, ``model._least_members``, against the code it replaced.

``bnode_components``, ``EquivalenceRelation`` and ``_unifying_renaming``
each used to carry a union-find of their own.  The three are kept here,
as they were, as references: the new code must give the same components
in the same order, the same representative for every term, the same
rejections and the same renaming.
"""

from __future__ import annotations

import random
import time

import pytest

from bnodematch import (
    EquivalenceRelation,
    Graph,
    Renaming,
    Term,
    Triple,
    bnode,
    bnode_components,
    iri,
    literal,
)
from bnodematch.equivalence import EXACT, SAMEAS, SUFFIX, _rep_key, canonical_suffix
from bnodematch.integration import _unifying_renaming
from bnodematch.model import BNODE, IRI, _least_members
from conftest import small_pair

POLICIES = (EXACT, SUFFIX, SAMEAS)
P = iri("http://x/p")
RDF = "http://www.w3.org/1999/02/22-rdf-syntax-ns#"


# -- the replaced code ---------------------------------------------------------


def _reference_bnode_components(g: Graph) -> list[frozenset[Term]]:
    parent: dict[Term, Term] = {b: b for b in g.bnodes()}

    def find(x: Term) -> Term:
        root = x
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:
            parent[x], x = root, parent[x]
        return root

    for t in g:
        if t.s.kind == BNODE and t.o.kind == BNODE:
            ra, rb = find(t.s), find(t.o)
            if ra != rb:
                parent[max(ra, rb, key=Term.sort_key)] = min(ra, rb, key=Term.sort_key)

    groups: dict[Term, set[Term]] = {}
    for b in g.bnodes():
        groups.setdefault(find(b), set()).add(b)
    return sorted(
        (frozenset(members) for members in groups.values()),
        key=lambda c: min(t.sort_key() for t in c),
    )


class _ReferenceEquivalence:
    def __init__(self, policy, terms=(), pairs=()):
        self.policy = policy
        self._parent: dict[Term, Term] = {}
        self._suffix_groups: dict[str, list[Term]] = {}
        self._reps: dict[Term, Term] = {}
        if policy == SAMEAS:
            for a, b in pairs:
                self._check_term(a)
                self._check_term(b)
                self._union(a, b)
        for t in terms:
            self._register(t)
        self._freeze_representatives()

    def _check_term(self, t):
        if t.kind == BNODE:
            raise ValueError(f"bnode {t!r} has no URI equivalence; match it instead")

    def _find(self, t):
        root = t
        while self._parent.get(root, root) != root:
            root = self._parent[root]
        while self._parent.get(t, t) != root:
            self._parent[t], t = root, self._parent[t]
        return root

    def _union(self, a, b):
        ra, rb = self._find(a), self._find(b)
        if ra != rb:
            lo, hi = sorted((ra, rb), key=_rep_key)
            self._parent[hi] = lo
            self._parent.setdefault(lo, lo)

    def _register(self, t):
        if t.kind == BNODE:
            return
        if self.policy == SUFFIX and t.kind == IRI:
            self._suffix_groups.setdefault(canonical_suffix(t.value), []).append(t)
        elif self.policy == SAMEAS:
            self._parent.setdefault(t, t)

    def _freeze_representatives(self):
        if self.policy == SUFFIX:
            for members in self._suffix_groups.values():
                rep = min(members, key=_rep_key)
                for m in members:
                    self._reps[m] = rep
        elif self.policy == SAMEAS:
            groups: dict[Term, list[Term]] = {}
            for t in self._parent:
                groups.setdefault(self._find(t), []).append(t)
            for members in groups.values():
                rep = min(members, key=_rep_key)
                for m in members:
                    self._reps[m] = rep

    def representative(self, a):
        self._check_term(a)
        rep = self._reps.get(a)
        if rep is not None:
            return rep
        if self.policy == SUFFIX and a.kind == IRI:
            group = self._suffix_groups.get(canonical_suffix(a.value))
            if group:
                return self._reps[group[0]]
        return a


def _reference_unifying_renaming(links: set[tuple[Term, Term]]) -> Renaming:
    parent: dict[Term, Term] = {}

    def find(x: Term) -> Term:
        parent.setdefault(x, x)
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in sorted(links, key=lambda p: (p[0].value, p[1].value)):
        ra, rb = find(a), find(b)
        if ra != rb:
            keep, drop = sorted((ra, rb), key=lambda t: (len(t.value), t.value))
            parent[drop] = keep
    return Renaming({t: find(t) for t in parent if find(t) != t})


# -- the helper itself ---------------------------------------------------------


def test_least_members_maps_each_term_to_its_class_minimum_in_any_pair_order():
    terms = [bnode(f"n{i}") for i in range(40)]
    rng = random.Random(5)
    pairs = [(rng.choice(terms), rng.choice(terms)) for _ in range(30)]
    members = terms[:35]
    expected = _least_members(pairs, Term.sort_key, members)
    assert set(expected) == set(members) | {t for p in pairs for t in p}
    for _ in range(20):
        rng.shuffle(pairs)
        flipped = [(b, a) if rng.random() < 0.5 else (a, b) for a, b in pairs]
        assert _least_members(flipped, Term.sort_key, reversed(members)) == expected
    for t, least in expected.items():
        assert expected[least] == least
        assert least.sort_key() <= t.sort_key()


# -- bnode_components ----------------------------------------------------------


def _components_cases():
    x, y, z, w = (bnode(v) for v in "xyzw")
    yield Graph()
    yield Graph([Triple(iri("http://x/a"), P, literal("1"))])
    yield Graph([Triple(x, P, x)])
    yield Graph([Triple(x, P, x), Triple(y, P, y), Triple(x, P, literal("1"))])
    yield Graph([Triple(x, P, y), Triple(y, P, x), Triple(z, P, z), Triple(w, P, literal("1"))])
    yield Graph([Triple(z, P, y), Triple(y, P, x), Triple(w, P, iri("http://x/a"))])
    for seed in range(60):
        pair = small_pair(seed, bnodes=4 + seed % 9, connectivity=(0.0, 0.3, 0.6)[seed % 3])
        yield pair.g1
        yield pair.g2
    rng = random.Random(17)
    for _ in range(60):
        nodes = [bnode(f"b{i}") for i in range(rng.randint(1, 15))]
        yield Graph(
            Triple(rng.choice(nodes), P, rng.choice(nodes + [literal("v"), iri("http://x/a")]))
            for _ in range(rng.randint(0, 20))
        )


def test_components_equal_the_replaced_union_find():
    for g in _components_cases():
        assert bnode_components(g) == _reference_bnode_components(g)


def _rdf_list(items: int) -> Graph:
    first, rest, nil = iri(RDF + "first"), iri(RDF + "rest"), iri(RDF + "nil")
    cells = [bnode(f"c{i}") for i in range(items)]
    triples = [Triple(c, first, literal(str(i))) for i, c in enumerate(cells)]
    triples += [Triple(a, rest, b) for a, b in zip(cells, cells[1:])]
    triples.append(Triple(cells[-1], rest, nil))
    return Graph(triples)


def test_a_1500_item_list_is_one_component_quickly():
    g = _rdf_list(1500)
    start = time.perf_counter()
    components = bnode_components(g)
    assert time.perf_counter() - start < 5.0
    assert components == [g.bnodes()]
    assert components == _reference_bnode_components(g)


# -- EquivalenceRelation -------------------------------------------------------


def _sameas_cases():
    a, b, c, d, e = (iri(f"http://s/{v}") for v in "abcde")
    long_a = iri("http://long.example/a")
    lit, lit_typed = literal("a"), literal("a", datatype="http://x/t")
    yield [(a, b), (b, c), (c, d)], [a, b, c, d, e]  # chain
    yield [(d, c), (c, b), (b, a), (a, d)], [a, b, c]  # cycle, one member unregistered
    yield [(a, a), (e, e)], [a, b]  # self-pairs, one of an unregistered term
    yield [(a, b), (a, b), (b, a)], [a, b, c]  # repeated pairs
    yield [(long_a, a)], [long_a]  # the shorter pair term is not registered
    yield [(lit, a), (lit_typed, b), (lit, lit_typed)], [a, b, lit, lit_typed]
    yield [], [a, lit, bnode("x")]  # a registered bnode is skipped
    rng = random.Random(23)
    pool = [iri(f"http://{ns}/{v}") for ns in ("s", "t.org", "much.longer.org") for v in "abcdEF_"]
    pool += [literal("a"), literal("b", langtag="en"), literal("a", datatype="http://x/t")]
    for _ in range(150):
        pairs = [(rng.choice(pool), rng.choice(pool)) for _ in range(rng.randint(0, 12))]
        yield pairs, rng.sample(pool, rng.randint(0, len(pool)))


def _probe_terms(pairs, terms):
    moved = [iri(t.value.replace("http://", "http://moved.") + "_") for t in terms if t.kind == IRI]
    extra = [iri("http://u/unregistered"), literal("unregistered"), iri("http://u/A")]
    return list(terms) + [t for p in pairs for t in p] + moved + extra


def test_representatives_equal_the_replaced_union_find_under_every_policy():
    for pairs, terms in _sameas_cases():
        for policy in POLICIES:
            new = EquivalenceRelation(policy, terms, pairs)
            old = _ReferenceEquivalence(policy, terms, pairs)
            for t in _probe_terms(pairs, terms):
                if t.kind == BNODE:
                    with pytest.raises(ValueError, match="has no URI equivalence"):
                        new.representative(t)
                else:
                    assert new.representative(t) == old.representative(t), (policy, pairs, t)


def test_suffix_groups_take_unregistered_iris_as_the_replaced_code_did():
    registered = [iri("http://a.org/John_Lennon"), iri("http://b.example.org/johnlennon"),
                  iri("http://a.org/x#Has_Part"), literal("John_Lennon")]
    probes = [iri("http://c.org/JOHN_LENNON"), iri("http://c.org/haspart"),
              iri("http://c.org/nogroup"), literal("johnlennon")] + registered
    new = EquivalenceRelation.suffix(registered)
    old = _ReferenceEquivalence(SUFFIX, registered)
    for t in probes:
        assert new.representative(t) == old.representative(t)
    assert new.representative(probes[0]) == iri("http://a.org/John_Lennon")


@pytest.mark.parametrize("where", range(4))
def test_a_bnode_in_a_sameas_pair_is_rejected_with_the_replaced_message(where):
    terms = [iri("http://s/a"), iri("http://s/b"), iri("http://s/c")]
    flat = terms + [iri("http://s/d")]
    flat[where] = bnode(f"x{where}")
    pairs = [(flat[0], flat[1]), (flat[2], flat[3])]
    with pytest.raises(ValueError) as old:
        _ReferenceEquivalence(SAMEAS, terms, pairs)
    with pytest.raises(ValueError) as new:
        EquivalenceRelation(SAMEAS, terms, pairs)
    assert str(new.value) == str(old.value) == (
        f"bnode _:x{where} has no URI equivalence; match it instead"
    )
    for policy in (EXACT, SUFFIX):  # pairs are ignored outside sameAs
        assert EquivalenceRelation(policy, terms, pairs).representative(terms[0]) == terms[0]


# -- _unifying_renaming --------------------------------------------------------


def _link_cases():
    hub = bnode("src1_h")
    chain = [bnode(f"src{i}_{'n' * (5 - i)}") for i in range(1, 5)]
    yield set()
    yield set(zip(chain, chain[1:]))  # a chain whose shortest label is at its end
    yield {(hub, bnode(f"src{i}_{v}")) for i, v in enumerate(["a", "bb", "c", "dd"], 2)}  # a star
    yield {(bnode(f"src{i}_{v}"), hub) for i, v in enumerate(["a", "bb", "c"], 2)}
    rng = random.Random(31)
    labels = [bnode(f"src{i}_{v}") for i in range(1, 5) for v in ("a", "b1", "c22", "d")]
    for _ in range(200):
        yield {tuple(rng.sample(labels, 2)) for _ in range(rng.randint(1, 12))}


def test_unifying_renaming_equals_the_replaced_union_find():
    for links in _link_cases():
        new, old = _unifying_renaming(links), _reference_unifying_renaming(links)
        assert new == old
        assert all(dst not in new.pairs for dst in new.pairs.values())


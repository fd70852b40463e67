"""Equivalence policies for IRIs and literals used during matching.

Three policies: exact string equality, canonical-suffix equality, and a
sameAs closure built from externally supplied pairs.  The relation is
constructed once and then queried concurrently; the representative of
each group is its registered member with the shortest rendered form (ties
broken lexicographically).
"""

from __future__ import annotations

from typing import Iterable

from . import ntriples
from .model import BNODE, IRI, Graph, Term

OWL_SAMEAS = "http://www.w3.org/2002/07/owl#sameAs"

EXACT = "exact"
SUFFIX = "suffix"
SAMEAS = "sameas"


def canonical_suffix(u: str) -> str:
    """Substring after the last '/' or '#', lowercased, underscores removed."""
    cut = max(u.rfind("/"), u.rfind("#"))
    tail = u[cut + 1 :] if cut >= 0 else u
    return tail.lower().replace("_", "")


def _rep_key(term: Term) -> tuple[int, str]:
    rendered = ntriples.render_term(term)
    return (len(rendered), rendered)


class EquivalenceRelation:
    """Reflexive/symmetric/transitive relation over IRIs and literals.

    Bnodes are rejected: their equivalence is the matcher's business.
    Build with :meth:`exact`, :meth:`suffix` or :meth:`sameas`; the
    ``terms`` universe (usually the terms of the graphs under comparison)
    determines which group members a representative is chosen from.  Two
    terms are equivalent iff :meth:`representative` maps them to one term.
    """

    def __init__(self, policy: str, terms: Iterable[Term] = (),
                 pairs: Iterable[tuple[Term, Term]] = ()) -> None:
        if policy not in (EXACT, SUFFIX, SAMEAS):
            raise ValueError(f"unknown policy: {policy!r}")
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

    # -- construction -----------------------------------------------------

    @classmethod
    def exact(cls, terms: Iterable[Term] = ()) -> "EquivalenceRelation":
        return cls(EXACT, terms)

    @classmethod
    def suffix(cls, terms: Iterable[Term] = ()) -> "EquivalenceRelation":
        return cls(SUFFIX, terms)

    @classmethod
    def sameas(cls, pairs: Iterable[tuple[Term, Term]],
               terms: Iterable[Term] = ()) -> "EquivalenceRelation":
        return cls(SAMEAS, terms, pairs=list(pairs))

    @classmethod
    def for_graphs(cls, policy: str, graphs: Iterable[Graph],
                   pairs: Iterable[tuple[Term, Term]] = ()) -> "EquivalenceRelation":
        terms: set[Term] = set()
        for g in graphs:
            terms |= g.uris() | g.literals()
        return cls(policy, terms, pairs=list(pairs))

    def _check_term(self, t: Term) -> None:
        if t.kind == BNODE:
            raise ValueError(f"bnode {t!r} has no URI equivalence; match it instead")

    def _find(self, t: Term) -> Term:
        root = t
        while self._parent.get(root, root) != root:
            root = self._parent[root]
        while self._parent.get(t, t) != root:
            self._parent[t], t = root, self._parent[t]
        return root

    def _union(self, a: Term, b: Term) -> None:
        ra, rb = self._find(a), self._find(b)
        if ra != rb:
            lo, hi = sorted((ra, rb), key=_rep_key)
            self._parent[hi] = lo
            self._parent.setdefault(lo, lo)

    def _register(self, t: Term) -> None:
        if t.kind == BNODE:
            return
        if self.policy == SUFFIX and t.kind == IRI:
            self._suffix_groups.setdefault(canonical_suffix(t.value), []).append(t)
        elif self.policy == SAMEAS:
            self._parent.setdefault(t, t)

    def _freeze_representatives(self) -> None:
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

    # -- queries -----------------------------------------------------------

    def representative(self, a: Term) -> Term:
        """The representative of ``a``'s group; idempotent.  An unregistered
        IRI joins the suffix group it falls in, so it never splits one."""
        self._check_term(a)
        rep = self._reps.get(a)
        if rep is not None:
            return rep
        if self.policy == SUFFIX and a.kind == IRI:
            group = self._suffix_groups.get(canonical_suffix(a.value))
            if group:
                return self._reps[group[0]]
        return a


def load_sameas_pairs(path: str) -> list[tuple[Term, Term]]:
    """Read sameAs pairs from an N-Triples file of owl:sameAs statements."""
    g = ntriples.load_graph(path)
    pairs = []
    for t in sorted(g, key=lambda t: t.sort_key()):
        if t.p.value != OWL_SAMEAS:
            raise ValueError(
                f"{path}: expected only owl:sameAs statements, found <{t.p.value}>"
            )
        pairs.append((t.s, t.o))
    return pairs

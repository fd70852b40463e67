"""Equivalence policies for IRIs and literals used during matching.

Three policies: exact string equality, canonical-suffix equality, and a
sameAs closure built from externally supplied pairs.  The relation is
constructed once, as one frozen table of representatives, and then
queried concurrently.  The representative of each group is its member
with the shortest rendered form (ties broken lexicographically), chosen
from the registered terms and, under sameAs, the terms of the pairs.
"""

from __future__ import annotations

from typing import Iterable

from . import ntriples
from .model import BNODE, IRI, Graph, Term, _least_members

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
    ``__init__`` builds one frozen table of representatives that every
    query reads.
    """

    def __init__(self, policy: str, terms: Iterable[Term] = (),
                 pairs: Iterable[tuple[Term, Term]] = ()) -> None:
        if policy not in (EXACT, SUFFIX, SAMEAS):
            raise ValueError(f"unknown policy: {policy!r}")
        self.policy = policy
        self._reps: dict[Term, Term] = {}
        self._by_suffix: dict[str, Term] = {}
        if policy == SAMEAS:
            pairs = list(pairs)
            for t in (t for pair in pairs for t in pair):
                self._check_term(t)
            self._reps = _least_members(pairs, _rep_key, (t for t in terms if t.kind != BNODE))
        elif policy == SUFFIX:
            for t in sorted({t for t in terms if t.kind == IRI}, key=_rep_key):
                self._reps[t] = self._by_suffix.setdefault(canonical_suffix(t.value), t)

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

    # -- queries -----------------------------------------------------------

    def representative(self, a: Term) -> Term:
        """The representative of ``a``'s group; idempotent.  An unregistered
        IRI joins the suffix group it falls in, so it never splits one."""
        self._check_term(a)
        rep = self._reps.get(a)
        if rep is None and self.policy == SUFFIX and a.kind == IRI:
            rep = self._by_suffix.get(canonical_suffix(a.value))
        return a if rep is None else rep


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

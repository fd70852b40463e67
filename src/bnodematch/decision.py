"""Graph equivalence and simple entailment decisions.

Equivalence asks for a bijection between bnode sets that preserves triples
exactly; the matcher answers it fast, with an exhaustive signature-pruned
backtracking fallback so the decision stays exact even when the matcher
had to approximate.  Entailment asks for a (not necessarily injective)
function from the entailed graph's bnodes into the entailing graph's
bnodes and IRIs under which every triple is contained.

Both decisions run one search, ``_search``: a depth-first walk over the
bnodes in a fixed order that keeps an explicit stack of candidate
iterators, so its depth is bounded by memory and not by the interpreter's
recursion limit, and checks each try with one consistency rule,
``_holds``.  Equivalence takes its candidates from stable color classes
and keeps the map injective; entailment takes them from the smallest
index set of subjects or objects that a ground incident triple allows.

Both searches are worst-case exponential; a node budget raises rather
than ever answering wrongly.  Witnesses are checked on triple sets.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Collection, Iterator, Mapping, Optional

from .matcher import (
    ASSIGNMENT,
    BRUTE_FORCE,
    _stable_signatures,
    match_bnodes,
)
from .equivalence import EquivalenceRelation
from .model import (
    BNODE,
    LITERAL,
    Graph,
    Renaming,
    Term,
    Triple,
    bnode_components,
    incident_triples,
    rename_triples,
)

DEFAULT_BUDGET = 2_000_000


class SearchBudgetExceeded(RuntimeError):
    """The backtracking search ran out of budget before deciding."""


@dataclass
class EntailmentMapping:
    """Assignment of the entailed graph's bnodes to bnodes or IRIs."""

    assignments: dict[Term, Term]

    def __post_init__(self) -> None:
        self.assignments = dict(self.assignments)
        for b, x in self.assignments.items():
            if b.kind != BNODE:
                raise ValueError(f"entailment maps bnodes only, got {b!r}")
            if x.kind == LITERAL:
                raise ValueError(f"entailment cannot assign the literal {x!r}")


class _Budget:
    def __init__(self, limit: int) -> None:
        self.limit = limit
        self.spent = 0

    def tick(self) -> None:
        self.spent += 1
        if self.spent > self.limit:
            raise SearchBudgetExceeded(
                f"search exceeded the {self.limit}-node budget"
            )


# -- equivalence -------------------------------------------------------------


def _ground_triples(g: Graph) -> frozenset[Triple]:
    return frozenset(
        t for t in g if t.s.kind != BNODE and t.o.kind != BNODE
    )


def _bijection_search(g1: Graph, g2: Graph, budget: _Budget) -> Optional[dict[Term, Term]]:
    """Exhaustive search for a triple-preserving bnode bijection."""
    if _ground_triples(g1) != _ground_triples(g2):
        return None
    colors1, colors2 = _stable_signatures(g1, g2, EquivalenceRelation.exact())
    # A bijection maps color classes onto color classes of the same size.
    if Counter(colors1.values()) != Counter(colors2.values()):
        return None
    by_color: dict[str, list[Term]] = {}
    for b, color in colors2.items():
        by_color.setdefault(color, []).append(b)
    candidates = {b1: sorted(by_color[color], key=Term.sort_key) for b1, color in colors1.items()}
    order = sorted(candidates, key=lambda b: (len(candidates[b]), b.sort_key()))
    return _search(g1, g2, order, candidates, budget, injective=True)


def _holds(g_from: Graph, g_to: Graph, b: Term, assignment: Mapping[Term, Term]) -> bool:
    """True iff every triple at ``b`` whose bnodes are all assigned maps into ``g_to``."""
    for t in incident_triples(g_from, b):
        if t.s.kind == BNODE and t.s not in assignment:
            continue
        if t.o.kind == BNODE and t.o not in assignment:
            continue
        if Triple(assignment.get(t.s, t.s), t.p, assignment.get(t.o, t.o)) not in g_to:
            return False
    return True


def _search(
    g_from: Graph,
    g_to: Graph,
    order: list[Term],
    candidates: Mapping[Term, list[Term]],
    budget: _Budget,
    injective: bool,
) -> Optional[dict[Term, Term]]:
    """First assignment of ``order`` under which ``g_from``'s triples land in ``g_to``.

    Bnodes are assigned in ``order``, each trying its candidates in list
    order; an injective search skips images already taken.  ``stack[i]``
    is the iterator over the candidates of ``order[i]`` not tried yet, so
    backtracking resumes it where it stopped.  Every tried candidate costs
    one budget tick.
    """
    assignment: dict[Term, Term] = {}
    used: set[Term] = set()
    stack: list[Iterator[Term]] = []
    while len(assignment) < len(order):
        if len(stack) == len(assignment):
            stack.append(iter(candidates[order[len(stack)]]))
        b = order[len(stack) - 1]
        for x in stack[-1]:
            if x in used:
                continue
            budget.tick()
            assignment[b] = x
            if _holds(g_from, g_to, b, assignment):
                if injective:
                    used.add(x)
                break
            del assignment[b]
        else:
            stack.pop()
            if not stack:
                return None
            used.discard(assignment.pop(order[len(stack) - 1]))
    return assignment


def find_equivalence_bijection(g1: Graph, g2: Graph) -> Optional[dict[Term, Term]]:
    """A triple-preserving bnode bijection between the graphs, or None.

    IRIs and literals must coincide exactly; only bnode identity is open.
    The answer is exact: an approximate matcher result with positive cost
    triggers the exhaustive fallback before answering no.  That search
    raises :class:`SearchBudgetExceeded` after ``DEFAULT_BUDGET`` nodes.
    """
    if g1.uris() != g2.uris() or g1.literals() != g2.literals():
        return None
    if len(g1.bnodes()) != len(g2.bnodes()) or len(g1) != len(g2):
        return None
    if not g1.bnodes():
        return {} if g1 == g2 else None
    mapping = match_bnodes(g1, g2)
    if mapping.cost == 0:
        pairs = mapping.pairs
        carried = rename_triples(g1.triples, Renaming(pairs)) == g2.triples
        return dict(pairs) if carried and pairs.keys() == g1.bnodes() else None
    if mapping.method in (BRUTE_FORCE, ASSIGNMENT):
        return None  # the cost is a true minimum, so no zero-cost bijection
    return _bijection_search(g1, g2, _Budget(DEFAULT_BUDGET))


def graphs_equivalent(g1: Graph, g2: Graph) -> bool:
    return find_equivalence_bijection(g1, g2) is not None


# -- entailment ----------------------------------------------------------------


class _EntailIndex:
    def __init__(self, g: Graph) -> None:
        self.triples = g.triples
        self.sp: dict[tuple[Term, Term], set[Term]] = {}
        self.po: dict[tuple[Term, Term], set[Term]] = {}
        for t in g:
            self.sp.setdefault((t.s, t.p), set()).add(t.o)
            self.po.setdefault((t.p, t.o), set()).add(t.s)

    def pattern_holds(self, s, p, o) -> bool:
        """s/o may be None: a wildcard for a resource to be chosen later."""
        if s is None:
            return bool(self.po.get((p, o)))
        if o is None:
            return any(x.kind != LITERAL for x in self.sp.get((s, p), ()))
        return Triple(s, p, o) in self.triples


def _candidates(g2: Graph, b2: Term, index: _EntailIndex, universe: list[Term]) -> list[Term]:
    """Terms of ``universe`` that can stand for ``b2`` in every incident triple.

    A triple that joins ``b2`` to a ground term confines it to one index
    set (``po`` as subject, ``sp`` as object); only the smallest such set,
    or the universe if there is none, is scanned.
    """
    patterns = []
    pools: list[Collection[Term]] = [universe]
    for t in incident_triples(g2, b2):
        s = "slot" if t.s == b2 else (None if t.s.kind == BNODE else t.s)
        o = "slot" if t.o == b2 else (None if t.o.kind == BNODE else t.o)
        patterns.append((s, t.p, o))
        if t.s == b2 and t.o.kind != BNODE:
            pools.append(index.po.get((t.p, t.o), ()))
        elif t.o == b2 and t.s.kind != BNODE:
            pools.append(index.sp.get((t.s, t.p), ()))
    out = []
    for x in sorted(min(pools, key=len), key=Term.sort_key):
        if x.kind != LITERAL and all(
            index.pattern_holds(x if s == "slot" else s, p, x if o == "slot" else o)
            for s, p, o in patterns
        ):
            out.append(x)
    return out


def entails(g1: Graph, g2: Graph) -> Optional[EntailmentMapping]:
    """Witness that g1 entails g2, or None.

    Ground triples of g2 must simply exist in g1; each bnode component of
    g2 is then searched independently, most-constrained bnode first, for
    an assignment into g1's bnodes and IRIs, within ``DEFAULT_BUDGET`` nodes.
    """
    for t in _ground_triples(g2):
        if t not in g1:
            return None
    if not g2.bnodes():
        return EntailmentMapping({})

    index = _EntailIndex(g1)
    universe = sorted(g1.bnodes() | g1.uris(), key=Term.sort_key)
    candidates = {b2: _candidates(g2, b2, index, universe) for b2 in g2.bnodes()}
    if any(not c for c in candidates.values()):
        return None

    tracker = _Budget(DEFAULT_BUDGET)
    assignments: dict[Term, Term] = {}
    for component in bnode_components(g2):
        order = sorted(component, key=lambda b: (len(candidates[b]), b.sort_key()))
        local = _search(g2, g1, order, candidates, tracker, injective=False)
        if local is None:
            return None
        assignments.update(local)

    witness = EntailmentMapping(assignments)
    assert verify_entailment(g1, g2, witness), "search produced an invalid witness"
    return witness


def verify_entailment(g1: Graph, g2: Graph, mapping: EntailmentMapping) -> bool:
    """True iff renaming g2 through the mapping lands inside g1."""
    missing = g2.bnodes() - set(mapping.assignments)
    if missing:
        raise ValueError(
            f"mapping must cover every bnode of the entailed graph; missing {len(missing)}"
        )
    return rename_triples(g2.triples, Renaming(mapping.assignments)) <= g1.triples

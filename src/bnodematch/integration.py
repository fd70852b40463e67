"""Merge graphs from different sources under a URI-equivalence policy.

Sources are folded left into an accumulated corpus: bnode label scopes are
made disjoint by prefixing with a source tag, the matcher runs with the
equivalence relation folded into its distances, and accepted pairs become
owl:sameAs links (or one shared label with ``unify``).

A matched pair is accepted by default only when the majority of both
endpoints' incident triples align, i.e. its distance is below the smaller
incident-set size.  The matcher itself already refuses pairs that save
nothing, but the majority rule also rejects weak matches that happen to
share a single edge.  Generated sameAs links never feed back into distance
computation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Optional, Sequence

from .equivalence import OWL_SAMEAS, EquivalenceRelation
from .matcher import EXACT_THRESHOLD, _solve
from .model import (
    Graph,
    Renaming,
    Term,
    Triple,
    _least_members,
    bnode,
    incident_triples,
    iri,
    rename_graph,
    rename_triples,
)

AcceptFn = Callable[[Term, Term, int, int, int], bool]


@dataclass
class CandidateLink:
    left: Term
    right: Term
    dist: int
    left_size: int
    right_size: int


@dataclass
class IntegrationResult:
    merged: Graph
    bnode_links: set[tuple[Term, Term]]
    uri_links: set[tuple[Term, Term]]
    report: dict[str, dict[str, int]]


def majority_accept(left: Term, right: Term, dist: int,
                    left_size: int, right_size: int) -> bool:
    """Accept when shared triples outnumber half of each incident set."""
    return dist < min(left_size, right_size)


def prefix_bnodes(g: Graph, tag: str) -> Graph:
    """Move a graph into its own label scope: every label gets a tag prefix."""
    renaming = {b: bnode(f"{tag}_{b.value}") for b in g.bnodes()}
    return rename_graph(g, Renaming(renaming))


def _cross_uri_links(
    acc_uris: Iterable[Term], new_uris: Iterable[Term], equiv: EquivalenceRelation
) -> set[tuple[Term, Term]]:
    groups: dict[Term, list[Term]] = {}
    for u in acc_uris:
        groups.setdefault(equiv.representative(u), []).append(u)
    links: set[tuple[Term, Term]] = set()
    for u in new_uris:
        for other in groups.get(equiv.representative(u), []):
            if other != u:
                links.add((other, u))
    return links


def _match_step(acc: Graph, new: Graph, equiv: EquivalenceRelation) -> list[CandidateLink]:
    mapping, ctx = _solve(acc, new, equiv, EXACT_THRESHOLD)
    # The distance is symmetric, so it is read in the solve's orientation.
    pairs = mapping.pairs
    swapped = ctx.g1 is not acc
    if swapped:
        mapping = mapping.inverted()
    out = []
    for left, right in mapping.sorted_pairs():
        d = ctx.dist(right, left, pairs) if swapped else ctx.dist(left, right, pairs)
        out.append(CandidateLink(left, right, d, len(incident_triples(acc, left)),
                                 len(incident_triples(new, right))))
    return out


def integrate_all(
    graphs: Sequence[Graph],
    policy: str = "exact",
    sameas_pairs: Iterable[tuple[Term, Term]] = (),
    accept: Optional[AcceptFn] = None,
    unify: bool = False,
) -> IntegrationResult:
    """Fold any number of sources into one corpus with sameAs links.

    Source i (from 1) is tagged ``src<i>``: its bnode labels get the
    prefix ``src<i>_``, and the report keys its counts by that tag.
    """
    accept = accept or majority_accept
    tags = [f"src{i + 1}" for i in range(len(graphs))]
    if not graphs:
        raise ValueError("at least one graph is required")

    sameas_pairs = list(sameas_pairs)
    prefixed = [prefix_bnodes(g, tag) for g, tag in zip(graphs, tags)]
    source_bnodes = {tag: set(g.bnodes()) for tag, g in zip(tags, prefixed)}

    corpus = prefixed[0].triples
    bnode_links: set[tuple[Term, Term]] = set()
    uri_links: set[tuple[Term, Term]] = set()

    for step, new in enumerate(prefixed[1:]):
        # A corpus Graph is built only to match the next source against it.
        content = Graph(corpus, "integrated") if step else prefixed[0]
        equiv = EquivalenceRelation.for_graphs(policy, [content, new], sameas_pairs)
        uri_links |= _cross_uri_links(content.uris(), new.uris(), equiv)
        for cand in _match_step(content, new, equiv):
            if accept(cand.left, cand.right, cand.dist, cand.left_size, cand.right_size):
                bnode_links.add((cand.left, cand.right))
        corpus = corpus | new.triples

    sameas = iri(OWL_SAMEAS)
    if unify:
        kept = rename_triples(corpus, _unifying_renaming(bnode_links))
    else:
        kept = corpus | {Triple(a, sameas, b) for a, b in bnode_links}
    merged = Graph(kept | {Triple(a, sameas, b) for a, b in uri_links}, "integrated")

    linked = {a for a, _ in bnode_links} | {b for _, b in bnode_links}
    report = {
        tag: {
            "bnodes": len(bag),
            "matched": len(bag & linked),
            "unmatched": len(bag - linked),
        }
        for tag, bag in source_bnodes.items()
    }
    return IntegrationResult(merged, bnode_links, uri_links, report)


def _unifying_renaming(links: set[tuple[Term, Term]]) -> Renaming:
    """Collapse each linked group to its shortest label."""
    least = _least_members(links, lambda t: (len(t.value), t.value))
    return Renaming({t: rep for t, rep in least.items() if rep != t})

"""Core RDF data model: terms, triples, immutable graphs, and renamings.

Blank-node labels are scoped to a single graph: the same label in two
different graphs names two unrelated nodes.  Everything here is immutable
after construction, so graphs and renamings are safe to share between
concurrent readers.  A ``Graph`` is built where matching or a decision
reads its index; renames and deltas are triple-set arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Iterator, Mapping, Optional

IRI = "iri"
BNODE = "bnode"
LITERAL = "literal"


@dataclass(frozen=True)
class Term:
    """An IRI, blank node, or literal.

    ``value`` holds the IRI text, the bnode label, or the literal lexical
    form.  ``datatype`` and ``langtag`` apply to literals only and are
    mutually exclusive.  Terms compare by exact equality of all fields.
    """

    kind: str
    value: str
    datatype: Optional[str] = None
    langtag: Optional[str] = None

    def __post_init__(self) -> None:
        if self.kind not in (IRI, BNODE, LITERAL):
            raise ValueError(f"unknown term kind: {self.kind!r}")
        if self.kind != LITERAL and (self.datatype or self.langtag):
            raise ValueError(f"{self.kind} terms take no datatype or langtag")
        if self.datatype is not None and self.langtag is not None:
            raise ValueError("a literal cannot carry both datatype and langtag")
        if self.kind == BNODE and not self.value:
            raise ValueError("bnode labels must be non-empty")

    def sort_key(self) -> tuple:
        return (self.kind, self.value, self.datatype or "", self.langtag or "")

    def __repr__(self) -> str:
        if self.kind == IRI:
            return f"<{self.value}>"
        if self.kind == BNODE:
            return f"_:{self.value}"
        suffix = ""
        if self.datatype:
            suffix = f"^^<{self.datatype}>"
        elif self.langtag:
            suffix = f"@{self.langtag}"
        return f'"{self.value}"{suffix}'


def iri(value: str) -> Term:
    return Term(IRI, value)


def bnode(label: str) -> Term:
    return Term(BNODE, label)


def literal(value: str, datatype: Optional[str] = None, langtag: Optional[str] = None) -> Term:
    return Term(LITERAL, value, datatype, langtag)


@dataclass(frozen=True)
class Triple:
    """A subject/predicate/object statement.

    Subjects are IRIs or bnodes, predicates are IRIs, objects may be any
    term.
    """

    s: Term
    p: Term
    o: Term

    def __post_init__(self) -> None:
        if self.s.kind == LITERAL:
            raise ValueError(f"literal {self.s!r} not allowed as subject")
        if self.p.kind != IRI:
            raise ValueError(f"{self.p!r} not allowed as predicate (IRIs only)")

    def terms(self) -> tuple[Term, Term, Term]:
        return (self.s, self.p, self.o)

    def sort_key(self) -> tuple:
        return (self.s.sort_key(), self.p.sort_key(), self.o.sort_key())

    def __repr__(self) -> str:
        return f"({self.s!r} {self.p!r} {self.o!r})"


class Graph:
    """A finite set of triples with a label scope of its own.

    Equality compares triple sets only; ``graph_id`` is an opaque tag used
    in diagnostics.  Term partitions and the bnode incidence index are
    computed at construction, for the matcher and the decisions to read.
    """

    __slots__ = ("triples", "graph_id", "_uris", "_bnodes", "_literals", "_incident")

    def __init__(self, triples: Iterable[Triple] = (), graph_id: str = "") -> None:
        object.__setattr__(self, "triples", frozenset(triples))
        object.__setattr__(self, "graph_id", graph_id)
        uris: set[Term] = set()
        bnodes: set[Term] = set()
        literals: set[Term] = set()
        incident: dict[Term, set[Triple]] = {}
        for t in self.triples:
            for term in t.terms():
                if term.kind == IRI:
                    uris.add(term)
                elif term.kind == LITERAL:
                    literals.add(term)
                else:
                    bnodes.add(term)
            for term in (t.s, t.o):
                if term.kind == BNODE:
                    incident.setdefault(term, set()).add(t)
        object.__setattr__(self, "_uris", frozenset(uris))
        object.__setattr__(self, "_bnodes", frozenset(bnodes))
        object.__setattr__(self, "_literals", frozenset(literals))
        object.__setattr__(
            self, "_incident", {b: frozenset(ts) for b, ts in incident.items()}
        )

    def __setattr__(self, name, value):  # pragma: no cover - guard only
        raise AttributeError("Graph is immutable")

    def uris(self) -> frozenset[Term]:
        return self._uris

    def bnodes(self) -> frozenset[Term]:
        return self._bnodes

    def literals(self) -> frozenset[Term]:
        return self._literals

    def __len__(self) -> int:
        return len(self.triples)

    def __iter__(self) -> Iterator[Triple]:
        return iter(self.triples)

    def __contains__(self, t: Triple) -> bool:
        return t in self.triples

    def __eq__(self, other) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self.triples == other.triples

    def __hash__(self) -> int:
        return hash(self.triples)

    def __repr__(self) -> str:
        tag = f" {self.graph_id!r}" if self.graph_id else ""
        return f"<Graph{tag} |{len(self.triples)}| triples>"


@dataclass(frozen=True)
class Renaming:
    """A partial function over resources, applied simultaneously.

    The domain may contain IRIs and bnodes but never literals.  Applying
    the empty renaming is the identity.  Simultaneous application means
    ``{a: b, b: c}`` sends ``a`` to ``b``, never chained to ``c``.
    """

    pairs: Mapping[Term, Term] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for src, dst in self.pairs.items():
            if src.kind == LITERAL:
                raise ValueError(f"literal {src!r} cannot be renamed")
            if dst.kind == LITERAL:
                raise ValueError(f"{src!r} cannot be renamed to a literal")
        object.__setattr__(self, "pairs", dict(self.pairs))

    def __len__(self) -> int:
        return len(self.pairs)

    def image(self, term: Term) -> Term:
        return self.pairs.get(term, term)

    def __hash__(self) -> int:
        return hash(frozenset(self.pairs.items()))


def rename_triple(t: Triple, renaming: Renaming) -> Triple:
    """Replace subject and object by their images; predicates never move."""
    s = renaming.image(t.s)
    o = renaming.image(t.o)
    # Renaming ranges over resources only, so this cannot fire.
    assert s.kind != LITERAL, "renaming placed a literal in subject position"
    if s is t.s and o is t.o:
        return t
    return Triple(s, t.p, o)


def rename_triples(triples: Iterable[Triple], renaming: Renaming) -> frozenset[Triple]:
    """Set image of per-triple renaming; may shrink when triples collapse."""
    if not renaming.pairs:
        return frozenset(triples)
    return frozenset(rename_triple(t, renaming) for t in triples)


def rename_graph(g: Graph, renaming: Renaming) -> Graph:
    """``rename_triples`` of ``g`` as a Graph of the same id; ``g`` itself under no renaming."""
    if not renaming.pairs:
        return g
    return Graph(rename_triples(g.triples, renaming), g.graph_id)


def incident_triples(g: Graph, b: Term) -> frozenset[Triple]:
    """All triples in which the bnode ``b`` participates (subject or object)."""
    if b.kind != BNODE:
        raise ValueError(f"incident_triples expects a bnode, got {b!r}")
    return g._incident.get(b, frozenset())


def _least_members(pairs: Iterable[tuple[Term, Term]], key: Callable[[Term], Any],
                   members: Iterable[Term] = ()) -> dict[Term, Term]:
    """Map each of ``members`` and each term of a pair to the least member,
    by ``key``, of its class under the closure of ``pairs``.

    The larger root always hangs under the smaller, so each root is its
    class minimum and the result does not depend on the order of the pairs.
    """
    parent: dict[Term, Term] = {m: m for m in members}

    def find(x: Term) -> Term:
        root = parent.setdefault(x, x)
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:  # path compression
            parent[x], x = root, parent[x]
        return root

    for a, b in pairs:
        ra, rb = find(a), find(b)
        if ra != rb:
            lo, hi = sorted((ra, rb), key=key)
            parent[hi] = lo
    return {t: find(t) for t in parent}


def bnode_components(g: Graph) -> list[frozenset[Term]]:
    """Partition the bnodes into directly-connected components.

    Two bnodes are directly connected when one triple carries both as
    subject and object; components are the transitive closure of that
    relation.  A component of size >= 2 makes the graph a connected-bnode
    graph.  Components come in the order of their least bnode by
    ``Term.sort_key``.
    """
    links = ((t.s, t.o) for t in g if t.s.kind == BNODE and t.o.kind == BNODE)
    groups: dict[Term, set[Term]] = {}
    for b, least in _least_members(links, Term.sort_key, g.bnodes()).items():
        groups.setdefault(least, set()).add(b)
    return [frozenset(groups[least]) for least in sorted(groups, key=Term.sort_key)]


def has_connected_bnodes(g: Graph) -> bool:
    """True when some triple has bnodes in both subject and object position."""
    return any(
        t.s.kind == BNODE and t.o.kind == BNODE and t.s != t.o for t in g.triples
    )

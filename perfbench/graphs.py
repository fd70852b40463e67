"""The benchmark's own graphs: generation, N-Triples text, and output checks.

A graph here is a frozenset of ``(s, p, o)`` tuples holding N-Triples term
text (``_:b1``, ``<http://...>``, ``"v3"``).  Inputs are built and outputs
are checked with this code only, so a change to the program under test
can neither change the inputs nor weaken a check.
"""

from __future__ import annotations

import random
import re
from collections import Counter
from typing import Iterable, Optional

Triple = tuple[str, str, str]
Graph = frozenset

SAMEAS = "<http://www.w3.org/2002/07/owl#sameAs>"
URIS = [f"<http://gen.example/r{i}>" for i in range(20)]
LITERALS = [f'"v{i}"' for i in range(30)]
_MAX_TRIES = 200
_TERM = re.compile(r'<[^>]*>|_:[A-Za-z0-9_]+|"(?:[^"\\]|\\.)*"(?:\^\^<[^>]*>|@[A-Za-z0-9-]+)?')


def is_bnode(term: str) -> bool:
    return term.startswith("_:")


def bnodes(g: Iterable[Triple]) -> set[str]:
    return {t for s, _, o in g for t in (s, o) if is_bnode(t)}


def rename(g: Iterable[Triple], m: dict[str, str]) -> Graph:
    return frozenset((m.get(s, s), p, m.get(o, o)) for s, p, o in g)


def relabel(g: Graph, rng: random.Random, tag: str) -> tuple[Graph, dict[str, str]]:
    """Give every bnode a fresh label, as an export from another tool would."""
    old = sorted(bnodes(g))
    order = list(range(len(old)))
    rng.shuffle(order)
    m = {b: f"_:{tag}n{k}" for b, k in zip(old, order)}
    return rename(g, m), m


def serialize(g: Iterable[Triple]) -> str:
    return "".join(f"{s} {p} {o} .\n" for s, p, o in sorted(g))


def parse_line(line: str) -> Triple:
    terms = _TERM.findall(line)
    if len(terms) != 3 or not line.rstrip().endswith("."):
        raise ValueError(f"not an N-Triples line: {line!r}")
    return (terms[0], terms[1], terms[2])


def parse(text: str) -> Graph:
    return frozenset(parse_line(line) for line in text.splitlines() if line.strip())


# -- generation ---------------------------------------------------------------


def _add_distinct(triples: set, make) -> Optional[Triple]:
    for _ in range(_MAX_TRIES):
        t = make()
        if t not in triples:
            triples.add(t)
            return t
    return None


def _ground(rng: random.Random) -> Triple:
    return (rng.choice(URIS), rng.choice(URIS), rng.choice(URIS + LITERALS))


def _bnode_triple(rng: random.Random, b: str, others: list[str], connectivity: float) -> Triple:
    if others and rng.random() < connectivity:
        return (b, rng.choice(URIS), rng.choice(others))
    if rng.random() < 0.5:
        return (rng.choice(URIS), rng.choice(URIS), b)
    return (b, rng.choice(URIS), rng.choice(URIS + LITERALS))


def random_graph(rng: random.Random, n: int, connectivity: float) -> Graph:
    """n bnodes with 1-3 triples each plus n/2 ground triples, small vocabulary."""
    triples: set[Triple] = set()
    for _ in range(n // 2):
        _add_distinct(triples, lambda: _ground(rng))
    labels = [f"_:b{i}" for i in range(n)]
    for i, b in enumerate(labels):
        others = labels[:i] + labels[i + 1:]
        for _ in range(rng.randint(1, 3)):
            _add_distinct(triples, lambda: _bnode_triple(rng, b, others, connectivity))
    return frozenset(triples)


def mutate(g: Graph, rng: random.Random, ops: int, connectivity: float) -> Graph:
    """Random add/delete edits; at least one touches a bnode triple."""
    triples = set(g)
    for k in range(ops):
        present = sorted(bnodes(triples))
        if k == 0 or rng.random() < 0.5:
            if rng.random() < 0.5:
                victims = sorted(t for t in triples if is_bnode(t[0]) or is_bnode(t[2]))
                triples.discard(rng.choice(victims))
            else:
                owner = rng.choice(present)
                others = [b for b in present if b != owner] if connectivity > 0 else []
                _add_distinct(triples, lambda: _bnode_triple(rng, owner, others, connectivity))
        elif rng.random() < 0.5:
            triples.discard(rng.choice(sorted(triples)))
        else:
            _add_distinct(triples, lambda: _ground(rng))
    return frozenset(triples)


def planted_pair(rng: random.Random, n: int, connectivity: float, tag: str):
    """(g1, g2, truth): g2 is a relabelled, mutated g1; truth maps the bnodes kept."""
    g1 = random_graph(rng, n, connectivity)
    g2, m = relabel(g1, rng, tag)
    g2 = mutate(g2, rng, max(1, n // 20), connectivity)
    kept = bnodes(g2)
    return g1, g2, {a: b for a, b in m.items() if b in kept}


def other_namespace(g: Graph) -> Graph:
    """Every IRI moved to another namespace with its local name upper-cased."""
    def move(term: str) -> str:
        if term.startswith("<http://gen.example/"):
            return "<http://other.example/" + term[len("<http://gen.example/"):-1].upper() + ">"
        return term
    return frozenset((move(s), move(p), move(o)) for s, p, o in g)


def near_miss(g: Graph, rng: random.Random) -> Optional[Graph]:
    """Rewire one bnode-bnode edge to another bnode, keeping triple count,
    bnode count and vocabulary, so that the result is not isomorphic to g.

    Non-isomorphism is proven by a differing refinement invariant; returns
    None when no tried rewiring changes it.
    """
    edges = sorted(t for t in g if is_bnode(t[0]) and is_bnode(t[2]) and t[0] != t[2])
    nodes = sorted(bnodes(g))
    degree = Counter(x for s, _, o in g for x in {s, o} if is_bnode(x))
    base = refinement_invariant(g)
    for _ in range(50):
        s, p, o = rng.choice(edges)
        z = rng.choice(nodes)
        if degree[o] < 2 or z in (s, o) or (s, p, z) in g:
            continue
        candidate = (g - {(s, p, o)}) | {(s, p, z)}
        if refinement_invariant(candidate) != base:
            return frozenset(candidate)
    return None


# -- checks -------------------------------------------------------------------


def _colours(g: Graph, rounds: int) -> dict[str, str]:
    inc: dict[str, list[Triple]] = {}
    for t in g:
        for x in {t[0], t[2]}:
            if is_bnode(x):
                inc.setdefault(x, []).append(t)
    colour = {b: "" for b in inc}
    for _ in range(rounds):
        colour = {
            b: str(hash(tuple(sorted(
                (("~" if s == b else colour.get(s, s)) if is_bnode(s) else s, p,
                 ("~" if o == b else colour.get(o, o)) if is_bnode(o) else o)
                for s, p, o in ts
            ))))
            for b, ts in inc.items()
        }
    return colour


def refinement_invariant(g: Graph, rounds: int = 3) -> tuple:
    """Isomorphism invariant: ground triples plus the bnode colour multiset."""
    ground = frozenset(t for t in g if not is_bnode(t[0]) and not is_bnode(t[2]))
    return ground, frozenset(Counter(_colours(g, rounds).values()).items())


def _search(src: Graph, dst: Graph, candidates: dict[str, list[str]],
            injective: bool, budget: int) -> Optional[dict[str, str]]:
    """Backtracking map of src's bnodes under which every src triple is in dst."""
    inc: dict[str, list[Triple]] = {}
    for t in src:
        for x in {t[0], t[2]}:
            if is_bnode(x):
                inc.setdefault(x, []).append(t)
    # Most constrained first, then always a bnode linked to those already
    # placed, so that each choice is checked against its neighbours at once.
    links: dict[str, set[str]] = {b: set() for b in candidates}
    for s, _, o in src:
        if s in links and o in links and s != o:
            links[s].add(o)
            links[o].add(s)
    order: list[str] = []
    placed: set[str] = set()
    while len(order) < len(candidates):
        b = min((b for b in candidates if b not in placed),
                key=lambda b: (-len(links[b] & placed), len(candidates[b]), b))
        order.append(b)
        placed.add(b)
    m: dict[str, str] = {}
    used: set[str] = set()
    ticks = [0]

    def consistent(b: str) -> bool:
        for s, p, o in inc[b]:
            if (is_bnode(s) and s not in m) or (is_bnode(o) and o not in m):
                continue
            if (m.get(s, s), p, m.get(o, o)) not in dst:
                return False
        return True

    def step(i: int) -> bool:
        if i == len(order):
            return True
        b = order[i]
        for x in candidates[b]:
            if injective and x in used:
                continue
            ticks[0] += 1
            if ticks[0] > budget:
                raise RuntimeError("check search exceeded its budget")
            m[b] = x
            used.add(x)
            if consistent(b) and step(i + 1):
                return True
            del m[b]
            used.discard(x)
        return False

    return dict(m) if step(0) else None


def isomorphic(g1: Graph, g2: Graph, budget: int = 200_000) -> bool:
    """Exact test: a bnode bijection that maps g1 onto g2."""
    if len(g1) != len(g2) or refinement_invariant(g1) != refinement_invariant(g2):
        return False
    c1, c2 = _colours(g1, 3), _colours(g2, 3)
    by_colour: dict[str, list[str]] = {}
    for b, c in c2.items():
        by_colour.setdefault(c, []).append(b)
    candidates = {b: sorted(by_colour.get(c, [])) for b, c in c1.items()}
    return _search(g1, g2, candidates, injective=True, budget=budget) is not None


def entails(g1: Graph, g2: Graph, budget: int = 200_000) -> bool:
    """Exact test: g1 entails g2 (a map of g2's bnodes into g1's resources)."""
    resources = sorted({t for s, _, o in g1 for t in (s, o) if not t.startswith('"')})
    stars: dict[str, list[Triple]] = {}
    for t in g2:
        for x in {t[0], t[2]}:
            if is_bnode(x):
                stars.setdefault(x, []).append(t)
    # local filter: every triple of b's star must fit with b's other bnodes free
    by_po: set[tuple[str, str]] = {(p, o) for _, p, o in g1}
    by_p_res: dict[str, set[str]] = {}
    for s, p, o in g1:
        if not o.startswith('"'):
            by_p_res.setdefault(p, set()).add(s)

    def fits(b: str, x: str) -> bool:
        for s, p, o in stars[b]:
            s2 = x if s == b else s
            o2 = x if o == b else o
            if is_bnode(s2) and is_bnode(o2):
                continue
            if is_bnode(s2):
                if (p, o2) not in by_po:
                    return False
            elif is_bnode(o2):
                if s2 not in by_p_res.get(p, ()):
                    return False
            elif (s2, p, o2) not in g1:
                return False
        return True

    if any(t not in g1 for t in g2 if not is_bnode(t[0]) and not is_bnode(t[2])):
        return False
    candidates = {b: [x for x in resources if fits(b, x)] for b in stars}
    # bnode components of g2 map independently of each other
    for part in components(g2):
        sub = frozenset(t for t in g2 if t[0] in part or t[2] in part)
        found = _search(sub, g1, {b: candidates[b] for b in part}, injective=False, budget=budget)
        if found is None:
            return False
    return True


def components(g: Graph) -> list[set[str]]:
    """Bnodes grouped by the triples that link two of them."""
    parent = {b: b for b in bnodes(g)}

    def root(x: str) -> str:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for s, _, o in g:
        if is_bnode(s) and is_bnode(o):
            parent[root(s)] = root(o)
    groups: dict[str, set[str]] = {}
    for b in parent:
        groups.setdefault(root(b), set()).add(b)
    return list(groups.values())


def mapping_cost(g1: Graph, g2: Graph, m: dict[str, str]) -> int:
    """The matcher's objective for a bnode injection m from g1 into g2.

    Pair cost is the size of the symmetric difference of the two incident
    sets, with the pair's own bnodes as one self marker and g1's other
    bnodes compared through m; every unmapped bnode on either side costs
    its number of incident triples.
    """
    def incident(g: Graph) -> dict[str, list[Triple]]:
        out: dict[str, list[Triple]] = {}
        for t in g:
            for x in {t[0], t[2]}:
                if is_bnode(x):
                    out.setdefault(x, []).append(t)
        return out

    inc1, inc2 = incident(g1), incident(g2)
    images = set(m.values())
    total = sum(len(ts) for b, ts in inc1.items() if b not in m)
    total += sum(len(ts) for b, ts in inc2.items() if b not in images)
    for b1, b2 in m.items():
        def slot(term: str, owner: str, left: bool):
            if term == owner:
                return "~"
            if is_bnode(term) and left:
                return ("r", m[term]) if term in m else ("l", term)
            return ("r", term) if is_bnode(term) else term
        left = {(slot(s, b1, True), p, slot(o, b1, True)) for s, p, o in inc1[b1]}
        right = {(slot(s, b2, False), p, slot(o, b2, False)) for s, p, o in inc2[b2]}
        total += len(left ^ right)
    return total

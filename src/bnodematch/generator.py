"""Synthetic graph pairs with planted bnode mappings, for benchmarking.

The second graph is a bnode relabeling of the first with a known number of
add/delete mutations, so the planted mapping is a feasible solution and
the mutation count bounds the optimal delta from above.  Vocabulary pools
are deliberately small so distance collisions and tie-breaking actually
get exercised.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional

from .model import BNODE, Graph, Renaming, Term, Triple, bnode, iri, literal, rename_triples

_MAX_TRIES = 200


@dataclass
class GenSpec:
    bnode_count: int
    ground_triples: int = 0
    connectivity: float = 0.0
    mutation_ops: int = 0
    seed: int = 0
    uri_pool: int = 20
    literal_pool: int = 30

    def __post_init__(self) -> None:
        if min(self.bnode_count, self.ground_triples, self.mutation_ops) < 0:
            raise ValueError("counts must be >= 0")
        if not 0.0 <= self.connectivity <= 1.0:
            raise ValueError("connectivity must be within [0, 1]")
        if self.connectivity > 0 and self.bnode_count < 2:
            raise ValueError(
                "connected bnode triples need at least two bnodes"
            )
        if min(self.uri_pool, self.literal_pool) < 1:
            raise ValueError("vocabulary pools must be non-empty")


@dataclass
class GeneratedPair:
    g1: Graph
    g2: Graph
    truth: dict[Term, Term]
    true_delta_size: int


class _Vocab:
    def __init__(self, spec: GenSpec, rng: random.Random) -> None:
        self.rng = rng
        self.uris = [iri(f"http://gen.example/r{i}") for i in range(spec.uri_pool)]
        self.literals = [literal(f"v{i}") for i in range(spec.literal_pool)]
        self.connectivity = spec.connectivity

    def predicate(self) -> Term:
        return self.rng.choice(self.uris)

    def ground_triple(self) -> Triple:
        o = self.rng.choice(self.uris + self.literals)
        return Triple(self.rng.choice(self.uris), self.predicate(), o)

    def bnode_triple(self, b: Term, others: list[Term]) -> Triple:
        if others and self.rng.random() < self.connectivity:
            return Triple(b, self.predicate(), self.rng.choice(others))
        if self.rng.random() < 0.5:
            return Triple(self.rng.choice(self.uris), self.predicate(), b)
        return Triple(b, self.predicate(), self.rng.choice(self.uris + self.literals))


def _add_distinct(triples: set[Triple], make, what: str) -> Triple:
    for _ in range(_MAX_TRIES):
        t = make()
        if t not in triples:
            triples.add(t)
            return t
    raise ValueError(f"could not generate a fresh {what} triple; pools exhausted")


def generate_pair(spec: GenSpec) -> GeneratedPair:
    """Build (g1, g2, planted mapping, mutation count); same seed, same pair."""
    rng = random.Random(spec.seed)
    vocab = _Vocab(spec, rng)

    triples: set[Triple] = set()
    for _ in range(spec.ground_triples):
        _add_distinct(triples, vocab.ground_triple, "ground")
    bnodes = [bnode(f"b{i}") for i in range(spec.bnode_count)]
    for i, b in enumerate(bnodes):
        others = bnodes[:i] + bnodes[i + 1 :]
        for _ in range(rng.randint(1, 3)):
            _add_distinct(triples, lambda: vocab.bnode_triple(b, others), "bnode")
    g1 = Graph(triples, "gen1")

    new_labels = [f"m{i}" for i in range(spec.bnode_count)]
    rng.shuffle(new_labels)
    relabeling = {b: bnode(new_labels[i]) for i, b in enumerate(bnodes)}
    mutated = set(rename_triples(g1.triples, Renaming(relabeling)))

    applied = 0
    for _ in range(spec.mutation_ops):
        do_delete = mutated and rng.random() < 0.5
        if do_delete:
            victim = rng.choice(sorted(mutated, key=Triple.sort_key))
            mutated.remove(victim)
        else:
            current_bnodes = sorted(
                {t for tr in mutated for t in (tr.s, tr.o) if t.kind == BNODE},
                key=Term.sort_key,
            )
            if current_bnodes and rng.random() < 0.5:
                owner = rng.choice(current_bnodes)
                others = [b for b in current_bnodes if b != owner]
                if spec.connectivity == 0:
                    others = []  # keep unconnected instances unconnected
                _add_distinct(mutated, lambda: vocab.bnode_triple(owner, others), "mutation")
            else:
                _add_distinct(mutated, vocab.ground_triple, "mutation")
        applied += 1
    g2 = Graph(mutated, "gen2")

    truth = {
        b: relabeling[b]
        for b in bnodes
        if relabeling[b] in g2.bnodes() and b in g1.bnodes()
    }
    return GeneratedPair(g1, g2, truth, applied)


def write_pair(pair: GeneratedPair, spec: GenSpec, directory: str) -> None:
    """Emit g1.nt / g2.nt / truth.bm / meta.txt into a directory."""
    import os

    from . import ntriples
    from .matcher import BnodeMapping, format_mapping, mapping_cost

    os.makedirs(directory, exist_ok=True)
    ntriples.save_graph(pair.g1, os.path.join(directory, "g1.nt"))
    ntriples.save_graph(pair.g2, os.path.join(directory, "g2.nt"))
    planted = BnodeMapping(
        pair.truth,
        cost=mapping_cost(pair.g1, pair.g2, pair.truth),
        method="planted",
    )
    with open(os.path.join(directory, "truth.bm"), "w", encoding="utf-8") as fh:
        fh.write(format_mapping(planted))
    meta = {
        "bnodes": spec.bnode_count,
        "ground_triples": spec.ground_triples,
        "connectivity": spec.connectivity,
        "mutations": spec.mutation_ops,
        "seed": spec.seed,
        "true_delta_size": pair.true_delta_size,
    }
    with open(os.path.join(directory, "meta.txt"), "w", encoding="utf-8") as fh:
        fh.writelines(f"{k}={v}\n" for k, v in meta.items())

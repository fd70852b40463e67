"""Minimum-cost bnode matching between two graphs.

The objective: find an injection from the bnodes of the graph with fewer
bnodes into the other side that minimizes the sum of per-pair edit
distances between incident-triple sets, where IRIs and literals compare
through an equivalence relation and neighbor bnodes compare through the
candidate mapping itself.  Bnodes left out of a partial injection
contribute their incident-triple count to the cost (those triples must
appear in any delta regardless).

Three strategies, picked by instance shape:

* exact branch and bound when the smaller side has at most
  ``EXACT_THRESHOLD`` bnodes (the least cost, with ties broken as
  ``brute_force_match`` breaks them);
* minimum-cost bipartite assignment when neither graph has directly
  connected bnodes (distances are then mapping-independent, so the
  assignment is exact);
* color-refinement signature seeding plus pairwise hill-climbing otherwise
  (cost is an upper bound on the minimum).

One token rule, ``_incident_tokens``, feeds colors, distances, the bound
matrix and the cost matrix.  Every IRI and literal, predicates included,
compares through the equivalence relation: renamings never move
predicates, but two sources may name one property differently, and the
integration URI links treat such predicates as one.

Every whole matrix of pair distances comes from one kernel,
``_distance_matrix``: the assignment tier and the refinement residue read
it under one fixed mapping (``_PairContext.cost_matrix``), and the exact
search reads its bounds from it with every neighbor wildcarded
(``_PairContext.bound_matrix``).  With L and R the token sets of a pair,
``dist = |L △ R| = |L| + |R| − 2·|L ∩ R|``.  The ``|L ∩ R|`` counts come
from a postings dict, token → the columns holding it: each row token lists
the cells whose bnodes share it, and one unbuffered ``np.subtract.at``
takes 2 from a cell per listing.  Only those cells are visited; every
other cell is ``|L| + |R|``, filled by broadcasting with no Python work.
The counts are exact integers, so the matrix equals the per-cell ``dist``
matrix entry for entry and the assignment solver picks the same pairs.

The solver is scipy's rectangular LSAP (Crouse, IEEE TAES 2016), the
extension module ``scipy.optimize._lsap``.  It is loaded on its own, by
file, eagerly when this module is imported.  Importing ``scipy.optimize``
for it would also load linalg, fft, special and every optimizer, which
takes each one-shot CLI process many times longer than its request and
doubles its memory.  Even ``import scipy`` runs the package's
``__init__``, which loads test utilities, ``subprocess`` and version
parsing, about 10 ms of start-up for nothing this module uses.  So the
package directory comes from ``importlib.util.find_spec("scipy")``, which
finds the package without running it, and no ``scipy`` module but the
solver is loaded.  The module is registered under its own name, so a
later ``import scipy.optimize`` re-exports this very function.

``brute_force_match`` is an independent flat enumeration used as a test
oracle; it evaluates candidate costs through a literal rename-and-diff of
the incident sets rather than the token machinery used by the solver.
"""

from __future__ import annotations

import importlib.util
import itertools
import os
import sys
from dataclasses import dataclass
from hashlib import blake2b
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader, FileFinder
from typing import Callable, Iterable, Mapping, Optional, Union

import numpy as np

from . import ntriples
from .equivalence import EquivalenceRelation
from .model import (
    BNODE,
    Graph,
    Term,
    bnode,
    has_connected_bnodes,
    incident_triples,
)

BRUTE_FORCE = "brute_force"
ASSIGNMENT = "assignment"
REFINEMENT = "refinement"

_SELF = "~"
_WILDCARD = "*"
_UNMAPPED = "!"
_ORACLE_LIMIT = 8
EXACT_THRESHOLD = 7  # the most bnodes on the smaller side that the exact search takes
_MAX_ROUNDS = 20  # the most hill-climbing rounds of the refinement tier


def _load_lsap() -> Callable:
    """``linear_sum_assignment`` from ``scipy.optimize._lsap`` alone."""
    name = "scipy.optimize._lsap"
    module = sys.modules.get(name)
    if module is None:
        package = importlib.util.find_spec("scipy")  # finds the package without running it
        if package is None:
            raise ImportError("scipy not found")
        finder = FileFinder(os.path.join(package.submodule_search_locations[0], "optimize"),
                            (ExtensionFileLoader, EXTENSION_SUFFIXES))
        spec = finder.find_spec(name)
        if spec is None:
            raise ImportError(f"{name} not found in {finder.path}")
        module = importlib.util.module_from_spec(spec)
        sys.modules[name] = module
        spec.loader.exec_module(module)
    return module.linear_sum_assignment


linear_sum_assignment = _load_lsap()


class InstanceTooLarge(ValueError):
    """Raised when the brute-force oracle is asked for more than it can chew."""


@dataclass
class BnodeMapping:
    """An injective bnode-to-bnode map with the cost the solver computed.

    ``pairs`` is keyed by the first graph's bnodes in the caller's argument
    order.  The cost is the objective over the smaller side, which is
    always the side the optimizer enumerates.
    """

    pairs: dict[Term, Term]
    cost: int = 0
    method: str = ""

    def __post_init__(self) -> None:
        self.pairs = dict(self.pairs)
        if len(set(self.pairs.values())) != len(self.pairs):
            raise ValueError("bnode mapping must be injective")
        for a, b in self.pairs.items():
            if a.kind != BNODE or b.kind != BNODE:
                raise ValueError(f"mapping pair ({a!r}, {b!r}) is not bnode-to-bnode")

    def __len__(self) -> int:
        return len(self.pairs)

    def inverted(self) -> "BnodeMapping":
        return BnodeMapping({b: a for a, b in self.pairs.items()}, self.cost, self.method)

    def sorted_pairs(self) -> list[tuple[Term, Term]]:
        return sorted(self.pairs.items(), key=lambda p: (p[0].value, p[1].value))


def _as_dict(mapping: Union[BnodeMapping, Mapping[Term, Term], None]) -> dict[Term, Term]:
    if mapping is None:
        return {}
    if isinstance(mapping, BnodeMapping):
        return dict(mapping.pairs)
    return dict(mapping)


class _PairContext:
    """Distance machinery for one (left graph, right graph, equivalence)."""

    def __init__(self, g1: Graph, g2: Graph, equiv: EquivalenceRelation) -> None:
        self.g1 = g1
        self.g2 = g2
        self.equiv = equiv
        self.left = sorted(g1.bnodes(), key=Term.sort_key)
        self.right = sorted(g2.bnodes(), key=Term.sort_key)
        self._ground = _grounder(equiv)
        # Right-side tokens never depend on the candidate mapping: the
        # mapping renames left bnodes into right labels, so right neighbors
        # stand for themselves.
        self._right_tokens: dict[Term, frozenset[str]] = {
            b: frozenset(_incident_tokens(g2, b, self._ground, ntriples.render_term))
            for b in self.right
        }
        self._left_nbrs: dict[Term, tuple[Term, ...]] = {
            b: self._bnode_neighbors(g1, b) for b in self.left
        }
        self._penalty: dict[Term, int] = {
            b: len(incident_triples(g1, b)) for b in self.left
        }
        self._penalty_right: dict[Term, int] = {
            b: len(incident_triples(g2, b)) for b in self.right
        }
        self._memo: dict[tuple, int] = {}

    @staticmethod
    def _bnode_neighbors(g: Graph, b: Term) -> tuple[Term, ...]:
        nbrs = set()
        for t in incident_triples(g, b):
            for term in (t.s, t.o):
                if term.kind == BNODE and term != b:
                    nbrs.add(term)
        return tuple(sorted(nbrs, key=Term.sort_key))

    def _left_tokens(self, b1: Term, m: Mapping[Term, Term]) -> frozenset[str]:
        """b1's tokens with each bnode neighbor named by its image under ``m``."""
        return frozenset(_incident_tokens(self.g1, b1, self._ground, _image_namer(m)))

    def penalty(self, b1: Term) -> int:
        return self._penalty[b1]

    def penalty_right(self, b2: Term) -> int:
        return self._penalty_right[b2]

    def dist(self, b1: Term, b2: Term, m: Mapping[Term, Term]) -> int:
        """Edit distance between incident sets under the candidate mapping.

        Depends on ``m`` only through the images of b1's bnode neighbors,
        which the memo key exploits.
        """
        relevant = tuple(
            (n.value, m[n].value if n in m else None) for n in self._left_nbrs[b1]
        )
        key = (b1, b2, relevant)
        cached = self._memo.get(key)
        if cached is not None:
            return cached
        value = len(self._left_tokens(b1, m) ^ self._right_tokens[b2])
        self._memo[key] = value
        return value

    def cost_matrix(self, rows: list[Term], cols: list[Term],
                    m: Mapping[Term, Term]) -> np.ndarray:
        """``dist(b1, b2, m) - penalty_right(b2)`` for every row × column."""
        matrix = _distance_matrix([self._left_tokens(b1, m) for b1 in rows],
                                  [self._right_tokens[b2] for b2 in cols])
        return matrix - np.array([self._penalty_right[b2] for b2 in cols], dtype=np.int64)

    def bound_matrix(self) -> np.ndarray:
        """Mapping-independent lower bounds on ``dist`` for every left × right pair.

        Every neighbor on both sides is one wildcard.  That can only merge
        tokens, so no entry exceeds its pair's distance under any mapping.
        """
        def wild(g: Graph, bnodes: list[Term]) -> list[frozenset[str]]:
            return [frozenset(_incident_tokens(g, b, self._ground, _wildcard)) for b in bnodes]

        return _distance_matrix(wild(self.g1, self.left), wild(self.g2, self.right))

    def contribution(self, b1: Term, m: Mapping[Term, Term]) -> int:
        """b1's share of the objective: its pair distance, or its degree if unmapped."""
        image = m.get(b1)
        return self._penalty[b1] if image is None else self.dist(b1, image, m)

    def eval_cost(self, m: Mapping[Term, Term]) -> int:
        """Candidate objective: pair distances plus both-sided skip penalties.

        An unmapped bnode's incident triples all end up in the delta, so
        every unmapped bnode on either side contributes its degree.
        """
        images = set(m.values())
        return sum(self.contribution(b1, m) for b1 in self.left) + sum(
            self._penalty_right[b2] for b2 in self.right if b2 not in images
        )


def _grounder(equiv: EquivalenceRelation) -> Callable[[Term], str]:
    """Cached rendering of an IRI's or literal's equivalence representative."""
    cache: dict[Term, str] = {}

    def ground(term: Term) -> str:
        tok = cache.get(term)
        if tok is None:
            tok = cache[term] = ntriples.render_term(equiv.representative(term))
        return tok

    return ground


def _wildcard(_: Term) -> str:
    return _WILDCARD


def _incident_tokens(g: Graph, owner: Term, ground: Callable[[Term], str],
                     neighbor: Callable[[Term], str]) -> list[str]:
    """One token ``(slot(s) ground(p) slot(o))`` per incident triple of ``owner``.

    The owner is ``~``; an IRI or literal, the predicate included, is
    ``ground(term)``, its rendered equivalence representative; a neighbor
    bnode is ``neighbor(term)``: a right label, an image under the mapping,
    an unmapped marker, a wildcard or a color.  No slot has a space outside
    a quoted literal, so different triples give different tokens.
    """

    def slot(term: Term) -> str:
        if term == owner:
            return _SELF
        return neighbor(term) if term.kind == BNODE else ground(term)

    return [f"({slot(t.s)} {ground(t.p)} {slot(t.o)})" for t in incident_triples(g, owner)]


def _image_namer(m: Mapping[Term, Term]) -> Callable[[Term], str]:
    """Names a left neighbor by its image under ``m``; an unmapped one gets a
    marker that no right-side token carries, so it never matches."""

    def neighbor(n: Term) -> str:
        image = m.get(n)
        return _UNMAPPED + n.value if image is None else ntriples.render_term(image)

    return neighbor


def _distance_matrix(rows: list[frozenset[str]], cols: list[frozenset[str]]) -> np.ndarray:
    """``|L △ R| = |L| + |R| − 2·|L ∩ R|`` for every row × column token set.

    The postings of a row's tokens list, once per shared token, every
    column that shares one, so a cell listed k times has ``|L ∩ R| = k``.
    Row tokens that no column holds list nothing.
    """
    postings: dict[str, list[int]] = {}
    for j, toks in enumerate(cols):
        for tok in toks:
            postings.setdefault(tok, []).append(j)
    hits = [[postings.get(tok, ()) for tok in toks] for toks in rows]
    per_row = [sum(map(len, row_hits)) for row_hits in hits]
    shared_cols = np.fromiter(itertools.chain.from_iterable(itertools.chain.from_iterable(hits)),
                              dtype=np.int64, count=sum(per_row))
    cells = np.repeat(np.arange(len(rows), dtype=np.int64) * len(cols), per_row) + shared_cols
    matrix = (np.array([len(t) for t in rows], dtype=np.int64)[:, None]
              + np.array([len(t) for t in cols], dtype=np.int64)[None, :])
    np.subtract.at(matrix.reshape(-1), cells, 2)
    return matrix


def pair_distance(
    g1: Graph,
    g2: Graph,
    b1: Term,
    b2: Term,
    mapping: Union[BnodeMapping, Mapping[Term, Term], None] = None,
    equiv: Optional[EquivalenceRelation] = None,
) -> int:
    """Add/Del operations needed to make the two incident sets identical.

    b1 and b2 compare as each other; neighbor bnodes compare through
    ``mapping`` (unmapped neighbors never match); IRIs and literals compare
    through ``equiv`` (exact equality by default).  A bnode absent from its
    graph has no incident triples.
    """
    if b1.kind != BNODE or b2.kind != BNODE:
        raise ValueError("pair_distance expects bnodes on both sides")
    ground = _grounder(equiv or EquivalenceRelation.exact())
    left = _incident_tokens(g1, b1, ground, _image_namer(_as_dict(mapping)))
    right = _incident_tokens(g2, b2, ground, ntriples.render_term)
    return len(set(left) ^ set(right))


# -- signatures -------------------------------------------------------------


def _color_of(tokens: Iterable[str]) -> str:
    digest = blake2b("\n".join(tokens).encode("utf-8"), digest_size=12)
    return digest.hexdigest()


def _refine(g: Graph, ground: Callable[[Term], str],
            prev: Optional[dict[Term, str]]) -> dict[Term, str]:
    """One color-refinement round: each bnode's color after ``prev``.

    A color digests the bnode's sorted tokens, with each neighbor bnode
    named by its color in ``prev``, or by one generic placeholder when
    there is no previous round.
    """
    neighbor = _wildcard if prev is None else prev.__getitem__
    return {
        b: _color_of(sorted(_incident_tokens(g, b, ground, neighbor)))
        for b in sorted(g.bnodes(), key=Term.sort_key)
    }


def _stable_signatures(
    g1: Graph, g2: Graph, equiv: EquivalenceRelation
) -> tuple[dict[Term, str], dict[Term, str]]:
    """Refine both graphs' colors in lockstep until both partitions are stable.

    Each round is one ``_refine`` step per graph from that graph's previous
    round, so round r costs one token pass.  Colors are content digests,
    so the two graphs' colors of one round are directly comparable.  A
    round only splits the classes of the round before, so both partitions
    are unchanged exactly when the total number of classes is.
    """
    ground = _grounder(equiv)
    colors1 = colors2 = None
    classes = 0
    for _ in range(max(1, len(g1.bnodes()) + len(g2.bnodes()))):
        colors1, colors2 = _refine(g1, ground, colors1), _refine(g2, ground, colors2)
        count = len(set(colors1.values())) + len(set(colors2.values()))
        if count == classes:
            break
        classes = count
    return colors1, colors2


# -- solver tiers -----------------------------------------------------------


def _exact_search(ctx: _PairContext) -> BnodeMapping:
    """The least ``(cost, sorted pair list)`` over all partial injections.

    That is ``brute_force_match``'s rule, found by branch and bound over
    the left bnodes in label order.  Every right penalty is paid up front
    and credited back to the pair that takes its bnode as image, so a
    node's bound is what it has spent plus, for each open row, the
    cheapest of a skip or a credited pair bound.  The pairs of a branch
    start the sorted pair list of every mapping below it, so a branch whose
    ``(bound, pairs)`` is above the best ``(cost, pairs)`` cannot win, even
    a tie.  Index pairs sort as the label pairs, both sides being in label order.
    """
    left, right = ctx.left, ctx.right
    penalty = [ctx.penalty(b) for b in left]
    rp = np.array([ctx.penalty_right(b) for b in right], dtype=np.int64)
    credited = (ctx.bound_matrix() - rp).tolist()
    suffix = [int(rp.sum())]
    for p, row in zip(reversed(penalty), reversed(credited)):
        suffix.append(suffix[-1] + min([p] + row))
    suffix.reverse()
    best = (ctx.eval_cost({}), [])  # the empty mapping has the least pair list
    prefix: list[tuple[int, int]] = []
    used = [False] * len(right)

    def dfs(i: int, acc: int) -> None:
        nonlocal best
        if (acc + suffix[i], prefix) > best:
            return
        if i == len(left):
            mapping = {left[a]: right[b] for a, b in prefix}
            best = min(best, (ctx.eval_cost(mapping), prefix[:]))
            return
        # Try options in ascending optimistic cost so good bounds come early.
        options = [(penalty[i], -1)] + [(c, j) for j, c in enumerate(credited[i]) if not used[j]]
        for bound, j in sorted(options):
            if j >= 0:
                used[j] = True
                prefix.append((i, j))
            dfs(i + 1, acc + bound)
            if j >= 0:
                prefix.pop()
                used[j] = False

    dfs(0, 0)
    return BnodeMapping({left[i]: right[j] for i, j in best[1]}, cost=best[0], method=BRUTE_FORCE)


def _assignment_tier(ctx: _PairContext) -> BnodeMapping:
    # With both-sided skip penalties a pair never costs more than leaving
    # its two endpoints unmapped (dist <= deg1 + deg2), so some optimal
    # solution maps every left bnode and the assignment below is exact.
    # Crediting each used image's penalty makes the assignment objective
    # equal the true cost up to the constant sum of right penalties.
    # Distances ignore the mapping here, so the matrix is built under the
    # empty one; cost_matrix reproduces the per-cell distances exactly.
    left, right = ctx.left, ctx.right
    matrix = ctx.cost_matrix(left, right, {})
    rows, cols = linear_sum_assignment(matrix)
    pairs = {left[i]: right[j] for i, j in zip(rows, cols)}
    cost = int(matrix[rows, cols].sum()) + sum(ctx.penalty_right(b) for b in right)
    return BnodeMapping(pairs, cost=cost, method=ASSIGNMENT)


def _seed_by_signatures(ctx: _PairContext) -> dict[Term, Term]:
    colors1, colors2 = _stable_signatures(ctx.g1, ctx.g2, ctx.equiv)
    by_color: dict[str, list[Term]] = {}
    for b in ctx.right:
        by_color.setdefault(colors2[b], []).append(b)
    seed: dict[Term, Term] = {}
    taken: set[Term] = set()
    for b1 in ctx.left:
        group = by_color.get(colors1[b1], [])
        for b2 in group:
            if b2 not in taken:
                seed[b1] = b2
                taken.add(b2)
                break
    return seed


def _move_gain(ctx: _PairContext, m: Mapping[Term, Term], new_m: Mapping[Term, Term],
               moved: tuple[Term, ...]) -> int:
    """``eval_cost(new_m) - eval_cost(m)`` for a move that changes only ``moved``.

    A contribution reads the mapping only at its bnode and that bnode's
    neighbors; a right bnode's skip penalty changes only if the move frees
    or takes it as an image.
    """
    touched = set(moved).union(*(ctx._left_nbrs[b] for b in moved))
    gain = sum(ctx.contribution(b, new_m) - ctx.contribution(b, m) for b in touched)
    before = {m[b] for b in moved if b in m}
    after = {new_m[b] for b in moved if b in new_m}
    gain += sum(ctx.penalty_right(b2) for b2 in before - after)
    gain -= sum(ctx.penalty_right(b2) for b2 in after - before)
    return gain


def _refinement_tier(ctx: _PairContext) -> BnodeMapping:
    left, right = ctx.left, ctx.right
    m = _seed_by_signatures(ctx)

    # Assign the residue with matched-signature pairs held fixed.
    rest1 = [b for b in left if b not in m]
    images = set(m.values())
    rest2 = [b for b in right if b not in images]
    if rest1 and rest2:
        rows, cols = linear_sum_assignment(ctx.cost_matrix(rest1, rest2, m))
        for i, j in zip(rows, cols):
            m[rest1[i]] = rest2[j]

    for _ in range(_MAX_ROUNDS):
        improved = False
        # image swaps between mapped pairs
        for b1a, b1b in itertools.combinations(sorted(m, key=Term.sort_key), 2):
            new_m = dict(m)
            new_m[b1a], new_m[b1b] = m[b1b], m[b1a]
            if _move_gain(ctx, m, new_m, (b1a, b1b)) < 0:
                m = new_m
                improved = True
        # unmapping, reassignments to unused images, and fresh pairs
        unused = sorted(set(right) - set(m.values()), key=Term.sort_key)
        for b1 in left:
            rest = {k: v for k, v in m.items() if k != b1}
            for b2 in ([None] if b1 in m else []) + unused:
                new_m = rest if b2 is None else rest | {b1: b2}
                if _move_gain(ctx, m, new_m, (b1,)) < 0:
                    m = new_m
                    unused = sorted(set(right) - set(m.values()), key=Term.sort_key)
                    improved = True
                    break
        if not improved:
            break

    cost = ctx.eval_cost(m)
    empty_cost = ctx.eval_cost({})
    if empty_cost < cost:
        return BnodeMapping({}, cost=empty_cost, method=REFINEMENT)
    return BnodeMapping(m, cost=cost, method=REFINEMENT)


def match_bnodes(
    g1: Graph,
    g2: Graph,
    equiv: Optional[EquivalenceRelation] = None,
    exact_threshold: int = EXACT_THRESHOLD,
) -> BnodeMapping:
    """Minimum-cost injection between the bnode sets of two graphs.

    The optimizer always enumerates from the side with fewer bnodes; when
    that is the second graph, the work happens on the swapped pair and the
    returned mapping is inverted back.  The exact search runs when the
    smaller side has at most ``exact_threshold`` bnodes.  The cost is exact
    for the enumeration and assignment strategies and an upper bound for
    the refinement strategy.  Deterministic for a given threshold.
    """
    if exact_threshold < 0:
        raise ValueError("exact_threshold must be >= 0")
    mapping, ctx = _solve(g1, g2, equiv or EquivalenceRelation.exact(), exact_threshold)
    return mapping if ctx.g1 is g1 else mapping.inverted()


def _solve(
    g1: Graph, g2: Graph, equiv: EquivalenceRelation, exact_threshold: int
) -> tuple[BnodeMapping, _PairContext]:
    """Solve from the side with fewer bnodes.

    Returns the mapping in the context's orientation (``ctx.g1`` to
    ``ctx.g2``, swapped when ``g1`` has more bnodes) with that context, so
    callers can read further distances without building a second one.
    """
    if len(g1.bnodes()) > len(g2.bnodes()):
        g1, g2 = g2, g1
    ctx = _PairContext(g1, g2, equiv)
    if len(ctx.left) <= exact_threshold:
        return _exact_search(ctx), ctx
    if not has_connected_bnodes(g1) and not has_connected_bnodes(g2):
        return _assignment_tier(ctx), ctx
    return _refinement_tier(ctx), ctx


def mapping_cost(
    g1: Graph,
    g2: Graph,
    mapping: Union[BnodeMapping, Mapping[Term, Term], None],
    equiv: Optional[EquivalenceRelation] = None,
) -> int:
    """Objective value of an arbitrary candidate mapping.

    Evaluated over the smaller bnode set, mirroring ``match_bnodes``, so
    the result is comparable with solver costs.  Every pair must map a
    bnode of ``g1`` to a bnode of ``g2``, and no two pairs may share an image.
    """
    pairs = BnodeMapping(_as_dict(mapping)).pairs
    for a, b in pairs.items():
        if a not in g1.bnodes() or b not in g2.bnodes():
            raise ValueError(f"mapping pair ({a.value}, {b.value}) names an absent bnode")
    if len(g1.bnodes()) > len(g2.bnodes()):
        g1, g2, pairs = g2, g1, {b: a for a, b in pairs.items()}
    return _PairContext(g1, g2, equiv or EquivalenceRelation.exact()).eval_cost(pairs)


# -- brute-force oracle ------------------------------------------------------


def _oracle_dist(
    g1: Graph,
    g2: Graph,
    b1: Term,
    b2: Term,
    m: Mapping[Term, Term],
    equiv: EquivalenceRelation,
) -> int:
    """Literal rename-and-diff of the incident sets; predicates go through ``equiv`` too."""

    def canon(term: Term, owner: Term, side: str):
        if term == owner:
            return ("self",)
        if term.kind == BNODE:
            if side == "right":
                return ("right", term.value)
            if term in m:
                return ("right", m[term].value)
            return ("left", term.value)
        return ("ground", ntriples.render_term(equiv.representative(term)))

    left = {
        (canon(t.s, b1, "left"), canon(t.p, b1, "left"), canon(t.o, b1, "left"))
        for t in incident_triples(g1, b1)
    }
    right = {
        (canon(t.s, b2, "right"), canon(t.p, b2, "right"), canon(t.o, b2, "right"))
        for t in incident_triples(g2, b2)
    }
    return len(left - right) + len(right - left)


def brute_force_match(
    g1: Graph,
    g2: Graph,
    equiv: Optional[EquivalenceRelation] = None,
) -> BnodeMapping:
    """Global minimum by flat enumeration of every partial injection.

    Guarded to 8 bnodes per side.  Ties break lexicographically on the
    sorted pair list, so the result is deterministic.
    """
    equiv = equiv or EquivalenceRelation.exact()
    if len(g1.bnodes()) > _ORACLE_LIMIT or len(g2.bnodes()) > _ORACLE_LIMIT:
        raise InstanceTooLarge(
            f"brute force is limited to {_ORACLE_LIMIT} bnodes per side"
        )
    if len(g1.bnodes()) > len(g2.bnodes()):
        return brute_force_match(g2, g1, equiv).inverted()

    left = sorted(g1.bnodes(), key=Term.sort_key)
    right = sorted(g2.bnodes(), key=Term.sort_key)
    penalty = {b: len(incident_triples(g1, b)) for b in left}
    penalty_right = {b: len(incident_triples(g2, b)) for b in right}
    neighbors = {b: _PairContext._bnode_neighbors(g1, b) for b in left}
    dist_memo: dict[tuple, int] = {}

    def dist(b1: Term, b2: Term, m: dict[Term, Term]) -> int:
        # The distance depends on m only through b1's bnode neighbors.
        relevant = tuple(
            (n.value, m[n].value if n in m else None) for n in neighbors[b1]
        )
        key = (b1, b2, relevant)
        if key not in dist_memo:
            dist_memo[key] = _oracle_dist(g1, g2, b1, b2, m, equiv)
        return dist_memo[key]

    best: Optional[tuple[int, tuple, dict[Term, Term]]] = None
    for r in range(len(left) + 1):
        for subset in itertools.combinations(left, r):
            for images in itertools.permutations(right, r):
                m = dict(zip(subset, images))
                taken = set(images)
                cost = sum(dist(b1, m[b1], m) for b1 in subset)
                cost += sum(penalty[b] for b in left if b not in m)
                cost += sum(penalty_right[b] for b in right if b not in taken)
                key = tuple(sorted((a.value, b.value) for a, b in m.items()))
                if best is None or (cost, key) < (best[0], best[1]):
                    best = (cost, key, m)
    assert best is not None
    return BnodeMapping(best[2], cost=best[0], method=BRUTE_FORCE)


# -- mapping file format -----------------------------------------------------


def format_mapping(mapping: BnodeMapping) -> str:
    lines = [f"M {a.value} {b.value}" for a, b in mapping.sorted_pairs()]
    lines.append(f"# cost={mapping.cost} method={mapping.method or 'unknown'}")
    return "".join(line + "\n" for line in lines)


def _read_pair(pairs: dict[Term, Term], images: set[str], labels: list[str],
               line: str, line_no: int) -> None:
    """Add the pair of one ``M`` line; a label may occur once on its side.

    ``images`` holds the target labels read so far.  A repeated source
    keeps its first pair, whose target then differs from ``dst``.
    """
    if len(labels) != 2 or not all(map(ntriples.LABEL_RE.fullmatch, labels)):
        raise ntriples.ParseError(line_no, f"malformed mapping line: {line!r}")
    src, dst = labels
    if dst in images or pairs.setdefault(bnode(src), bnode(dst)).value != dst:
        raise ntriples.ParseError(line_no, f"repeated label in mapping line: {line!r}")
    images.add(dst)


def parse_mapping(text: str) -> BnodeMapping:
    pairs: dict[Term, Term] = {}
    images: set[str] = set()
    cost = 0
    method = "loaded"
    for line_no, raw in enumerate(ntriples.split_lines(text), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            for part in line[1:].split():
                if part.startswith("cost="):
                    try:
                        cost = int(part.split("=", 1)[1])
                    except ValueError:
                        raise ntriples.ParseError(line_no, f"bad cost in: {line!r}") from None
                elif part.startswith("method="):
                    method = part.split("=", 1)[1]
            continue
        parts = line.split()
        if parts[0] != "M":
            raise ntriples.ParseError(line_no, f"malformed mapping line: {line!r}")
        _read_pair(pairs, images, parts[1:], line, line_no)
    return BnodeMapping(pairs, cost=cost, method=method)

"""Workloads: each is a stream of rounds, a round being a set of input files
plus the CLI requests to run on them, each with a check of its output.

Sizes come from a fixed low-discrepancy sequence over a range, so any
prefix of the stream covers the range evenly and runs cut at different
points see nearly the same mix of sizes; the seed draws the graphs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator

import graphs as G

_GOLDEN = 0.6180339887498949

# n: bnode range per generated graph; chain: commits per version chain.
PROFILES = {
    "full": {
        "flat": {"n": (60, 120)},
        "linked": {"n": (20, 36)},
        "versioning": {"n": (90, 110), "chain": 20},
    },
    "tiny": {
        "flat": {"n": (8, 16)},
        "linked": {"n": (8, 14)},
        "versioning": {"n": (10, 14), "chain": 4},
    },
}


@dataclass
class Tally:
    """Output-derived quantities summed over the checked requests."""

    solver_cost: int = 0
    planted_cost: int = 0
    links_found: int = 0
    links_planted: int = 0
    repo_bytes: int = 0
    head_bytes: int = 0


@dataclass
class Result:
    code: int
    stdout: str
    dir: Path

    def read(self, name: str) -> str:
        return (self.dir / name).read_text(encoding="utf-8")


Check = Callable[[Result, Tally], bool]


@dataclass
class Request:
    verb: str
    argv: list[str]
    check: Check


@dataclass
class Round:
    """Input files, the requests on them, and the head of the store in `repo`."""

    files: dict[str, G.Graph]
    requests: list[Request]
    head: G.Graph
    steps: int = 1


def sizes(lo: int, hi: int) -> Iterator[int]:
    u = 0.0
    while True:
        u = (u + _GOLDEN) % 1.0
        yield lo + int(u * (hi - lo + 1))


# -- checks ---------------------------------------------------------------------


def _witness(stdout: str) -> dict[str, str]:
    """`M a b` lines: bnode label to a bnode label or a rendered term."""
    m = {}
    for line in stdout.splitlines():
        tag, a, b = line.split(" ", 2)
        if tag != "M":
            raise ValueError(f"unexpected witness line {line!r}")
        m["_:" + a] = b if b[0] in "<_" else "_:" + b
    return m


def check_diff(g1: G.Graph, g2: G.Graph, truth: dict[str, str], out: str) -> Check:
    planted = G.mapping_cost(g1, g2, truth)

    def check(r: Result, tally: Tally) -> bool:
        if r.code != 0:
            return False
        m: dict[str, str] = {}
        adds, dels = set(), set()
        for line in r.read(out).splitlines():
            if not line or line.startswith("#"):
                continue
            tag, rest = line.split(" ", 1)
            if tag == "M":
                a, b = rest.split()
                m["_:" + a] = "_:" + b
            elif tag == "A":
                adds.add(G.parse_line(rest))
            elif tag == "D":
                dels.add(G.parse_line(rest))
            else:
                return False
        if (G.rename(g1, m) - dels) | adds != g2:
            return False
        kept = G.bnodes(g2)
        tally.solver_cost += G.mapping_cost(g1, g2, {a: b for a, b in m.items() if b in kept})
        tally.planted_cost += planted
        return True

    return check


def check_equiv(g1: G.Graph, g2: G.Graph, expected: bool) -> Check:
    def check(r: Result, tally: Tally) -> bool:
        if not expected:
            return r.code == 1
        if r.code != 0:
            return False
        m = _witness(r.stdout)
        return (set(m) == G.bnodes(g1) and len(set(m.values())) == len(m)
                and G.rename(g1, m) == g2)

    return check


def check_entail(g1: G.Graph, g2: G.Graph, expected: bool) -> Check:
    """A yes must carry a witness that renames g2 into g1 (the test
    verify_entailment makes); a no must agree with the benchmark's own search."""
    def check(r: Result, tally: Tally) -> bool:
        if r.code == 1:
            return not expected
        if r.code != 0:
            return False
        m = _witness(r.stdout)
        return expected and set(m) == G.bnodes(g2) and G.rename(g2, m) <= g1

    return check


def check_integrate(g1: G.Graph, g2: G.Graph, truth: dict[str, str], out: str) -> Check:
    base = (G.rename(g1, {b: "_:src1_" + b[2:] for b in G.bnodes(g1)})
            | G.rename(g2, {b: "_:src2_" + b[2:] for b in G.bnodes(g2)}))
    planted = {("_:src1_" + a[2:], "_:src2_" + b[2:]) for a, b in truth.items()}

    def check(r: Result, tally: Tally) -> bool:
        if r.code != 0:
            return False
        merged = G.parse(r.read(out))
        if not base <= merged or any(p != G.SAMEAS for _, p, _ in merged - base):
            return False
        links = {(s, o) for s, p, o in merged - base if G.is_bnode(s) and G.is_bnode(o)}
        tally.links_found += len(planted & (links | {(o, s) for s, o in links}))
        tally.links_planted += len(planted)
        return True

    return check


def check_ok(r: Result, tally: Tally) -> bool:
    return r.code == 0


def check_checkout(expected: G.Graph, out: str) -> Check:
    def check(r: Result, tally: Tally) -> bool:
        if r.code != 0:
            return False
        got = G.parse(r.read(out))
        return got == expected or G.isomorphic(got, expected)

    return check


# -- rounds ---------------------------------------------------------------------


def _pair_round(rng: random.Random, n: int, connectivity: float) -> Round:
    """One planted pair: diff both ways, integrate, equiv, entail, and a store
    holding g1, then g2, then a relabelled g1 (a revert, as exported elsewhere)."""
    g1, g2, truth = G.planted_pair(rng, n, connectivity, "t")
    g1r, _ = G.relabel(g1, rng, "e")
    g2ns = G.other_namespace(g2)
    files = {"g1.nt": g1, "g2.nt": g2, "g2ns.nt": g2ns, "g1r.nt": g1r}
    back = {b: a for a, b in truth.items()}
    reqs = [
        Request("diff", ["diff", "g1.nt", "g2.nt", "-o", "d12.rdfd"],
                check_diff(g1, g2, truth, "d12.rdfd")),
        Request("diff", ["diff", "g2.nt", "g1.nt", "-o", "d21.rdfd"],
                check_diff(g2, g1, back, "d21.rdfd")),
        Request("equiv", ["equiv", "g1.nt", "g1r.nt"], check_equiv(g1, g1r, True)),
    ]
    if connectivity > 0:
        nm = G.near_miss(g1r, rng)
        if nm is not None:
            files["nm.nt"] = nm
            reqs.append(Request("equiv", ["equiv", "g1.nt", "nm.nt"], check_equiv(g1, nm, False)))
            reqs.append(Request("entail", ["entail", "g1.nt", "nm.nt"],
                                check_entail(g1, nm, G.entails(g1, nm))))
    reqs += [
        Request("entail", ["entail", "g1.nt", "g1r.nt"], check_entail(g1, g1r, True)),
        Request("integrate", ["integrate", "g1.nt", "g2ns.nt", "--equiv", "suffix", "-o", "m.nt"],
                check_integrate(g1, g2ns, truth, "m.nt")),
        Request("init", ["vs", "init", "repo", "g1.nt"], check_ok),
        Request("commit", ["vs", "commit", "repo", "g2.nt"], check_ok),
        Request("commit", ["vs", "commit", "repo", "g1r.nt"], check_ok),
        Request("checkout", ["vs", "checkout", "repo", "1", "-o", "c1.nt"], check_checkout(g1, "c1.nt")),
        Request("checkout", ["vs", "checkout", "repo", "2", "-o", "c2.nt"], check_checkout(g2, "c2.nt")),
        Request("checkout", ["vs", "checkout", "repo", "3", "-o", "c3.nt"], check_checkout(g1r, "c3.nt")),
    ]
    return Round(files, reqs, head=g1r)


# Read verbs after each commit, in turn.
_READS = (("diff", "entail"), ("equiv", "integrate"))


def _chain_round(rng: random.Random, n: int, chain: int) -> Round:
    """A version chain: init, then commits of relabelled edited versions, each
    followed by a checkout of a seeded-random earlier version and two read verbs.

    The checked-out version is spread evenly over the earlier ones (a golden
    ratio sequence from a seeded start), so that runs see the same mix of
    replay lengths.
    """
    versions = [G.random_graph(rng, n, 0.0)]
    files = {"v1.nt": versions[0]}
    reqs = [Request("init", ["vs", "init", "repo", "v1.nt"], check_ok)]
    u = rng.random()
    for k in range(2, chain + 2):
        prev = versions[-1]
        edited = G.mutate(prev, rng, rng.randint(1, 4), 0.0)
        cur, m = G.relabel(edited, rng, f"x{k}")
        truth = {a: b for a, b in m.items() if a in G.bnodes(prev)}
        versions.append(cur)
        files[f"v{k}.nt"] = cur
        reqs.append(Request("commit", ["vs", "commit", "repo", f"v{k}.nt"], check_ok))
        u = (u + _GOLDEN) % 1.0
        j = 1 + int(u * k)
        reqs.append(Request("checkout", ["vs", "checkout", "repo", str(j), "-o", f"c{k}.nt"],
                            check_checkout(versions[j - 1], f"c{k}.nt")))
        files[f"r{k}.nt"], _ = G.relabel(cur, rng, f"e{k}")
        for read in _READS[k % len(_READS)]:
            if read == "diff":
                reqs.append(Request("diff", ["diff", f"v{k - 1}.nt", f"v{k}.nt", "-o", f"d{k}.rdfd"],
                                    check_diff(prev, cur, truth, f"d{k}.rdfd")))
            elif read == "equiv":
                reqs.append(Request("equiv", ["equiv", f"v{k}.nt", f"r{k}.nt"],
                                    check_equiv(cur, files[f"r{k}.nt"], True)))
            elif read == "entail":
                reqs.append(Request("entail", ["entail", f"v{k}.nt", f"r{k}.nt"],
                                    check_entail(cur, files[f"r{k}.nt"], True)))
            else:
                files[f"n{k}.nt"] = G.other_namespace(cur)
                reqs.append(Request("integrate", ["integrate", f"v{k - 1}.nt", f"n{k}.nt",
                                                  "--equiv", "suffix", "-o", f"m{k}.nt"],
                                    check_integrate(prev, files[f"n{k}.nt"], truth, f"m{k}.nt")))
    return Round(files, reqs, head=versions[-1], steps=chain)


def rounds(name: str, seed: int, profile: str = "full") -> Iterator[Round]:
    """The workload's round stream; the same seed gives the same rounds."""
    cfg = PROFILES[profile][name]
    rng = random.Random(f"{name}:{seed}")
    for n in sizes(*cfg["n"]):
        if name == "flat":
            yield _pair_round(rng, n, 0.0)
        elif name == "linked":
            yield _pair_round(rng, n, 0.3)
        else:
            yield _chain_round(rng, n, cfg["chain"])


WORKLOADS = ("flat", "linked", "versioning")
VERBS = ("diff", "equiv", "entail", "integrate", "commit", "checkout")

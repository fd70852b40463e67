"""Acceptance suite: one test per shipping criterion, with PASS/FAIL lines.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion.  Each test pins its tolerance exactly; runtime limits are
asserted where the criterion carries one.
"""

from __future__ import annotations

import functools
import random
import time
from pathlib import Path

from bnodematch import (
    GenSpec,
    apply_delta,
    brute_force_match,
    entails,
    find_equivalence_bijection,
    generate_pair,
    graphs_equivalent,
    bnode,
    iri,
    literal,
    load_graph,
    mapped_delta,
    mapping_cost,
    match_bnodes,
    parse_ntriples,
    rename_graph,
    serialize_ntriples,
    verify_entailment,
)
from bnodematch.cli import main
from bnodematch.matcher import ASSIGNMENT, BRUTE_FORCE, REFINEMENT
from bnodematch.model import Graph, Triple
from bnodematch.integration import integrate_all
from bnodematch.store import VersionStore
from conftest import random_relabeling

FIXTURES = Path(__file__).parent / "fixtures"
G1, G2, G3, G4 = (str(FIXTURES / f"g{i}.nt") for i in range(1, 5))
G2NB = str(FIXTURES / "g2_no_birthday.nt")


def criterion(number: int, name: str):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                print(f"\nACCEPTANCE {number} ({name}): FAIL")
                raise
            print(f"\nACCEPTANCE {number} ({name}): PASS")
            return result

        return wrapper

    return decorate


def _count_ops(delta_file: Path) -> int:
    return sum(
        1 for line in delta_file.read_text().splitlines() if line[:2] in ("A ", "D ")
    )


@criterion(1, "running-example delta reduction 11 -> 1")
def test_delta_reduction_on_the_running_example(tmp_path, capsys):
    start = time.monotonic()
    plain_out = tmp_path / "plain.rdfd"
    matched_out = tmp_path / "matched.rdfd"
    assert main(["diff", "--plain", G1, G2, "-o", str(plain_out)]) == 0
    assert main(["diff", G1, G2, "-o", str(matched_out)]) == 0
    capsys.readouterr()
    assert _count_ops(plain_out) == 11
    assert _count_ops(matched_out) == 1
    added = [l for l in matched_out.read_text().splitlines() if l.startswith("A ")]
    assert added == [
        'A <http://www.example.com/music/v0/John_Lennon> '
        '<http://www.example.com/music/v0/birthday> "9 October 1940" .'
    ]
    assert time.monotonic() - start < 1.0


@criterion(2, "second delta matches the oracle optimum")
def test_second_delta_is_oracle_optimal(tmp_path, capsys):
    g2 = load_graph(G2, "g2")
    g3 = load_graph(G3, "g3")
    oracle = brute_force_match(g2, g3)
    # The narrative around the address change speaks of reducing the delta
    # "to 9 operations" while enumerating 8 concrete operations (4 Del +
    # 4 Add).  The fixtures reproduce the enumerated operations; we pin the
    # independently computed optimum (8) rather than the stated total.
    assert oracle.cost == 8
    out = tmp_path / "d23.rdfd"
    assert main(["diff", G2, G3, "-o", str(out)]) == 0
    capsys.readouterr()
    lines = out.read_text().splitlines()
    assert "M 2 3" in lines
    assert _count_ops(out) == oracle.cost


@criterion(3, "equivalence decisions, 100 random relabelings")
def test_equivalence_fixture_and_relabelings(capsys):
    start = time.monotonic()
    assert main(["equiv", G1, G2]) == 1
    assert main(["equiv", G1, G2NB]) == 0
    capsys.readouterr()
    rng = random.Random(1234)
    sizes = [4, 8, 12, 18, 24, 30]
    done = 0
    while done < 100:
        size = sizes[done % len(sizes)]
        connectivity = 0.5 if done % 2 else 0.0
        pair = generate_pair(
            GenSpec(
                bnode_count=size,
                ground_triples=6,
                connectivity=connectivity,
                mutation_ops=0,
                seed=10_000 + done,
            )
        )
        g = pair.g1
        relabeled = rename_graph(g, random_relabeling(g, rng, tag=f"q{done}_"))
        assert graphs_equivalent(g, relabeled), f"relabeling {done} (size {size})"
        done += 1
    assert time.monotonic() - start < 10.0


@criterion(4, "entailment fixtures with verified witnesses")
def test_entailment_fixtures():
    name = iri("http://example.org/name")
    surname = iri("http://example.org/surname")
    andre = iri("http://Andre")
    entailing = Graph(
        [
            Triple(andre, name, literal("Andre")),
            Triple(andre, surname, literal("Smith")),
            Triple(bnode("1"), name, literal("Natalie")),
        ]
    )
    entailed = Graph(
        [
            Triple(bnode("2"), name, literal("Andre")),
            Triple(bnode("3"), surname, literal("Smith")),
        ]
    )
    witness = entails(entailing, entailed)
    assert witness is not None
    assert verify_entailment(entailing, entailed, witness)

    g1 = load_graph(G1, "g1")
    g2 = load_graph(G2, "g2")
    witness21 = entails(g2, g1)
    assert witness21 is not None
    assert verify_entailment(g2, g1, witness21)
    assert witness21.assignments == {bnode("1"): bnode("2")}


@criterion(5, "solver vs oracle over 500+ generated instances")
def test_solver_against_oracle_at_scale():
    start = time.monotonic()
    plans = []
    unconnected_sizes = [1, 2, 3, 4, 5] * 47 + [6] * 10 + [7] * 5
    for i, size in enumerate(unconnected_sizes):
        plans.append((size, 0.0, i % 6, 20_000 + i))
    connected_sizes = [2, 3, 4, 5] * 60 + [6] * 7 + [7] * 3
    for i, size in enumerate(connected_sizes):
        plans.append((size, 0.5, i % 6, 30_000 + i))
    assert len(plans) >= 500

    exact_checked = approx_checked = 0
    for size, connectivity, mutations, seed in plans:
        pair = generate_pair(
            GenSpec(
                bnode_count=size,
                ground_triples=4,
                connectivity=connectivity,
                mutation_ops=mutations,
                seed=seed,
            )
        )
        oracle = brute_force_match(pair.g1, pair.g2)
        default = match_bnodes(pair.g1, pair.g2)
        assert default.method == BRUTE_FORCE
        assert default.cost == oracle.cost, f"exact tier disagrees at seed {seed}"
        other = match_bnodes(pair.g1, pair.g2, exact_threshold=0)
        if other.method in (ASSIGNMENT, BRUTE_FORCE):
            # brute_force only reappears here when mutations emptied one
            # side's bnode set; both tiers are exact either way
            assert other.cost == oracle.cost, f"exact tier disagrees at seed {seed}"
            exact_checked += 1
        else:
            assert other.method == REFINEMENT
            empty_cost = mapping_cost(pair.g1, pair.g2, {})
            assert oracle.cost <= other.cost <= empty_cost, f"seed {seed}"
            approx_checked += 1
    assert exact_checked >= 250  # every unconnected instance lands here
    assert approx_checked >= 200
    assert time.monotonic() - start < 120.0


@criterion(6, "patch round-trip on fixtures and 200 generated pairs")
def test_patch_round_trip_everywhere():
    start = time.monotonic()
    fixtures = [load_graph(p, p) for p in (G1, G2, G2NB, G3, G4)]
    for a in fixtures:
        for b in fixtures:
            mapping = match_bnodes(a, b)
            patched, _ = apply_delta(a, mapped_delta(a, b, mapping))
            assert graphs_equivalent(patched, b)
    for i in range(200):
        connectivity = 0.5 if i % 2 else 0.0
        size = 2 + i % 5
        pair = generate_pair(
            GenSpec(
                bnode_count=size,
                ground_triples=4,
                connectivity=connectivity,
                mutation_ops=i % 6,
                seed=40_000 + i,
            )
        )
        mapping = match_bnodes(pair.g1, pair.g2)
        patched, _ = apply_delta(pair.g1, mapped_delta(pair.g1, pair.g2, mapping))
        assert graphs_equivalent(patched, pair.g2), f"pair {i}"
    assert time.monotonic() - start < 60.0


@criterion(7, "version store reconstructs and stays minimal")
def test_version_store_round_trip(tmp_path):
    g1 = load_graph(G1, "g1")
    g2 = load_graph(G2, "g2")
    g3 = load_graph(G3, "g3")
    store = VersionStore.init(tmp_path / "repo", g1)
    store.commit(g2)
    store.commit(g3)
    assert graphs_equivalent(store.checkout(2), g2)
    assert graphs_equivalent(store.checkout(3), g3)
    oracle_second = brute_force_match(g2, g3).cost
    assert store.stored_operation_count() == 1 + oracle_second


@criterion(8, "integration links exactly the documented pairs")
def test_integration_fixture():
    graphs = [load_graph(p) for p in (G1, G2, G3, G4)]
    suffixed = integrate_all(graphs, policy="suffix")
    stripped = {
        (a.value.split("_", 1)[1], b.value.split("_", 1)[1])
        for a, b in suffixed.bnode_links
    }
    assert stripped == {("1", "2"), ("3", "4")}
    assert suffixed.uri_links == {
        (
            iri("http://www.example.com/music/v0/John_Lennon"),
            iri("http://www.dbpedia.org/John_Lennon"),
        )
    }
    exact = integrate_all(graphs, policy="exact")
    assert exact.uri_links == set()


@criterion(9, "parser round-trip is byte-stable")
def test_parser_round_trip_at_scale():
    for path in (G1, G2, G2NB, G3, G4):
        text = Path(path).read_text()
        g = parse_ntriples(text).graph
        once = serialize_ntriples(g)
        assert parse_ntriples(once).graph == g
        assert serialize_ntriples(parse_ntriples(once).graph) == once
    for i in range(1000):
        pair = generate_pair(
            GenSpec(
                bnode_count=1 + i % 5,
                ground_triples=i % 8,
                connectivity=0.0,
                mutation_ops=0,
                seed=50_000 + i,
            )
        )
        g = pair.g1
        once = serialize_ntriples(g)
        assert parse_ntriples(once).graph == g
        assert serialize_ntriples(parse_ntriples(once).graph) == once

"""Synthetic pair generation with planted mappings."""

from __future__ import annotations

import pytest

from bnodematch import (
    GenSpec,
    brute_force_match,
    generate_pair,
    graphs_equivalent,
    has_connected_bnodes,
    mapping_cost,
    match_bnodes,
)
from bnodematch.generator import write_pair


def test_same_seed_same_pair():
    spec = GenSpec(bnode_count=6, ground_triples=5, connectivity=0.4,
                   mutation_ops=4, seed=99)
    a, b = generate_pair(spec), generate_pair(spec)
    assert a.g1 == b.g1 and a.g2 == b.g2 and a.truth == b.truth


def test_different_seeds_differ():
    base = dict(bnode_count=6, ground_triples=5, connectivity=0.4, mutation_ops=4)
    a = generate_pair(GenSpec(seed=1, **base))
    b = generate_pair(GenSpec(seed=2, **base))
    assert a.g1 != b.g1 or a.g2 != b.g2


def test_zero_mutations_give_equivalent_graphs():
    for seed in range(8):
        pair = generate_pair(GenSpec(bnode_count=4, ground_triples=3,
                                     connectivity=0.5, mutation_ops=0, seed=seed))
        assert match_bnodes(pair.g1, pair.g2).cost == 0
        assert graphs_equivalent(pair.g1, pair.g2)


def test_connectivity_zero_stays_unconnected():
    for seed in range(6):
        pair = generate_pair(GenSpec(bnode_count=5, ground_triples=4,
                                     connectivity=0.0, mutation_ops=5, seed=seed))
        assert not has_connected_bnodes(pair.g1)
        assert not has_connected_bnodes(pair.g2)
        oracle = brute_force_match(pair.g1, pair.g2)
        tier2 = match_bnodes(pair.g1, pair.g2, exact_threshold=0)
        assert tier2.cost == oracle.cost


def test_positive_connectivity_links_bnodes_eventually():
    pair = generate_pair(GenSpec(bnode_count=8, ground_triples=0,
                                 connectivity=1.0, mutation_ops=0, seed=3))
    assert has_connected_bnodes(pair.g1)


def test_planted_mapping_is_feasible_and_bounds_the_optimum():
    for seed in range(10):
        pair = generate_pair(GenSpec(bnode_count=5, ground_triples=3,
                                     connectivity=0.3, mutation_ops=seed % 5, seed=seed))
        bound = mapping_cost(pair.g1, pair.g2, pair.truth)
        assert match_bnodes(pair.g1, pair.g2).cost <= bound


def test_true_delta_size_counts_applied_mutations():
    pair = generate_pair(GenSpec(bnode_count=3, ground_triples=2,
                                 connectivity=0.0, mutation_ops=4, seed=11))
    assert pair.true_delta_size == 4


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(bnode_count=-1),
        dict(bnode_count=2, connectivity=1.5),
        dict(bnode_count=1, connectivity=0.5),
        dict(bnode_count=0, connectivity=0.1),
        dict(bnode_count=2, uri_pool=0),
    ],
)
def test_infeasible_specs_are_rejected(kwargs):
    with pytest.raises(ValueError):
        GenSpec(**kwargs)


def test_write_pair_emits_the_expected_files(tmp_path):
    spec = GenSpec(bnode_count=3, ground_triples=2, connectivity=0.0,
                   mutation_ops=1, seed=5)
    pair = generate_pair(spec)
    write_pair(pair, spec, str(tmp_path / "pair0"))
    names = {p.name for p in (tmp_path / "pair0").iterdir()}
    assert names == {"g1.nt", "g2.nt", "truth.bm", "meta.txt"}
    meta = (tmp_path / "pair0" / "meta.txt").read_text()
    assert "true_delta_size=1" in meta

"""Plain and mapping-aware deltas, patch application, delta files."""

from __future__ import annotations

import itertools
import random

import pytest

from bnodematch import (
    Graph,
    Renaming,
    Term,
    Triple,
    apply_delta,
    bnode,
    graphs_equivalent,
    iri,
    literal,
    mapped_delta,
    match_bnodes,
    plain_delta,
    rename_graph,
    reverse_delta,
)
from bnodematch.delta import (
    SOURCE_LABELS,
    TARGET_LABELS,
    DeltaScript,
    _fresh_label,
    _target_delta,
    format_delta,
    parse_delta,
)
from bnodematch.matcher import BnodeMapping, _as_dict
from bnodematch.model import BNODE
from bnodematch.ntriples import ParseError, render_triple
from conftest import random_relabeling, small_pair

# Line breaks to ``str.splitlines`` that N-Triples allows raw inside a literal.
VERTICAL_WHITESPACE = ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]

MUS = "http://www.example.com/music/v0/"


def _mus(name):
    return iri(MUS + name)


class TestPlainDelta:
    def test_identical_graphs_give_empty_script(self, g1):
        script = plain_delta(g1, g1)
        assert script.is_empty() and script.size == 0

    def test_running_example_without_matching_is_eleven_operations(self, g1, g2):
        # every bnode triple differs by label text, plus the birthday add
        assert plain_delta(g1, g2).size == 11

    def test_single_addition(self):
        t = Triple(_mus("a"), _mus("p"), literal("x"))
        script = plain_delta(Graph(), Graph([t]))
        assert script.additions == frozenset({t})
        assert script.deletions == frozenset()


class TestMappedDelta:
    def test_running_example_single_birthday_add(self, g1, g2):
        script = mapped_delta(g1, g2, {bnode("1"): bnode("2")})
        assert script.deletions == frozenset()
        assert script.additions == frozenset(
            {Triple(_mus("John_Lennon"), _mus("birthday"), literal("9 October 1940"))}
        )
        assert script.size == 1

    def test_address_change_is_four_dels_four_adds(self, g2, g3):
        script = mapped_delta(g2, g3, {bnode("2"): bnode("3")})
        assert len(script.deletions) == 4
        assert len(script.additions) == 4
        deleted = {(t.p.value, t.o.value) for t in script.deletions}
        assert deleted == {
            (MUS + "street", "Menlove Avenue"),
            (MUS + "no", "251"),
            (MUS + "city", "Liverpool"),
            (MUS + "country", "England"),
        }
        added = {(t.p.value, t.o.value) for t in script.additions}
        assert added == {
            (MUS + "street", "West Street"),
            (MUS + "no", "72"),
            (MUS + "state", "Manhattan"),
            (MUS + "country", "USA"),
        }

    def test_relabeling_then_differencing_cancels(self, g4):
        rho = random_relabeling(g4, random.Random(5))
        renamed = rename_graph(g4, rho)
        script = mapped_delta(g4, renamed, dict(rho.pairs))
        assert script.is_empty()

    def test_source_direction_keeps_source_labels(self, g1, g2):
        script = mapped_delta(g1, g2, {bnode("1"): bnode("2")}, SOURCE_LABELS)
        labels = {
            t.value
            for op in (script.additions | script.deletions)
            for t in op.terms()
            if t.kind == "bnode"
        }
        assert "2" not in labels

    def test_target_direction_never_leaks_source_labels(self, g2, g3):
        # even with the empty mapping: unmapped source bnodes get fresh labels
        script = mapped_delta(g2, g3, {}, TARGET_LABELS)
        op_labels = {
            t.value
            for op in (script.additions | script.deletions)
            for t in op.terms()
            if t.kind == "bnode"
        }
        assert "2" not in op_labels  # the source scope's only label

    def test_rejects_non_injective_mapping(self, g4):
        with pytest.raises(ValueError):
            mapped_delta(g4, g4, {bnode("4"): bnode("4"), bnode("5"): bnode("4")})

    def test_rejects_foreign_domain(self, g1, g2):
        with pytest.raises(ValueError):
            mapped_delta(g1, g2, {bnode("ghost"): bnode("2")})

    def test_size_bounded_by_graph_sizes(self, g1, g3):
        assert mapped_delta(g1, g3, {}).size <= len(g1) + len(g3)


class TestApplyDelta:
    def test_patching_reconstructs_the_target(self, g1, g2):
        script = mapped_delta(g1, g2, {bnode("1"): bnode("2")})
        patched, warnings = apply_delta(g1, script)
        assert warnings == []
        assert graphs_equivalent(patched, g2)

    def test_empty_script_is_identity(self, g3):
        patched, warnings = apply_delta(
            g3, DeltaScript(frozenset(), frozenset())
        )
        assert patched == g3 and warnings == []

    def test_chained_patches_reach_the_final_version(self, g1, g2, g3):
        d12 = mapped_delta(g1, g2, match_bnodes(g1, g2))
        step1, _ = apply_delta(g1, d12)
        d23 = mapped_delta(step1, g3, match_bnodes(step1, g3))
        step2, _ = apply_delta(step1, d23)
        assert graphs_equivalent(step2, g3)

    def test_absent_deletions_warn_but_proceed(self, g1):
        ghost = Triple(_mus("nobody"), _mus("p"), literal("x"))
        script = DeltaScript(frozenset(), frozenset({ghost}))
        patched, warnings = apply_delta(g1, script)
        assert patched == g1
        assert len(warnings) == 1 and "absent" in warnings[0]


class TestReverseDelta:
    def test_double_reverse_is_identity(self, g2, g3):
        script = mapped_delta(g2, g3, {bnode("2"): bnode("3")})
        back = reverse_delta(reverse_delta(script))
        assert back.additions == script.additions
        assert back.deletions == script.deletions
        assert back.direction == script.direction
        assert back.mapping_used.pairs == script.mapping_used.pairs

    def test_reverse_of_empty_is_empty(self):
        assert reverse_delta(DeltaScript(frozenset(), frozenset())).is_empty()

    def test_reversed_patch_restores_the_original(self, g1, g2):
        d12 = mapped_delta(g1, g2, {bnode("1"): bnode("2")})
        forward, _ = apply_delta(g1, d12)
        back, _ = apply_delta(forward, reverse_delta(d12))
        assert graphs_equivalent(back, g1)

    def test_reversed_source_script_restores_too(self, g2, g3):
        d = mapped_delta(g2, g3, {bnode("2"): bnode("3")}, SOURCE_LABELS)
        forward, _ = apply_delta(g2, d)
        assert graphs_equivalent(forward, g3)
        back, _ = apply_delta(forward, reverse_delta(d))
        assert graphs_equivalent(back, g2)


def test_matched_delta_never_beats_plain_on_generated_pairs():
    for seed in range(25):
        pair = small_pair(seed, bnodes=3 + seed % 3, connectivity=0.0 if seed % 2 else 0.5,
                          mutations=seed % 4)
        mapping = match_bnodes(pair.g1, pair.g2)
        mapped = mapped_delta(pair.g1, pair.g2, mapping)
        assert mapped.size <= plain_delta(pair.g1, pair.g2).size


def test_patch_soundness_on_generated_pairs():
    for seed in range(20):
        pair = small_pair(100 + seed, bnodes=4, connectivity=0.5 if seed % 2 else 0.0,
                          mutations=3)
        mapping = match_bnodes(pair.g1, pair.g2)
        script = mapped_delta(pair.g1, pair.g2, mapping)
        patched, _ = apply_delta(pair.g1, script)
        assert graphs_equivalent(patched, pair.g2)


class TestDeltaFile:
    def test_format_is_sorted_and_round_trips(self, g2, g3):
        script = mapped_delta(g2, g3, {bnode("2"): bnode("3")})
        text = format_delta(script)
        assert text.startswith("# direction=target-labels\n")
        body = [l for l in text.splitlines() if not l.startswith("#")]
        # sections come as M, D, A; each section is sorted internally
        order = {"M": 0, "D": 1, "A": 2}
        assert body == sorted(body, key=lambda l: (order[l[0]], l))
        loaded = parse_delta(text)
        assert loaded.additions == script.additions
        assert loaded.deletions == script.deletions
        assert loaded.direction == script.direction
        assert loaded.mapping_used.pairs == script.mapping_used.pairs

    def test_format_is_byte_stable(self, g1, g3):
        script = mapped_delta(g1, g3, match_bnodes(g1, g3))
        assert format_delta(script) == format_delta(parse_delta(format_delta(script)))

    @pytest.mark.parametrize("text", ["M a x\nM b x\n", "M a x\nM a y\n"],
                             ids=["target", "source"])
    def test_repeated_mapping_label_is_a_parse_error(self, text):
        with pytest.raises(ParseError) as err:
            parse_delta("# direction=target-labels\n" + text)
        assert err.value.line_no == 3

    @pytest.mark.parametrize("ch", VERTICAL_WHITESPACE, ids=lambda c: f"U+{ord(c):04X}")
    def test_literals_with_vertical_whitespace_round_trip(self, ch):
        g = Graph([Triple(bnode("a"), iri("http://x/p"), literal(f"one{ch}two"))])
        for script in (plain_delta(Graph(), g), plain_delta(g, Graph())):
            loaded = parse_delta(format_delta(script))
            assert (loaded.additions, loaded.deletions) == (script.additions, script.deletions)

    @pytest.mark.parametrize("eol", ["\r", "\r\n"], ids=["cr", "crlf"])
    def test_cr_ends_a_line_as_lf_does(self, g2, g3, eol):
        text = format_delta(mapped_delta(g2, g3, {bnode("2"): bnode("3")}))
        assert parse_delta(text.replace("\n", eol)) == parse_delta(text)
        with pytest.raises(ParseError) as err:
            parse_delta(f"# direction=target-labels{eol}{eol}X _:a <http://p> _:b .{eol}")
        assert err.value.line_no == 3

    def test_bad_lines_are_rejected(self):
        with pytest.raises(ValueError):
            parse_delta("X something .\n")
        with pytest.raises(ValueError):
            parse_delta("M only-one-label\n")


# -- one delta builder: the replaced two-branch ``mapped_delta`` -------------


def _reference_check_mapping(pairs, g1):
    seen = set()
    for src, dst in pairs.items():
        if src.kind != BNODE or dst.kind != BNODE:
            raise ValueError(f"mapping pair ({src!r}, {dst!r}) is not bnode-to-bnode")
        if src not in g1.bnodes():
            raise ValueError(f"mapping domain term {src!r} is not a bnode of the source graph")
        if dst in seen:
            raise ValueError(f"mapping is not injective at {dst!r}")
        seen.add(dst)


def _reference_mapped_delta(g1, g2, mapping, direction=TARGET_LABELS):
    """``mapped_delta`` as it was, with its own source-labels branch."""
    pairs = _as_dict(mapping)
    _reference_check_mapping(pairs, g1)
    method = mapping.method if isinstance(mapping, BnodeMapping) else ""
    cost = mapping.cost if isinstance(mapping, BnodeMapping) else 0

    used = {b.value for b in g1.bnodes() | g2.bnodes()}
    used.update(b.value for b in pairs.values())
    if direction == TARGET_LABELS:
        renaming = dict(pairs)
        for b1 in sorted(g1.bnodes() - set(pairs), key=lambda t: t.sort_key()):
            renaming[b1] = bnode(_fresh_label(b1.value, used))
        g1m = rename_graph(g1, Renaming(renaming))
        additions = g2.triples - g1m.triples
        deletions = g1m.triples - g2.triples
        stored = renaming
    elif direction == SOURCE_LABELS:
        inverse = {dst: src for src, dst in pairs.items()}
        stored = dict(pairs)
        renaming = dict(inverse)
        for b2 in sorted(g2.bnodes() - set(inverse), key=lambda t: t.sort_key()):
            fresh = bnode(_fresh_label(b2.value, used))
            renaming[b2] = fresh
            stored[fresh] = b2
        g2m = rename_graph(g2, Renaming(renaming))
        additions = g2m.triples - g1.triples
        deletions = g1.triples - g2m.triples
    else:
        raise ValueError(f"unknown direction: {direction!r}")
    return DeltaScript(additions, deletions, BnodeMapping(stored, cost=cost, method=method),
                       direction)


def _delta_cases(count: int):
    """Generated (g1, g2, mapping, direction) cases, valid and invalid.

    Mappings are partial injections, as dicts or as ``BnodeMapping``s
    with a cost and method; some send a bnode to an image absent from g2
    named like a fresh ``u_`` label; some are rejected: a foreign domain
    term, a non-bnode, a repeated image or an unknown direction.
    """
    rng = random.Random(15)
    for seed in range(count):
        flat = seed % 2
        pair = small_pair(1500 + seed, bnodes=seed % 9 if flat else 2 + seed % 7,
                          connectivity=0.0 if flat else 0.5, mutations=seed % 5)
        g1, g2 = (pair.g1, pair.g2) if seed % 3 else (pair.g2, pair.g1)
        left = sorted(g1.bnodes(), key=lambda t: t.sort_key())
        right = sorted(g2.bnodes(), key=lambda t: t.sort_key())
        k = rng.randint(0, min(len(left), len(right)))
        pairs = dict(zip(rng.sample(left, k), rng.sample(right, k)))
        kind = seed % 8
        free = [b for b in left if b not in pairs]
        if kind == 1 and free:
            # an image absent from g2 that a fresh label would take
            names = [b.value for b in left + right]
            image = bnode("u_" + rng.choice(names))
            if image not in g2.bnodes() and image not in pairs.values():
                pairs[rng.choice(free)] = image
        elif kind == 2 and rng.random() < 0.5:
            pairs[bnode("zz_foreign")] = bnode("zz_image")
        elif kind == 3 and pairs:
            src = next(iter(pairs))
            pairs[src] = iri("http://example.org/not-a-bnode")
        elif kind == 4 and pairs and free:
            pairs[rng.choice(free)] = next(iter(pairs.values()))
        mapping = pairs
        if not pairs and seed % 4 == 2:
            mapping = None
        elif seed % 3 == 0 and kind not in (3, 4):
            mapping = BnodeMapping(pairs, cost=seed, method="generated")
        direction = "sideways" if seed % 37 == 5 else rng.choice((TARGET_LABELS, SOURCE_LABELS))
        yield g1, g2, mapping, direction


def _outcome(build, g1, g2, mapping, direction):
    try:
        script = build(g1, g2, mapping, direction)
    except ValueError:
        return "rejected"
    return (format_delta(script), script.direction, script.mapping_used.cost,
            script.mapping_used.method)


def test_one_builder_matches_the_replaced_two_branch_builder():
    rejected = collisions = 0
    directions = {TARGET_LABELS: 0, SOURCE_LABELS: 0}
    for g1, g2, mapping, direction in _delta_cases(400):
        new = _outcome(mapped_delta, g1, g2, mapping, direction)
        assert new == _outcome(_reference_mapped_delta, g1, g2, mapping, direction)
        if new == "rejected":
            rejected += 1
            continue
        directions[direction] += 1
        images = _as_dict(mapping).values()
        collisions += any(b not in g2.bnodes() and b.value.startswith("u_") for b in images)
    assert rejected >= 60 and collisions >= 20
    assert min(directions.values()) >= 120


# -- renames on triple sets: the replaced Graph-building paths ---------------


def _reference_target_delta(g1, g2, mapping):
    """``_target_delta`` as it was, renaming g1 through ``rename_graph``."""
    used = {b.value for b in g1.bnodes() | g2.bnodes()}
    used.update(b.value for pair in mapping.pairs.items() for b in pair)
    renaming = dict(mapping.pairs)
    for b1 in sorted(g1.bnodes() - set(renaming), key=Term.sort_key):
        renaming[b1] = bnode(_fresh_label(b1.value, used))
    g1m = rename_graph(g1, Renaming(renaming))
    return DeltaScript(
        additions=g2.triples - g1m.triples,
        deletions=g1m.triples - g2.triples,
        mapping_used=BnodeMapping(renaming, cost=mapping.cost, method=mapping.method),
        direction=TARGET_LABELS,
    )


def _reference_apply_delta(g, script):
    """``apply_delta`` as it was, renaming a target-labels base through ``rename_graph``."""
    base = g
    if script.direction == TARGET_LABELS and script.mapping_used is not None:
        base = rename_graph(g, Renaming(dict(script.mapping_used.pairs)))
    warnings = [
        f"delete of absent triple: {render_triple(t)}"
        for t in sorted(script.deletions - base.triples, key=Triple.sort_key)
    ]
    result = (base.triples - script.deletions) | script.additions
    return Graph(result, g.graph_id), warnings


def _script_fields(script):
    return (script.additions, script.deletions, script.direction,
            script.mapping_used and (script.mapping_used.pairs, script.mapping_used.cost,
                                     script.mapping_used.method))


def _injections(g1, g2, rng):
    """The matcher's mapping, a part of it that leaves bnodes to fresh labels, and none."""
    full = match_bnodes(g1, g2)
    pairs = sorted(full.pairs.items(), key=lambda p: p[0].sort_key())
    part = dict(rng.sample(pairs, len(pairs) // 2))
    return [full, BnodeMapping(part, cost=7, method="part"), BnodeMapping({})]


def _renaming_cases():
    """(g1, g2, mapping) over the 20 ordered fixture pairs, generated pairs and
    hand-made cases: an image that collides with a bnode left unmapped, and
    the simultaneous ``{a: b, b: c}``."""
    from conftest import FIXTURES
    from bnodematch import load_graph

    rng = random.Random(23)
    fixtures = [load_graph(str(FIXTURES / f"{name}.nt"), name)
                for name in ("g1", "g2", "g2_no_birthday", "g3", "g4")]
    for g1, g2 in itertools.permutations(fixtures, 2):
        for mapping in _injections(g1, g2, rng):
            yield g1, g2, mapping
    for seed in range(60):
        pair = small_pair(2300 + seed, bnodes=2 + seed % 9,
                          connectivity=0.0 if seed % 2 else 0.5, mutations=seed % 4)
        for g1, g2 in ((pair.g1, pair.g2), (pair.g2, pair.g1)):
            for mapping in _injections(g1, g2, rng):
                yield g1, g2, mapping
    a, b, c = bnode("a"), bnode("b"), bnode("c")
    p, o = iri("http://x/p"), iri("http://x/o")
    chain = Graph([Triple(a, p, b), Triple(b, p, o)])
    yield chain, Graph([Triple(b, p, c), Triple(c, p, o)]), BnodeMapping({a: b, b: c})
    yield chain, Graph([Triple(b, p, c), Triple(b, p, o)]), BnodeMapping({a: b, b: c})
    yield chain, chain, BnodeMapping({a: b})


def _apply_both_ways(g, script):
    """Whether ``apply_delta`` warned, after checking it against the reference."""
    got, warnings = apply_delta(g, script)
    want, want_warnings = _reference_apply_delta(g, script)
    assert type(got) is Graph
    assert (got.triples, got.graph_id, warnings) == (want.triples, want.graph_id, want_warnings)
    return bool(warnings)


def test_target_deltas_and_patches_equal_the_rename_graph_paths():
    fresh = warned = 0
    cases = list(_renaming_cases())
    for g1, g2, mapping in cases:
        script = _target_delta(g1, g2, mapping)
        expected = _reference_target_delta(g1, g2, mapping)
        assert _script_fields(script) == _script_fields(expected)
        assert format_delta(script) == format_delta(expected)
        fresh += len(script.mapping_used.pairs) > len(mapping.pairs)
        # the script, its reverse and its file read back, each on both graphs
        for script in (script, reverse_delta(script), parse_delta(format_delta(script))):
            warned += sum(_apply_both_ways(g, script) for g in (g1, g2))
    assert len(cases) >= 300 and fresh >= 100 and warned >= 100


def test_patches_whose_renaming_collapses_triples_equal_the_rename_graph_path():
    # A loaded script's mapping need not cover the graph it is applied to,
    # so an image can meet a bnode already there and two triples become one.
    a, b, c = bnode("a"), bnode("b"), bnode("c")
    p, o = iri("http://x/p"), iri("http://x/o")
    twins = Graph([Triple(a, p, o), Triple(b, p, o), Triple(c, p, a)], "twins")
    scripts = [
        DeltaScript({Triple(b, p, b)}, {Triple(a, p, o)}, BnodeMapping({a: b})),
        DeltaScript(set(), {Triple(c, p, b)}, BnodeMapping({a: b})),
        DeltaScript({Triple(c, p, c)}, {Triple(b, p, o)}, BnodeMapping({a: b, b: c})),
        DeltaScript(set(), set(), BnodeMapping({a: b, c: a})),
    ]
    collapsed = 0
    for script in scripts:  # the third renames simultaneously: a to b, b to c
        collapsed += len(rename_graph(twins, Renaming(dict(script.mapping_used.pairs)))) < 3
        _apply_both_ways(twins, script)
        _apply_both_ways(twins, parse_delta(format_delta(script)))
    assert collapsed == 3

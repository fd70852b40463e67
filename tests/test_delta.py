"""Plain and mapping-aware deltas, patch application, delta files."""

from __future__ import annotations

import random

import pytest

from bnodematch import (
    Graph,
    Renaming,
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
    format_delta,
    parse_delta,
)
from bnodematch.ntriples import ParseError
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

    def test_bad_lines_are_rejected(self):
        with pytest.raises(ValueError):
            parse_delta("X something .\n")
        with pytest.raises(ValueError):
            parse_delta("M only-one-label\n")

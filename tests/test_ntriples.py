"""N-Triples parser and deterministic serializer."""

from __future__ import annotations

from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from bnodematch import Graph, Triple, bnode, iri, literal, parse_ntriples, serialize_ntriples
from bnodematch.ntriples import LABEL_RE, ParseError, parse_triple_line, render_triple

FIXTURES = Path(__file__).parent / "fixtures"


def test_single_ground_triple():
    report = parse_ntriples('<http://a> <http://p> "x" .')
    assert len(report.graph) == 1
    assert report.bnode_labels == set()
    assert report.graph.bnodes() == frozenset()


def test_bnode_self_loop():
    report = parse_ntriples("_:1 <http://p> _:1 .")
    assert len(report.graph) == 1
    assert report.bnode_labels == {"1"}


def test_running_example_fixture_counts():
    text = (FIXTURES / "g1.nt").read_text()
    report = parse_ntriples(text)
    # hand count: six statements, a single address bnode
    assert len(report.graph) == 6
    assert report.bnode_labels == {"1"}
    assert report.line_count >= len(report.graph)


def test_comments_and_blank_lines_are_skipped():
    report = parse_ntriples("# header\n\n<http://a> <http://p> <http://b> .\n  # indented\n")
    assert len(report.graph) == 1
    assert report.warnings == []


def test_duplicate_lines_collapse_with_warning():
    line = "<http://a> <http://p> <http://b> ."
    report = parse_ntriples(f"{line}\n{line}\n")
    assert len(report.graph) == 1
    assert len(report.warnings) == 1
    assert report.warnings[0][0] == 2


@pytest.mark.parametrize(
    "bad",
    [
        "<http://a <http://p> <http://b> .",  # malformed IRI
        '<http://a> <http://p> "unterminated .',
        '"lit" <http://p> <http://b> .',  # literal in subject
        "<http://a> _:b <http://b> .",  # bnode in predicate
        '<http://a> "lit" <http://b> .',
        "<http://a> <http://p> <http://b>",  # missing dot
        "<http://a> <http://p> .",  # missing object
        "<http://a> <http://p> <http://b> . trailing",
        "<http://a> <http://sp ace> <http://b> .",
    ],
)
def test_syntax_errors_carry_line_numbers(bad):
    with pytest.raises(ParseError) as err:
        parse_ntriples("<http://a> <http://p> <http://b> .\n" + bad)
    assert err.value.line_no == 2


def test_literal_escapes_and_tags():
    t = parse_triple_line('<http://a> <http://p> "a\\"b\\\\c\\nd\\te" .')
    assert t.o.value == 'a"b\\c\nd\te'
    typed = parse_triple_line('<http://a> <http://p> "5"^^<http://int> .')
    assert typed.o.datatype == "http://int"
    tagged = parse_triple_line('<http://a> <http://p> "hi"@en-GB .')
    assert tagged.o.langtag == "en-GB"
    unicode_esc = parse_triple_line('<http://a> <http://p> "\\u00e9\\U0001F600" .')
    assert unicode_esc.o.value == "é\U0001F600"


def test_serialize_empty_graph_is_empty_string():
    assert serialize_ntriples(Graph()) == ""


def test_serializer_is_sorted_and_stable():
    g = parse_ntriples((FIXTURES / "g2.nt").read_text()).graph
    out1 = serialize_ntriples(g)
    out2 = serialize_ntriples(Graph(sorted(g, key=Triple.sort_key)))
    assert out1 == out2
    assert out1.splitlines() == sorted(out1.splitlines())


def test_g2_golden_file_is_byte_identical():
    g = parse_ntriples((FIXTURES / "g2.nt").read_text()).graph
    golden = (FIXTURES / "golden" / "g2.golden.nt").read_text()
    assert serialize_ntriples(g) == golden


@pytest.mark.parametrize("name", ["g1.nt", "g2.nt", "g2_no_birthday.nt", "g3.nt", "g4.nt"])
def test_round_trip_is_a_fixed_point_on_fixtures(name):
    g = parse_ntriples((FIXTURES / name).read_text()).graph
    once = serialize_ntriples(g)
    again = serialize_ntriples(parse_ntriples(once).graph)
    assert once == again
    assert parse_ntriples(once).graph == g


# -- property: parse(serialize(G)) == G --------------------------------------

_iris = st.sampled_from([iri(f"http://x/{c}") for c in "abcd"])
_lits = st.builds(
    literal,
    st.text(
        alphabet=st.characters(blacklist_categories=("Cs",), max_codepoint=0x2FF),
        max_size=6,
    ),
    st.sampled_from([None, "http://dt"]),
    st.none(),
)
_lits_tagged = st.builds(literal, st.text(max_size=4).map(lambda s: s or "v"),
                         st.none(), st.sampled_from([None, "en", "en-GB"]))
_bnodes = st.builds(bnode, st.sampled_from(["b1", "b2", "x"]))
_subjects = st.one_of(_iris, _bnodes)
_objects = st.one_of(_iris, _bnodes, _lits, _lits_tagged)
_graphs = st.builds(Graph, st.sets(st.builds(Triple, _subjects, _iris, _objects), max_size=10))


@given(_graphs)
def test_round_trip_preserves_any_graph(g):
    assert parse_ntriples(serialize_ntriples(g)).graph == g


@given(st.sets(st.builds(Triple, _subjects, _iris, _objects), max_size=8))
def test_rendered_triple_reparses(triples):
    for t in triples:
        assert parse_triple_line(render_triple(t)) == t


# -- N-Triples 1.1 blank node labels -----------------------------------------

# BLANK_NODE_LABEL: a letter, "_", ":" or digit first; then "-", ".", "·",
# combining marks and non-ASCII letters too, but never a final ".".
_FIRST = "aZ_:07é\u00c0\u0370\u3001\U00010000"
_INNER = _FIRST + "-.\u00b7\u0301\u203f"
_LAST = _FIRST + "-\u00b7\u0301\u203f"
_wide_labels = st.one_of(
    st.sampled_from(_FIRST),
    st.builds(lambda a, mid, z: a + mid + z, st.sampled_from(_FIRST),
              st.text(alphabet=_INNER, max_size=4), st.sampled_from(_LAST)),
)
_wide_bnodes = st.builds(bnode, _wide_labels)


@pytest.mark.parametrize("label", ["genid-1", "b.1", "1", "b..1", "a\u00b7b", "x\u0301", "n\u00e9", "a:b"])
def test_n_triples_1_1_labels_parse(label):
    t = parse_triple_line(f"_:{label} <http://x/p> _:{label}.")
    assert t.s == bnode(label) and t.o == bnode(label)


@pytest.mark.parametrize("label", ["-a", ".a", "a b", "\u00b7a"])
def test_labels_outside_the_production_are_rejected(label):
    with pytest.raises(ParseError):
        parse_triple_line(f"_:{label} <http://x/p> <http://x/o> .")


def test_a_final_dot_is_the_terminator():
    t = parse_triple_line("_:b.1 <http://x/p> _:b1.")
    assert (t.s, t.o) == (bnode("b.1"), bnode("b1"))


@given(st.sets(st.builds(Triple, st.one_of(_iris, _wide_bnodes), _iris,
                         st.one_of(_iris, _wide_bnodes, _lits)), max_size=8))
def test_round_trip_with_n_triples_1_1_labels(triples):
    g = Graph(triples)
    text = serialize_ntriples(g)
    again = parse_ntriples(text).graph
    assert again == g
    assert serialize_ntriples(again) == text
    for b in g.bnodes():
        assert LABEL_RE.fullmatch(b.value)
        # no space before the terminator either
        assert parse_triple_line(f"_:{b.value} <http://x/p> _:{b.value}.").o == b

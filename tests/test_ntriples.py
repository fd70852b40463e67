"""N-Triples parser and deterministic serializer."""

from __future__ import annotations

import random
import re
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from bnodematch import (
    Graph, Triple, bnode, iri, literal, load_graph, parse_ntriples, serialize_ntriples,
)
from bnodematch.model import BNODE, LITERAL, Term
from bnodematch.ntriples import (
    _TERM_RE,
    LABEL_RE,
    LANGTAG_RE,
    ParseError,
    decode_utf8,
    parse_triple_line,
    render_triple,
    split_lines,
)

FIXTURES = Path(__file__).parent / "fixtures"


@pytest.mark.parametrize("text, lines", [
    ("", [""]),
    ("a\nb\n", ["a", "b", ""]),
    ("a\rb\r", ["a", "b", ""]),
    ("a\r\nb\r\n", ["a", "b", ""]),
    ("a\r\n\rb\n\r\nc", ["a", "", "b", "", "c"]),
    ("a\n\rb", ["a", "", "b"]),
    ("a\x0bb\x0cc\x1cd\x85e\u2028f\u2029g", ["a\x0bb\x0cc\x1cd\x85e\u2028f\u2029g"]),
], ids=["empty", "lf", "cr", "crlf", "mixed", "lf-then-cr", "other-breaks"])
def test_lf_crlf_and_cr_each_end_one_line(text, lines):
    assert split_lines(text) == lines


def test_a_string_document_ends_lines_at_cr_as_a_file_does(tmp_path):
    text = '<http://a> <http://p> "x" .\r\n\r<http://a> <http://p> "y" .\r<http://a> <http://p> z .'
    path = tmp_path / "cr.nt"
    path.write_bytes(text.encode())
    for read in (lambda: parse_ntriples(text), lambda: load_graph(str(path))):
        with pytest.raises(ParseError) as err:
            read()
        assert err.value.line_no == 4  # CR LF is one line end
    fixed = text.replace(" z .", ' "z" .')
    path.write_bytes(fixed.encode())
    assert parse_ntriples(fixed).graph == load_graph(str(path))
    assert len(parse_ntriples(fixed).graph) == 3


def test_a_byte_that_is_not_utf8_is_counted_on_lines_of_any_end():
    for data in (b'<a> <p> "x" .\r\n\r"\xff"', b'<a> <p> "x" .\n\n"\xff"', b'.\r.\r"\xff"'):
        with pytest.raises(ParseError) as err:
            decode_utf8(data)
        assert err.value.line_no == 3


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
    # the code points on either side of the surrogates
    edges = parse_triple_line('<http://a> <http://p> "\\uD7FF\\uE000\\U0000D7FF" .')
    assert edges.o.value == "\uD7FF\uE000\uD7FF"


@pytest.mark.parametrize("escape", ["\\uD800", "\\udfff", "\\U0000D800", "\\U0000dbff"])
def test_surrogate_escapes_are_rejected_with_their_line(escape):
    with pytest.raises(ParseError, match="surrogate") as err:
        parse_ntriples(f'<http://a> <http://p> "x" .\n<http://a> <http://p> "a{escape}b" .')
    assert err.value.line_no == 2


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
        alphabet=st.characters(blacklist_categories=("Cs",)),
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


# The spec's classes as the spec lists them: the reference for the negated
# classes that LABEL_RE is written with.
_SPEC_PN_CHARS_U = (
    "A-Za-z\u00C0-\u00D6\u00D8-\u00F6\u00F8-\u02FF\u0370-\u037D\u037F-\u1FFF"
    "\u200C-\u200D\u2070-\u218F\u2C00-\u2FEF\u3001-\uD7FF\uF900-\uFDCF"
    "\uFDF0-\uFFFD\U00010000-\U000EFFFF_:"
)
_SPEC_PN_CHARS = _SPEC_PN_CHARS_U + "\\-0-9\u00B7\u0300-\u036F\u203F-\u2040"
_SPEC_LABEL_RE = re.compile(
    f"[{_SPEC_PN_CHARS_U}0-9](?:[{_SPEC_PN_CHARS}.]*[{_SPEC_PN_CHARS}])?"
)


@pytest.mark.parametrize("before, after", [("", ""), ("", "b"), ("a", "b"), ("a", "")],
                         ids=["alone", "first", "middle", "last"])
def test_every_code_point_gets_the_spec_label_match(before, after):
    for block in range(0, sys.maxunicode + 1, 0x10000):
        points = range(block, block + 0x10000)
        labels = [before + chr(cp) + after for cp in points]
        expected = [m and m[0] for m in map(_SPEC_LABEL_RE.match, labels)]
        matched = [m and m[0] for m in map(LABEL_RE.match, labels)]
        parsed = [m and m[2] for m in map(_TERM_RE.match, ["_:" + label for label in labels])]
        for got in (matched, parsed):
            assert got == expected, next(
                f"U+{cp:04X}" for cp, g, e in zip(points, got, expected) if g != e)


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


# -- differential: the per-character scanner the term pattern replaced ------
#
# A verbatim copy of the previous parser, kept as the reference.

_ESCAPES = {"t": "\t", "n": "\n", "r": "\r", '"': '"', "\\": "\\"}


def _parse_iri(line: str, pos: int, line_no: int) -> tuple[Term, int]:
    end = line.find(">", pos + 1)
    if end < 0:
        raise ParseError(line_no, "malformed IRI: missing closing '>'")
    value = line[pos + 1 : end]
    if not value or any(c in value for c in ' <>"{}|^`') or any(ord(c) <= 0x20 for c in value):
        raise ParseError(line_no, f"malformed IRI: <{value}>")
    return iri(value), end + 1


def _parse_bnode(line: str, pos: int, line_no: int) -> tuple[Term, int]:
    m = LABEL_RE.match(line, pos + 2)
    if not m:
        raise ParseError(line_no, "malformed blank node label")
    return bnode(m.group(0)), m.end()


def _parse_literal(line: str, pos: int, line_no: int) -> tuple[Term, int]:
    chars: list[str] = []
    i = pos + 1
    n = len(line)
    while True:
        if i >= n:
            raise ParseError(line_no, "unterminated literal")
        c = line[i]
        if c == '"':
            i += 1
            break
        if c == "\\":
            if i + 1 >= n:
                raise ParseError(line_no, "unterminated literal escape")
            e = line[i + 1]
            if e in _ESCAPES:
                chars.append(_ESCAPES[e])
                i += 2
            elif e in "uU":
                width = 4 if e == "u" else 8
                hexpart = line[i + 2 : i + 2 + width]
                if len(hexpart) != width or not all(c in "0123456789abcdefABCDEF" for c in hexpart):
                    raise ParseError(line_no, f"bad \\{e} escape in literal")
                chars.append(chr(int(hexpart, 16)))
                i += 2 + width
            else:
                raise ParseError(line_no, f"unknown escape '\\{e}' in literal")
        else:
            chars.append(c)
            i += 1
    value = "".join(chars)
    if line.startswith("^^", i):
        if i + 2 >= n or line[i + 2] != "<":
            raise ParseError(line_no, "datatype must be an IRI")
        dt, i = _parse_iri(line, i + 2, line_no)
        return literal(value, datatype=dt.value), i
    if i < n and line[i] == "@":
        m = LANGTAG_RE.match(line, i + 1)
        if not m:
            raise ParseError(line_no, "malformed language tag")
        return literal(value, langtag=m.group(0)), m.end()
    return literal(value), i


def _parse_term(line: str, pos: int, line_no: int) -> tuple[Term, int]:
    c = line[pos]
    if c == "<":
        return _parse_iri(line, pos, line_no)
    if c == "_" and line.startswith("_:", pos):
        return _parse_bnode(line, pos, line_no)
    if c == '"':
        return _parse_literal(line, pos, line_no)
    raise ParseError(line_no, f"unexpected character {c!r}")


def _skip_ws(line: str, pos: int) -> int:
    while pos < len(line) and line[pos] in " \t":
        pos += 1
    return pos


def _reference_parse_triple_line(line: str, line_no: int = 1) -> Triple:
    pos = _skip_ws(line, 0)
    subject, pos = _parse_term(line, pos, line_no)
    if subject.kind == LITERAL:
        raise ParseError(line_no, "literal not allowed in subject position")
    pos = _skip_ws(line, pos)
    if pos >= len(line):
        raise ParseError(line_no, "truncated triple: missing predicate")
    predicate, pos = _parse_term(line, pos, line_no)
    if predicate.kind == BNODE:
        raise ParseError(line_no, "blank node not allowed in predicate position")
    if predicate.kind == LITERAL:
        raise ParseError(line_no, "literal not allowed in predicate position")
    pos = _skip_ws(line, pos)
    if pos >= len(line):
        raise ParseError(line_no, "truncated triple: missing object")
    obj, pos = _parse_term(line, pos, line_no)
    pos = _skip_ws(line, pos)
    if pos >= len(line) or line[pos] != ".":
        raise ParseError(line_no, "missing terminating '.'")
    trailer = line[pos + 1 :].strip()
    if trailer and not trailer.startswith("#"):
        raise ParseError(line_no, f"unexpected content after '.': {trailer!r}")
    return Triple(subject, predicate, obj)


# Atoms in pairs of lists: accepted by both parsers, and not accepted.
_WS = ["", "", " ", "\t", "  ", " \t"]
_IRIS = (["<http://a>", "<a>", "<http://x/é>", "<a\\b>", "<a\x7fb>"],
         ["<>", "<http://a", "a>"] + [f"<a{c}b>" for c in ' <"{}|^`\x00\x1f\n\x0b'])
_BNODES = (["_:b1", "_:b.1", "_:1", "_:a:b", "_:é", "_:a\u00b7", "_:genid-1", "_:a\u0301"],
           ["_:-a", "_:.a", "_:", "_x", "_:\u00b7a"])
_LEXICALS = (["a", " ", "é", "\n", "\x0b", "\r", "\ud800", ".", "#", "<a>", "@", "^^",
              "\\t", "\\n", "\\r", '\\"', "\\\\", "\\u00e9", "\\u00E9",
              "\\U0001F600", "\\U0010FFFF"],
             ["\\b", "\\f", "\\'", "\\x", "\\u12", "\\u12g4", "\\U0001F60",
              "\\U00110000", "\\UFFFFFFFF", "\\"])
_SUFFIXES = (["", "", "", "^^<http://dt>", "@en", "@en-GB", "@en-GB-x1"],
             ["^^d", "^^<bad", "^^", "@en-", "@1", "@", "@en@de", '"'])
_ENDS = ([".", " .", "\t.", ". # c", ".#c", " . \x0b", ".\r", ". \r", ".\n",
          ". \u00a0", ". \u2028#", " .\t# a\nb", ". #"],
         ["", "..", ". x", "\r.", "\x0b.", ". \u00a0x", "#"])


def _pick(rng, atoms, valid=0.9):
    return rng.choice(atoms[rng.random() >= valid])


def _term_atom(rng, kinds):
    kind = rng.choice(kinds)
    if kind == "literal":
        body = "".join(_pick(rng, _LEXICALS, 0.95) for _ in range(rng.randrange(4)))
        return f'"{body}"{_pick(rng, _SUFFIXES)}' if rng.random() < 0.95 else f'"{body}'
    return _pick(rng, _IRIS if kind == "iri" else _BNODES)


def _random_line(rng):
    if rng.random() < 0.01:
        return "".join(rng.choice(" \t") for _ in range(rng.randrange(3)))
    any_kind = ("iri", "bnode", "literal")
    roles = [("iri", "bnode"), ("iri",), any_kind]
    if rng.random() < 0.1:
        roles[rng.randrange(2)] = any_kind
    parts = [rng.choice(_WS)]
    for kinds in roles:
        parts += [_term_atom(rng, kinds), rng.choice(_WS)]
    return "".join(parts) + _pick(rng, _ENDS)


def _outcome(parse, line):
    try:
        return parse(line, 7)
    except ParseError as err:
        assert err.line_no == 7
        return ParseError
    except (IndexError, ValueError, OverflowError) as err:
        return type(err)


def test_term_pattern_agrees_with_the_replaced_scanner():
    rng = random.Random(20141031)
    accepted = 0
    for _ in range(100_000):
        line = _random_line(rng)
        old = _outcome(_reference_parse_triple_line, line)
        new = _outcome(parse_triple_line, line)
        if old is IndexError:
            # whitespace only: the old scanner indexed past the end
            assert not line.strip(" \t") and new is ParseError, repr(line)
        elif old in (ValueError, OverflowError):
            # \U beyond U+10FFFF: the old scanner let chr() raise
            assert "\\U" in line and new is ParseError, repr(line)
        else:
            assert new == old, repr(line)
            accepted += new is not ParseError
    assert 20_000 < accepted < 80_000


# -- no catastrophic backtracking on long malformed lines --------------------

@pytest.mark.parametrize(
    "line",
    [
        "_:" + "a." * 199_999 + "!",
        '<http://a> <http://p> "' + "\\" * 399_977,
        '<http://a> <http://p> "x"@' + "a-" * 199_987,
    ],
    ids=["label-dots", "backslashes", "langtag-dashes"],
)
def test_long_malformed_lines_fail_fast(line):
    assert len(line) >= 400_000
    start = time.perf_counter()
    with pytest.raises(ParseError):
        parse_triple_line(line)
    assert time.perf_counter() - start < 1.0

"""N-Triples parsing and deterministic serialization.

One line is one triple, which keeps diff and patch files trivially
line-diffable.  Blank-node labels are scoped to the document being parsed.
The serializer emits triples sorted lexicographically by the rendered
(subject, predicate, object) strings, so output is byte-stable for a given
triple set.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import IO, Iterable, Union

from .model import BNODE, IRI, LITERAL, Graph, Term, Triple, bnode, iri, literal

# BLANK_NODE_LABEL of N-Triples 1.1, without the "_:" prefix.  The label
# may not end in ".", so "_:b1." is the label "b1" and the terminator.
_PN_CHARS_U = (
    "A-Za-z\u00C0-\u00D6\u00D8-\u00F6\u00F8-\u02FF\u0370-\u037D\u037F-\u1FFF"
    "\u200C-\u200D\u2070-\u218F\u2C00-\u2FEF\u3001-\uD7FF\uF900-\uFDCF"
    "\uFDF0-\uFFFD\U00010000-\U000EFFFF_:"
)
_PN_CHARS = _PN_CHARS_U + "\\-0-9\u00B7\u0300-\u036F\u203F-\u2040"
LABEL_RE = re.compile(f"[{_PN_CHARS_U}0-9](?:[{_PN_CHARS}.]*[{_PN_CHARS}])?")
LANGTAG_RE = re.compile(r"[a-zA-Z]+(?:-[a-zA-Z0-9]+)*")

_ESCAPES = {"t": "\t", "n": "\n", "r": "\r", '"': '"', "\\": "\\"}
_UNESCAPES = {"\t": "\\t", "\n": "\\n", "\r": "\\r", '"': '\\"', "\\": "\\\\"}


class ParseError(ValueError):
    """Syntax error in an N-Triples document, with the offending line number."""

    def __init__(self, line_no: int, message: str) -> None:
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


@dataclass
class ParseReport:
    """Result of parsing one document."""

    graph: Graph
    line_count: int
    bnode_labels: set[str] = field(default_factory=set)
    warnings: list[tuple[int, str]] = field(default_factory=list)


def escape_literal(text: str) -> str:
    return "".join(_UNESCAPES.get(c, c) for c in text)


def render_term(term: Term) -> str:
    if term.kind == IRI:
        return f"<{term.value}>"
    if term.kind == BNODE:
        return f"_:{term.value}"
    rendered = f'"{escape_literal(term.value)}"'
    if term.datatype:
        rendered += f"^^<{term.datatype}>"
    elif term.langtag:
        rendered += f"@{term.langtag}"
    return rendered


def render_triple(t: Triple) -> str:
    return f"{render_term(t.s)} {render_term(t.p)} {render_term(t.o)} ."


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


def parse_triple_line(line: str, line_no: int = 1) -> Triple:
    """Parse a single ``<s> <p> <o> .`` line into a Triple."""
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


def parse_ntriples(source: Union[str, IO[str], Iterable[str]], graph_id: str = "") -> ParseReport:
    """Parse an N-Triples document from a string or line stream.

    Duplicate triples collapse to one with a warning; blank and comment
    lines are skipped.  Raises :class:`ParseError` on malformed input.
    """
    if isinstance(source, str):
        # split on newlines only: other vertical whitespace may occur
        # unescaped inside literals
        lines: Iterable[str] = source.split("\n")
    else:
        lines = source
    triples: set[Triple] = set()
    labels: set[str] = set()
    warnings: list[tuple[int, str]] = []
    line_count = 0
    for line_no, raw in enumerate(lines, start=1):
        line_count = line_no
        line = raw.rstrip("\r\n")
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        t = parse_triple_line(line, line_no)
        if t in triples:
            warnings.append((line_no, f"duplicate triple: {render_triple(t)}"))
        triples.add(t)
        for term in (t.s, t.o):
            if term.kind == BNODE:
                labels.add(term.value)
    return ParseReport(Graph(triples, graph_id), line_count, labels, warnings)


def serialize_ntriples(g: Graph) -> str:
    """Render a graph, one sorted triple per line; the empty graph is ''."""
    lines = sorted(
        (render_term(t.s), render_term(t.p), render_term(t.o)) for t in g
    )
    return "".join(f"{s} {p} {o} .\n" for s, p, o in lines)


def load_graph(path: str, graph_id: str = "") -> Graph:
    """Parse the N-Triples file at ``path``."""
    with open(path, "r", encoding="utf-8") as fh:
        return parse_ntriples(fh, graph_id or path).graph


def save_graph(g: Graph, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(serialize_ntriples(g))

r"""N-Triples parsing and deterministic serialization.

One line is one triple, which keeps diff and patch files trivially
line-diffable.  Blank-node labels are scoped to the document being parsed.
The serializer emits triples sorted lexicographically by the rendered
(subject, predicate, object) strings, so output is byte-stable for a given
triple set.

The accepted grammar, line by line (RDF 1.1 N-Triples, with these limits):

- a document read from a file or stdin is UTF-8; the first byte that is
  not raises a ``ParseError`` naming its line;
- LF, CR LF or CR ends a line, whatever the document is read from;
- a line is ``subject predicate object .``; spaces and tabs between the
  terms and before the ``.`` are optional, and after the ``.`` only
  whitespace or a ``#`` comment may follow;
- the subject is an IRI or a blank node, the predicate an IRI, the object
  any term;
- an IRI ``<...>`` is taken verbatim, without UCHAR decoding, and may not
  hold space, control characters or any of ``<>"{}|^```;
- a blank node is ``_:`` and a BLANK_NODE_LABEL (see ``LABEL_RE``);
- a literal is ``"..."`` with the escapes ``\t \n \r \" \\ \uXXXX
  \UXXXXXXXX`` (code points up to U+10FFFF, surrogates excluded) and no
  others, followed by an optional ``^^<datatype IRI>`` or ``@language-tag``.
"""

from __future__ import annotations

import contextlib
import re
import sys
from dataclasses import dataclass, field
from typing import IO, Iterable, Iterator, Union

from .model import BNODE, IRI, LITERAL, Graph, Term, Triple, bnode, iri, literal

# BLANK_NODE_LABEL of N-Triples 1.1, without the "_:" prefix.  The label
# may not end in ".", so "_:b1." is the label "b1" and the terminator.
# Each item is one character or a range "x-y".
_PN_CHARS_U = (
    "A-Z", "a-z", "\u00C0-\u00D6", "\u00D8-\u00F6", "\u00F8-\u02FF", "\u0370-\u037D",
    "\u037F-\u1FFF", "\u200C-\u200D", "\u2070-\u218F", "\u2C00-\u2FEF", "\u3001-\uD7FF",
    "\uF900-\uFDCF", "\uFDF0-\uFFFD", "\U00010000-\U000EFFFF", "_", ":",
)
_PN_CHARS = _PN_CHARS_U + ("-", "0-9", "\u00B7", "\u0300-\u036F", "\u203F-\u2040")


def _char_class(items: tuple[str, ...]) -> str:
    """A regex class of the characters ``items`` lists, written as ``[^gaps]``.

    sre's compile time grows with the number of code points a class lists:
    it sets one byte per listed BMP code point.  The label classes list about
    55 000 each and the gaps between their ranges about 10 000, so the
    negated form compiles about three times faster and matches the same.
    """
    gaps, start = [], 0
    for lo, hi in sorted((ord(item[0]), ord(item[-1])) for item in items):
        if lo > start:
            gaps.append(f"\\U{start:08X}-\\U{lo - 1:08X}")
        start = max(start, hi + 1)
    if start <= sys.maxunicode:
        gaps.append(f"\\U{start:08X}-\\U{sys.maxunicode:08X}")
    return f"[^{''.join(gaps)}]"


LABEL_RE = re.compile(
    _char_class(_PN_CHARS_U + ("0-9",))
    + f"(?:{_char_class(_PN_CHARS + ('.',))}*{_char_class(_PN_CHARS)})?"
)
LANGTAG_RE = re.compile(r"[a-zA-Z]+(?:-[a-zA-Z0-9]+)*")

_ESCAPES = {"t": "\t", "n": "\n", "r": "\r", '"': '"', "\\": "\\"}
_UNESCAPES = {"\t": "\\t", "\n": "\\n", "\r": "\\r", '"': '\\"', "\\": "\\\\"}

# One term with its leading whitespace.  Groups: IRI, bnode label, literal
# lexical form (escapes still in), datatype IRI, language tag.
_IRI = r'<([^\x00-\x20<>"{}|^`]+)>'
_TERM_RE = re.compile(
    rf"[ \t]*(?:{_IRI}|_:({LABEL_RE.pattern})"
    r'|"([^"\\]*(?:\\(?:[tnr"\\]|u[0-9A-Fa-f]{4}|U(?:000[0-9A-Fa-f]|0010)[0-9A-Fa-f]{4})[^"\\]*)*)"'
    rf"(?:\^\^{_IRI}|@({LANGTAG_RE.pattern}))?)"
)
_END_RE = re.compile(r"[ \t]*\.\s*(?:#.*)?", re.DOTALL)
_ESCAPE_RE = re.compile(r"\\(?:u(.{4})|U(.{8})|(.))")


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


def _unescape(m: re.Match, line_no: int) -> str:
    if m[3]:
        return _ESCAPES[m[3]]
    code = int(m[1] or m[2], 16)
    if 0xD800 <= code <= 0xDFFF:
        raise ParseError(line_no, f"escape {m[0]} names a surrogate, not a character")
    return chr(code)


def _term(line: str, pos: int, line_no: int, role: str) -> tuple[Term, int]:
    m = _TERM_RE.match(line, pos)
    if not m:
        raise ParseError(line_no, f"malformed {role} at column {pos + 1}")
    ref, label, lexical, datatype, langtag = m.groups()
    if ref is not None:
        return iri(ref), m.end()
    if label is not None:
        return bnode(label), m.end()
    if "\\" in lexical:
        lexical = _ESCAPE_RE.sub(lambda esc: _unescape(esc, line_no), lexical)
    return literal(lexical, datatype, langtag), m.end()


def parse_triple_line(line: str, line_no: int = 1) -> Triple:
    """Parse a single ``<s> <p> <o> .`` line into a Triple."""
    subject, pos = _term(line, 0, line_no, "subject")
    if subject.kind == LITERAL:
        raise ParseError(line_no, "literal not allowed in subject position")
    predicate, pos = _term(line, pos, line_no, "predicate")
    if predicate.kind != IRI:
        raise ParseError(line_no, "predicate must be an IRI")
    obj, pos = _term(line, pos, line_no, "object")
    if not _END_RE.fullmatch(line, pos):
        raise ParseError(line_no, f"expected '.' and end of line at column {pos + 1}")
    return Triple(subject, predicate, obj)


def parse_ntriples(source: Union[str, IO[str], Iterable[str]], graph_id: str = "") -> ParseReport:
    """Parse an N-Triples document from a string or line stream.

    Duplicate triples collapse to one with a warning; blank and comment
    lines are skipped.  Raises :class:`ParseError` on malformed input.
    """
    if isinstance(source, str):
        source = split_lines(source)
    triples, warnings, line_count = _parse_lines(source)
    graph = Graph(triples, graph_id)
    return ParseReport(graph, line_count, {b.value for b in graph.bnodes()}, warnings)


def split_lines(text: str) -> list[str]:
    """``text`` cut at each LF, CR LF or CR (an N-Triples 1.1 EOL), and at no other line break."""
    return text.replace("\r\n", "\n").replace("\r", "\n").split("\n")


def _parse_lines(lines: Iterable[str]) -> tuple[set[Triple], list[tuple[int, str]], int]:
    """The triples of N-Triples lines, the duplicate warnings and the line count."""
    triples: set[Triple] = set()
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
    return triples, warnings, line_count


def serialize_ntriples(g: Graph) -> str:
    """Render a graph, one sorted triple per line; the empty graph is ''."""
    lines = sorted(
        (render_term(t.s), render_term(t.p), render_term(t.o)) for t in g
    )
    return "".join(f"{s} {p} {o} .\n" for s, p, o in lines)


def decode_utf8(data: bytes) -> str:
    """``data`` as UTF-8 text; otherwise a ParseError naming the line of the first bad byte."""
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line_no = len(split_lines(data[: exc.start].decode("utf-8")))
        raise ParseError(line_no, f"not UTF-8 ({exc.reason} at byte {exc.start})") from None


@contextlib.contextmanager
def naming(path: str) -> Iterator[None]:
    """Start the message of a ParseError that leaves the block with ``path``, its document's name."""
    try:
        yield
    except ParseError as exc:
        exc.args = (f"{path}: {exc}",)
        raise


def read_utf8(path: str) -> str:
    """The file at ``path``, decoded strictly by ``decode_utf8``."""
    with open(path, "rb") as fh:
        return decode_utf8(fh.read())


def load_graph(path: str, graph_id: str = "") -> Graph:
    """Parse the N-Triples file at ``path``; a ParseError names ``path``."""
    with naming(path):
        return parse_ntriples(read_utf8(path), graph_id or path).graph


def save_graph(g: Graph, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(serialize_ntriples(g))

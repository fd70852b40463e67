"""Explicit add/delete deltas between graphs, with bnode-mapping support.

A delta can be expressed in the label scope of the target graph (new
bnodes keep their own labels; the old graph's triples are renamed into
them before differencing) or of the source graph (incoming bnodes are
renamed into the old labels, which is what a version store wants), and is
built and applied on triple sets.  Scripts embed the injection they were
computed with, so a patch file is self-contained.  The version store's
deltas are the exception: a source-labels script applies to the store's
head as it stands, so the store saves it without the injection.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

from . import ntriples
from .matcher import BnodeMapping, _as_dict, _read_pair
from .model import Graph, Renaming, Term, Triple, bnode, rename_triples

TARGET_LABELS = "target-labels"
SOURCE_LABELS = "source-labels"


@dataclass
class DeltaScript:
    """An ordered patch: deletions then additions, plus the mapping used."""

    additions: frozenset[Triple]
    deletions: frozenset[Triple]
    mapping_used: Optional[BnodeMapping] = None
    direction: str = TARGET_LABELS

    def __post_init__(self) -> None:
        self.additions = frozenset(self.additions)
        self.deletions = frozenset(self.deletions)
        if self.additions & self.deletions:
            raise ValueError("a triple cannot be both added and deleted")
        if self.direction not in (TARGET_LABELS, SOURCE_LABELS):
            raise ValueError(f"unknown direction: {self.direction!r}")

    @property
    def size(self) -> int:
        return len(self.additions) + len(self.deletions)

    def is_empty(self) -> bool:
        return not self.additions and not self.deletions


def plain_delta(g1: Graph, g2: Graph) -> DeltaScript:
    """Set-difference delta; bnode labels compare as raw text.

    Labels from different scopes never match unless the text coincides,
    which is exactly the blowup bnode matching exists to avoid.
    """
    return DeltaScript(
        additions=g2.triples - g1.triples,
        deletions=g1.triples - g2.triples,
        mapping_used=None,
        direction=TARGET_LABELS,
    )


def _fresh_label(base: str, used: set[str]) -> str:
    candidate = f"u_{base}"
    while candidate in used:
        candidate = "u" + candidate
    used.add(candidate)
    return candidate


def mapped_delta(
    g1: Graph,
    g2: Graph,
    mapping: Union[BnodeMapping, dict, None],
    direction: str = TARGET_LABELS,
) -> DeltaScript:
    """Delta after identifying bnodes through an injection.

    ``target-labels``: operations carry the new graph's labels; apply by
    renaming the old graph first.  ``source-labels``: operations carry the
    old graph's labels and apply directly to it; that script is the
    reverse of the target-labels script from g2 to g1 under the inverted
    mapping.  Partial mappings are allowed; unmapped bnodes on either side
    are treated as fresh and get collision-free substitute labels, so no
    source-scope label leaks into a target-labels script (and vice versa).
    """
    if direction not in (TARGET_LABELS, SOURCE_LABELS):
        raise ValueError(f"unknown direction: {direction!r}")
    if not isinstance(mapping, BnodeMapping):
        mapping = BnodeMapping(_as_dict(mapping))
    for src in mapping.pairs:
        if src not in g1.bnodes():
            raise ValueError(f"mapping domain term {src!r} is not a bnode of the source graph")
    if direction == TARGET_LABELS:
        return _target_delta(g1, g2, mapping)
    return reverse_delta(_target_delta(g2, g1, mapping.inverted()))


def _target_delta(g1: Graph, g2: Graph, mapping: BnodeMapping) -> DeltaScript:
    """g1 renamed into g2's labels, unmapped bnodes fresh, then differenced."""
    used = {b.value for b in g1.bnodes() | g2.bnodes()}
    used.update(b.value for pair in mapping.pairs.items() for b in pair)  # absent images too
    renaming = dict(mapping.pairs)
    for b1 in sorted(g1.bnodes() - set(renaming), key=Term.sort_key):
        renaming[b1] = bnode(_fresh_label(b1.value, used))
    g1m = rename_triples(g1.triples, Renaming(renaming))
    return DeltaScript(
        additions=g2.triples - g1m,
        deletions=g1m - g2.triples,
        mapping_used=BnodeMapping(renaming, cost=mapping.cost, method=mapping.method),
        direction=TARGET_LABELS,
    )


def apply_delta(g: Graph, script: DeltaScript) -> tuple[Graph, list[str]]:
    """Apply a script to a graph; deletions of absent triples only warn.

    Target-labels scripts rename the graph through the embedded mapping
    first; source-labels scripts expect a graph already in the script's
    source scope.
    """
    base = g.triples
    if script.direction == TARGET_LABELS and script.mapping_used is not None:
        base = rename_triples(base, Renaming(dict(script.mapping_used.pairs)))
    warnings = [
        f"delete of absent triple: {ntriples.render_triple(t)}"
        for t in sorted(script.deletions - base, key=Triple.sort_key)
    ]
    result = (base - script.deletions) | script.additions
    return Graph(result, g.graph_id), warnings


def reverse_delta(script: DeltaScript) -> DeltaScript:
    """Swap additions and deletions and invert the mapping.

    The label scope flips with the direction: reversing a target-labels
    script yields a source-labels script for the opposite transformation,
    so reverse is an involution.
    """
    inverted = None if script.mapping_used is None else script.mapping_used.inverted()
    flipped = SOURCE_LABELS if script.direction == TARGET_LABELS else TARGET_LABELS
    return DeltaScript(
        additions=script.deletions,
        deletions=script.additions,
        mapping_used=inverted,
        direction=flipped,
    )


# -- .rdfd file format ----------------------------------------------------
#
#   # direction=target-labels
#   M <label1> <label2>
#   D <n-triples line>
#   A <n-triples line>
#
# Each section sorted, so serialization is byte-stable.


def format_delta(script: DeltaScript) -> str:
    lines = [f"# direction={script.direction}"]
    if script.mapping_used is not None:
        lines.extend(
            f"M {src.value} {dst.value}"
            for src, dst in sorted(
                script.mapping_used.pairs.items(),
                key=lambda p: (p[0].value, p[1].value),
            )
        )
    lines.extend(
        f"D {ntriples.render_triple(t)}"
        for t in sorted(script.deletions, key=Triple.sort_key)
    )
    lines.extend(
        f"A {ntriples.render_triple(t)}"
        for t in sorted(script.additions, key=Triple.sort_key)
    )
    return "".join(line + "\n" for line in lines)


def parse_delta(text: str) -> DeltaScript:
    direction = TARGET_LABELS
    pairs: dict[Term, Term] = {}
    images: set[str] = set()
    additions: set[Triple] = set()
    deletions: set[Triple] = set()
    for line_no, raw in enumerate(ntriples.split_lines(text), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            body = line[1:].strip()
            if body.startswith("direction="):
                direction = body.split("=", 1)[1]
                if direction not in (TARGET_LABELS, SOURCE_LABELS):
                    raise ntriples.ParseError(line_no, f"unknown direction: {direction!r}")
            continue
        tag, _, rest = line.partition(" ")
        if tag == "M":
            _read_pair(pairs, images, rest.split(), line, line_no)
        elif tag in ("D", "A"):
            t = ntriples.parse_triple_line(rest, line_no)
            own, other = (deletions, additions) if tag == "D" else (additions, deletions)
            if t in other:
                raise ntriples.ParseError(line_no, "a triple cannot be both added and deleted")
            own.add(t)
        else:
            raise ntriples.ParseError(line_no, f"unknown delta line tag: {tag!r}")
    mapping = BnodeMapping(pairs, cost=0, method="loaded") if pairs else None
    return DeltaScript(
        additions=frozenset(additions),
        deletions=frozenset(deletions),
        mapping_used=mapping,
        direction=direction,
    )


def save_delta(script: DeltaScript, path: str) -> bytes:
    """Write the script as a ``.rdfd`` file; returns the bytes written."""
    data = format_delta(script).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(data)
    return data


def load_delta(path: str) -> DeltaScript:
    with ntriples.naming(path):
        return parse_delta(ntriples.read_utf8(path))

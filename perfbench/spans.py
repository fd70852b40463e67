"""Span recorder for the traced run.

``instrument`` wraps the public functions of the program's modules (and
the few private ones a per-layer metric needs) in the benchmark's own
code.  Each wrapper is rebound in every module namespace that holds the
function, so calls through ``from .x import f`` are traced too.  Spans are
kept in memory; ``self_times`` and ``layer_metrics`` turn them into
per-layer numbers after the run.
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
import time
from typing import Callable, Optional

MODULES = ("ntriples", "model", "equivalence", "matcher", "delta",
           "decision", "integration", "store", "cli")

# Called per term, triple or candidate inside hot loops: wrapping them
# would make the traced run measure the tracer.
_HOT = {
    "model": {"iri", "bnode", "literal", "incident_triples", "rename_triple"},
    "ntriples": {"render_term", "render_triple", "escape_literal", "parse_triple_line"},
    "equivalence": {"canonical_suffix"},
    "integration": {"majority_accept"},
}

# Private functions and methods that a per-layer metric needs.
_EXTRA = {
    "matcher": ("_assignment_tier", "_refinement_tier", "_stable_signatures",
                "_PairContext.__init__"),
    "model": ("Graph.__init__",),
    "equivalence": ("EquivalenceRelation.__init__",),
    "store": ("_write_manifest", "VersionStore.init", "VersionStore.checkout",
              "VersionStore.commit", "VersionStore.sync_patch"),
}

# span fields: name, start, end, parent index (-1 at the root), info
NAME, START, END, PARENT, INFO = range(5)


class Recorder:
    """In-memory span list with a stack of open spans (one thread)."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._open: list[int] = []

    def begin(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, None])
        self._open.append(idx)
        return idx

    def end(self, idx: int) -> None:
        self.spans[idx][END] = time.perf_counter()
        self._open.pop()


def _info_for(name: str) -> Optional[Callable]:
    """What a span records about its call, for counts and derived metrics."""
    if name == "matcher.match_bnodes":
        return lambda args, kw, r: {"method": r.method, "cost": r.cost}
    if name == "delta.mapped_delta":
        return lambda args, kw, r: {"ops": r.size}
    if name == "delta.apply_delta":
        return lambda args, kw, r: {"ops": args[1].size}
    if name == "ntriples.parse_ntriples":
        return lambda args, kw, r: {"triples": len(r.graph)}
    if name in ("ntriples.save_graph", "delta.save_delta"):
        return lambda args, kw, r: {"bytes": os.path.getsize(args[1])}
    if name == "store._write_manifest":
        return lambda args, kw, r: {"bytes": os.path.getsize(os.path.join(args[0], "manifest.txt"))}
    return None


def _wrap(rec: Recorder, name: str, fn: Callable) -> Callable:
    info = _info_for(name)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        idx = rec.begin(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.end(idx)
        if info is not None:
            rec.spans[idx][INFO] = info(args, kwargs, result)
        return result

    return traced


def _targets(package: str):
    """(module short name, qualname, owner, attribute, original) per traced callable."""
    for short in MODULES:
        mod = sys.modules[f"{package}.{short}"]
        names = [
            n for n, obj in vars(mod).items()
            if inspect.isfunction(obj) and obj.__module__ == mod.__name__
            and not n.startswith("_") and n not in _HOT.get(short, ())
        ]
        names += _EXTRA.get(short, ())
        for qual in names:
            owner = mod
            *path, attr = qual.split(".")
            for part in path:
                owner = getattr(owner, part)
            yield short, qual, owner, attr, vars(owner)[attr]


def instrument(rec: Recorder, package: str = "bnodematch") -> Callable[[], None]:
    """Install the wrappers; returns a function that restores the originals."""
    loaded = [m for n, m in sys.modules.items() if n == package or n.startswith(package + ".")]
    undo: list[tuple[object, str, object]] = []
    for short, qual, owner, attr, original in list(_targets(package)):
        name = f"{short}.{qual}"
        if isinstance(original, classmethod):
            replacement = classmethod(_wrap(rec, name, original.__func__))
            undo.append((owner, attr, original))
            setattr(owner, attr, replacement)
            continue
        traced = _wrap(rec, name, original)
        holders = [owner] if inspect.isclass(owner) else loaded
        for holder in holders:
            for key, value in list(vars(holder).items()):
                if value is original:
                    undo.append((holder, key, value))
                    setattr(holder, key, traced)

    def restore() -> None:
        for holder, key, value in reversed(undo):
            setattr(holder, key, value)

    return restore


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s[PARENT] >= 0:
            children.setdefault(s[PARENT], []).append((s[START], s[END]))
    out = []
    for idx, s in enumerate(spans):
        covered, reach = 0.0, s[START]
        for start, end in sorted(children.get(idx, ())):
            start, end = max(start, reach), min(end, s[END])
            if end > start:
                covered += end - start
                reach = end
        out.append(s[END] - s[START] - covered)
    return out


LAYER_METRICS = (
    ("matcher.assignment_s", "s/round"),
    ("matcher.refinement_s", "s/round"),
    ("matcher.signatures_s", "s/round"),
    ("matcher.signature_rounds", "1/round"),
    ("matcher.pair_context_s", "s/round"),
    ("matcher.pair_contexts", "1/round"),
    ("decision.equiv_self_s", "s/round"),
    ("decision.fallbacks", "1/round"),
    ("decision.entail_s", "s/round"),
    ("equivalence.build_s", "s/round"),
    ("integration.self_s", "s/round"),
    ("store.checkout_s", "s/round"),
    ("store.deltas_replayed", "1/round"),
    ("store.commit_self_s", "s/round"),
    ("store.bytes_written", "B/round"),
    ("delta.mapped_delta_s", "s/round"),
    ("delta.apply_delta_s", "s/round"),
    ("delta.format_s", "s/round"),
    ("delta.parse_s", "s/round"),
    ("delta.ops", "1/round"),
    ("ntriples.parse_s", "s/round"),
    ("ntriples.serialize_s", "s/round"),
    ("ntriples.triples_parsed", "1/round"),
    ("model.graph_build_s", "s/round"),
    ("model.graph_builds", "1/round"),
    ("cli.self_s", "s/round"),
)


def layer_metrics(spans: list[list], rounds: int) -> dict[str, float]:
    """Per-layer totals over the traced spans, divided by the rounds run."""
    selfs = self_times(spans)
    total: dict[str, float] = {name: 0.0 for name, _ in LAYER_METRICS}

    def name_of(idx: int) -> str:
        return spans[idx][NAME] if idx >= 0 else ""

    def add(key: str, value: float) -> None:
        total[key] += value

    for idx, s in enumerate(spans):
        name, dur, parent, info = s[NAME], s[END] - s[START], name_of(s[PARENT]), s[INFO]
        module = name.split(".", 1)[0]
        if name == "matcher.match_bnodes" and parent != name:
            if info["method"] == "assignment":
                add("matcher.assignment_s", dur)
            elif info["method"] == "refinement":
                add("matcher.refinement_s", dur)
        elif name == "matcher._stable_signatures":
            add("matcher.signatures_s", dur)
        elif name == "matcher.build_signatures" and parent == "matcher._stable_signatures":
            add("matcher.signature_rounds", 0.5)  # one call per graph per round
        elif name == "matcher._PairContext.__init__":
            add("matcher.pair_context_s", dur)
            add("matcher.pair_contexts", 1)
        elif name == "decision.find_equivalence_bijection":
            add("decision.equiv_self_s", selfs[idx])
        elif name == "decision.entails":
            add("decision.entail_s", dur)
        elif name == "store.VersionStore.checkout":
            add("store.checkout_s", dur)
        elif name == "store.VersionStore.commit":
            add("store.commit_self_s", selfs[idx])
        elif name == "delta.mapped_delta":
            add("delta.mapped_delta_s", dur)
        elif name == "delta.format_delta":
            add("delta.format_s", dur)
        elif name == "delta.parse_delta":
            add("delta.parse_s", dur)
        elif name == "ntriples.parse_ntriples":
            add("ntriples.parse_s", dur)
            add("ntriples.triples_parsed", info["triples"])
        elif name == "ntriples.serialize_ntriples":
            add("ntriples.serialize_s", dur)
        elif name == "model.Graph.__init__":
            add("model.graph_build_s", dur)
            add("model.graph_builds", 1)
        if name == "delta.apply_delta":
            add("delta.apply_delta_s", dur)
            add("delta.ops", info["ops"])
            if parent == "store.VersionStore.checkout":
                add("store.deltas_replayed", 1)
        if name == "delta.mapped_delta":
            add("delta.ops", info["ops"])
        if name == "matcher.match_bnodes" and parent == "decision.find_equivalence_bijection":
            if info["method"] == "refinement" and info["cost"] > 0:
                add("decision.fallbacks", 1)
        if module == "equivalence" and not parent.startswith("equivalence."):
            add("equivalence.build_s", dur)
        if module == "integration":
            add("integration.self_s", selfs[idx])
        if module == "cli":
            add("cli.self_s", selfs[idx])
        if info and "bytes" in info and parent.startswith("store."):
            add("store.bytes_written", info["bytes"])
    return {k: v / max(rounds, 1) for k, v in total.items()}

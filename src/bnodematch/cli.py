"""Command-line entry point.

Exit codes: 0 success (or "yes" for decisions), 1 "no" for decisions,
2 usage error, 3 I/O or parse error.  Diagnostics go to stderr;
machine-readable artifacts go to files or stdout only.  ``-`` names
stdin/stdout where a graph or delta is read or written.
"""

from __future__ import annotations

import argparse
import csv
import functools
import os
import sys
import time
from typing import Optional

from . import __version__, ntriples
from .decision import SearchBudgetExceeded, entails, find_equivalence_bijection
from .delta import (
    SOURCE_LABELS,
    TARGET_LABELS,
    apply_delta,
    format_delta,
    load_delta,
    mapped_delta,
    parse_delta,
    plain_delta,
)
from .equivalence import EquivalenceRelation, load_sameas_pairs
from .generator import GenSpec, generate_pair, write_pair
from .integration import integrate_all, majority_accept
from .matcher import (
    EXACT_THRESHOLD,
    format_mapping,
    mapping_cost,
    match_bnodes,
    parse_mapping,
)
from .model import Graph
from .ntriples import ParseError
from .store import StoreError, VersionStore


def _parse_stdin(parse):
    """``parse`` of all of stdin, decoded strictly as UTF-8; a ParseError names ``-``."""
    buffer = getattr(sys.stdin, "buffer", None)  # None for a text stream put in its place
    with ntriples.naming("-"):
        return parse(sys.stdin.read() if buffer is None else ntriples.decode_utf8(buffer.read()))


def _read_graph(path: str) -> Graph:
    if path == "-":
        return _parse_stdin(lambda text: ntriples.parse_ntriples(text, "stdin").graph)
    return ntriples.load_graph(path)


def _stdin_once(paths: list[str]) -> list[str]:
    """``paths``, refused when ``-`` (stdin) names more than one of them."""
    if paths.count("-") > 1:
        raise UsageError("stdin ('-') can be read only once; name it for one input only")
    return paths


def _write_text(path: Optional[str], text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _guard_output(out: Optional[str], inputs: list[str]) -> None:
    """Refuse an output path that is an input or lies inside one (a directory)."""
    if out is None or out == "-":
        return
    target = os.path.realpath(out)
    for path in inputs:
        root = os.path.realpath(path)
        if path != "-" and os.path.commonpath([root, target]) == root:
            what = "input file" if target == root else f"input directory {path!r} with"
            raise UsageError(f"refusing to overwrite {what} {out!r}")


class UsageError(ValueError):
    pass


def _parse_equiv(arg: str) -> tuple[str, list]:
    """The ``--equiv`` value as (policy, sameAs pairs)."""
    if arg in ("exact", "suffix"):
        return arg, []
    if arg.startswith("sameas:"):
        return "sameas", load_sameas_pairs(arg.split(":", 1)[1])
    raise UsageError(
        f"bad --equiv value {arg!r}; expected exact, suffix, or sameas:<file>"
    )


# -- subcommands ------------------------------------------------------------


def cmd_diff(args) -> int:
    g1, g2 = map(_read_graph, _stdin_once([args.graph1, args.graph2]))
    _guard_output(args.output, [args.graph1, args.graph2])
    if args.plain:
        script = plain_delta(g1, g2)
    else:
        policy, pairs = _parse_equiv(args.equiv)
        equiv = EquivalenceRelation.for_graphs(policy, [g1, g2], pairs)
        mapping = match_bnodes(g1, g2, equiv, args.exact_threshold)
        direction = SOURCE_LABELS if args.labels == "source" else TARGET_LABELS
        script = mapped_delta(g1, g2, mapping, direction)
    _write_text(args.output, format_delta(script))
    print(f"{script.size} operations", file=sys.stderr)
    return 0


def cmd_patch(args) -> int:
    _stdin_once([args.graph, args.delta])
    g = _read_graph(args.graph)
    _guard_output(args.output, [args.graph, args.delta])
    script = _parse_stdin(parse_delta) if args.delta == "-" else load_delta(args.delta)
    result, warnings = apply_delta(g, script)
    for w in warnings:
        print(f"warning: {w}", file=sys.stderr)
    _write_text(args.output, ntriples.serialize_ntriples(result))
    return 0


def cmd_match(args) -> int:
    g1, g2 = map(_read_graph, _stdin_once([args.graph1, args.graph2]))
    _guard_output(args.output, [args.graph1, args.graph2])
    policy, pairs = _parse_equiv(args.equiv)
    equiv = EquivalenceRelation.for_graphs(policy, [g1, g2], pairs)
    mapping = match_bnodes(g1, g2, equiv, args.exact_threshold)
    _write_text(args.output, format_mapping(mapping))
    return 0


def cmd_equiv(args) -> int:
    g1, g2 = map(_read_graph, _stdin_once([args.graph1, args.graph2]))
    witness = find_equivalence_bijection(g1, g2)
    if witness is None:
        print("not equivalent", file=sys.stderr)
        return 1
    for a, b in sorted(witness.items(), key=lambda p: (p[0].value, p[1].value)):
        print(f"M {a.value} {b.value}")
    return 0


def cmd_entail(args) -> int:
    g1, g2 = map(_read_graph, _stdin_once([args.graph1, args.graph2]))
    witness = entails(g1, g2)
    if witness is None:
        print("no entailment", file=sys.stderr)
        return 1
    for b, x in sorted(witness.assignments.items(), key=lambda p: p[0].value):
        print(f"M {b.value} {ntriples.render_term(x)}")
    return 0


def cmd_integrate(args) -> int:
    # --review reads its answers from stdin, so it counts as one more stdin input
    _stdin_once(args.graphs + ["-"] * args.review)
    graphs = [_read_graph(p) for p in args.graphs]
    _guard_output(args.output, args.graphs)
    policy, pairs = _parse_equiv(args.equiv)
    accept = majority_accept
    if args.review:
        def accept(left, right, dist, ls, rs):  # noqa: ANN001 - cli glue
            prompt = f"link {left.value} <-> {right.value} (dist={dist})? [y/N] "
            print(prompt, end="", file=sys.stderr, flush=True)
            answer = sys.stdin.readline().strip().lower()
            return answer in ("y", "yes")
    result = integrate_all(
        graphs, policy, pairs, unify=args.unify, accept=accept
    )
    _write_text(args.output, ntriples.serialize_ntriples(result.merged))
    for a, b in sorted(result.bnode_links, key=lambda p: (p[0].value, p[1].value)):
        print(f"bnode link: {a.value} {b.value}", file=sys.stderr)
    for a, b in sorted(result.uri_links, key=lambda p: (p[0].value, p[1].value)):
        print(f"uri link: <{a.value}> <{b.value}>", file=sys.stderr)
    for tag in sorted(result.report):
        counts = result.report[tag]
        print(
            f"{tag}: {counts['matched']} matched, {counts['unmatched']} unmatched",
            file=sys.stderr,
        )
    return 0


def cmd_vs(args) -> int:
    if args.vs_command == "init":
        VersionStore.init(args.repo, _read_graph(args.graph))
        return 0
    store = VersionStore(args.repo)
    if args.vs_command == "commit":
        script = store.commit(_read_graph(args.graph))
        print(f"version {store.version_count}: {script.size} operations", file=sys.stderr)
        return 0
    if args.vs_command == "checkout":
        _guard_output(args.output, [args.repo])
        g = store.checkout(args.version)
        _write_text(args.output, ntriples.serialize_ntriples(g))
        return 0
    if args.vs_command == "patch":
        _guard_output(args.output, [args.repo])
        script = store.sync_patch(args.frm, args.to)
        _write_text(args.output, format_delta(script))
        return 0
    raise UsageError(f"unknown vs command {args.vs_command!r}")


def cmd_gen(args) -> int:
    spec = GenSpec(
        bnode_count=args.bnodes,
        ground_triples=args.triples,
        connectivity=args.connectivity,
        mutation_ops=args.mutations,
        seed=args.seed,
    )
    pair = generate_pair(spec)
    write_pair(pair, spec, args.output)
    return 0


def cmd_bench(args) -> int:
    _guard_output(args.output, [args.directory])
    rows = []
    for entry in sorted(os.listdir(args.directory)):
        pair_dir = os.path.join(args.directory, entry)
        g1_path = os.path.join(pair_dir, "g1.nt")
        if not os.path.isfile(g1_path):
            continue
        g1 = ntriples.load_graph(g1_path)
        g2 = ntriples.load_graph(os.path.join(pair_dir, "g2.nt"))
        bound = ""
        truth_path = os.path.join(pair_dir, "truth.bm")
        if os.path.isfile(truth_path):
            with ntriples.naming(truth_path):
                bound = mapping_cost(g1, g2, parse_mapping(ntriples.read_utf8(truth_path)))
        for threshold in (EXACT_THRESHOLD, 0):
            start = time.perf_counter()
            mapping = match_bnodes(g1, g2, exact_threshold=threshold)
            elapsed = time.perf_counter() - start
            rows.append(
                {
                    "instance": entry,
                    "tier": mapping.method,
                    "cost": mapping.cost,
                    "optimum_bound": bound,
                    "wall_time_s": f"{elapsed:.6f}",
                }
            )
    out = sys.stdout if args.output in (None, "-") else open(args.output, "w", newline="")
    try:
        writer = csv.DictWriter(
            out, fieldnames=["instance", "tier", "cost", "optimum_bound", "wall_time_s"]
        )
        writer.writeheader()
        writer.writerows(rows)
    finally:
        if out is not sys.stdout:
            out.close()
    return 0


# -- parser -----------------------------------------------------------------


def _add_equiv_flag(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--equiv",
        default="exact",
        metavar="POLICY",
        help="URI equivalence: exact, suffix, or sameas:<file> (default exact)",
    )


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser; built once per process, since parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="bnodematch",
        description="Blank-node aware diff, patch, matching, and integration for RDF graphs.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("diff", help="delta between two graphs")
    p.add_argument("graph1")
    p.add_argument("graph2")
    _add_equiv_flag(p)
    p.add_argument("--plain", action="store_true", help="skip bnode matching")
    p.add_argument("--labels", choices=("source", "target"), default="target",
                   help="label scope of the emitted operations (default target)")
    p.add_argument("--exact-threshold", type=int, default=EXACT_THRESHOLD,
                   help="most bnodes on the smaller side for exact search (default %(default)s)")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=cmd_diff)

    p = sub.add_parser("patch", help="apply a delta to a graph")
    p.add_argument("graph")
    p.add_argument("delta")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=cmd_patch)

    p = sub.add_parser("match", help="compute a bnode mapping")
    p.add_argument("graph1")
    p.add_argument("graph2")
    _add_equiv_flag(p)
    p.add_argument("--exact-threshold", type=int, default=EXACT_THRESHOLD,
                   help="most bnodes on the smaller side for exact search (default %(default)s)")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=cmd_match)

    p = sub.add_parser("equiv", help="test graph equivalence (exit 0 yes / 1 no)")
    p.add_argument("graph1")
    p.add_argument("graph2")
    p.set_defaults(func=cmd_equiv)

    p = sub.add_parser("entail", help="test whether graph1 entails graph2")
    p.add_argument("graph1")
    p.add_argument("graph2")
    p.set_defaults(func=cmd_entail)

    p = sub.add_parser("integrate", help="merge sources under a URI equivalence")
    p.add_argument("graphs", nargs="+")
    _add_equiv_flag(p)
    p.add_argument("--unify", action="store_true",
                   help="give matched bnodes one shared label instead of sameAs links")
    p.add_argument("--review", action="store_true",
                   help="confirm each candidate pair on the terminal")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=cmd_integrate)

    p = sub.add_parser("vs", help="delta-based version store")
    vs_sub = p.add_subparsers(dest="vs_command", required=True)
    q = vs_sub.add_parser("init")
    q.add_argument("repo")
    q.add_argument("graph")
    q = vs_sub.add_parser("commit")
    q.add_argument("repo")
    q.add_argument("graph")
    q = vs_sub.add_parser("checkout")
    q.add_argument("repo")
    q.add_argument("version", type=int)
    q.add_argument("-o", "--output", default=None)
    q = vs_sub.add_parser("patch")
    q.add_argument("repo")
    q.add_argument("--from", dest="frm", type=int, required=True)
    q.add_argument("--to", dest="to", type=int, required=True)
    q.add_argument("-o", "--output", default=None)
    p.set_defaults(func=cmd_vs)

    p = sub.add_parser("gen", help="generate a benchmark graph pair")
    p.add_argument("--bnodes", type=int, required=True)
    p.add_argument("--triples", type=int, default=0)
    p.add_argument("--connectivity", type=float, default=0.0)
    p.add_argument("--mutations", type=int, default=0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("-o", "--output", required=True, help="pair directory")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("bench", help="run the matcher over generated pairs, emit CSV")
    p.add_argument("directory")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=cmd_bench)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (ParseError, StoreError, OSError, SearchBudgetExceeded) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (UsageError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

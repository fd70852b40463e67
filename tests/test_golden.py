"""CLI outputs under ``--equiv exact`` against recorded golden outputs.

``fixtures/golden/outputs.json`` holds what ``diff`` (target and source
labels), ``match``, ``equiv`` and ``vs commit`` wrote for every ordered
pair of fixture graphs and for seeded generated pairs, flat and linked, so
all three solver tiers are covered.  A change that is meant to keep
outputs byte-identical must leave this test passing unchanged.  Rewrite
the file only for an intended change of output:

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import sys
import tempfile
from pathlib import Path

from bnodematch import ntriples
from bnodematch.cli import main
from bnodematch.generator import GenSpec, generate_pair

FIXTURES = Path(__file__).parent / "fixtures"
GOLDEN = FIXTURES / "golden" / "outputs.json"
FIXTURE_NAMES = ("g1", "g2", "g2_no_birthday", "g3", "g4")

# (bnodes, connectivity, mutations, seed): flat pairs take the assignment
# tier above seven bnodes, linked pairs the refinement tier, and six bnodes
# the exact tier.  Linked pairs with as many mutations as bnodes leave the
# signature seed imperfect, so the hill-climb accepts swaps and
# reassignments there.
GENERATED = [
    (n, connectivity, 1 + seed % 5, seed)
    for sizes, connectivity in (((6, 12, 20, 30, 45, 60), 0.0), ((6, 10, 16, 24, 32, 40), 0.3))
    for n in sizes
    for seed in (500 + 10 * n, 501 + 10 * n)
] + [(n, 0.3, n, seed) for n, seed in ((10, 700), (16, 701), (24, 700), (32, 702))]


def _run(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return code, out.getvalue()


def _verb_outputs(a: Path, b: Path, work: Path, extra: list[str]) -> dict[str, object]:
    """Output text of every verb on the ordered pair (a, b)."""
    results: dict[str, object] = {}
    delta = work / "out"
    for label in ("target", "source"):
        _run(["diff", str(a), str(b), "--labels", label, "-o", str(delta)] + extra)
        results[f"diff_{label}"] = delta.read_text(encoding="utf-8")
    results["match"] = _run(["match", str(a), str(b)] + extra)[1]
    results["match_reversed"] = _run(["match", str(b), str(a)] + extra)[1]
    results["equiv"] = list(_run(["equiv", str(a), str(b)]))
    repo = work / "repo"
    _run(["vs", "init", str(repo), str(a)])
    _run(["vs", "commit", str(repo), str(b)])
    results["vs_commit"] = (repo / "0001.rdfd").read_text(encoding="utf-8")
    return results


def compute_outputs() -> dict[str, dict[str, object]]:
    outputs: dict[str, dict[str, object]] = {}
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        for x, y in itertools.permutations(FIXTURE_NAMES, 2):
            a, b = FIXTURES / f"{x}.nt", FIXTURES / f"{y}.nt"
            for threshold in ("7", "0"):
                case = work / f"{x}-{y}-{threshold}"
                case.mkdir()
                outputs[case.name] = _verb_outputs(
                    a, b, case, ["--equiv", "exact", "--exact-threshold", threshold]
                )
        for n, connectivity, mutations, seed in GENERATED:
            pair = generate_pair(GenSpec(bnode_count=n, ground_triples=n // 2,
                                         connectivity=connectivity,
                                         mutation_ops=mutations, seed=seed))
            case = work / f"gen-{n}-{connectivity}-{mutations}-{seed}"
            case.mkdir()
            a, b = case / "g1.nt", case / "g2.nt"
            ntriples.save_graph(pair.g1, str(a))
            ntriples.save_graph(pair.g2, str(b))
            outputs[case.name] = _verb_outputs(a, b, case, ["--equiv", "exact"])
    return outputs


def test_outputs_match_the_golden_file():
    expected = json.loads(GOLDEN.read_text(encoding="utf-8"))
    got = compute_outputs()
    assert sorted(got) == sorted(expected)
    for case, verbs in expected.items():
        for verb, value in verbs.items():
            assert got[case][verb] == value, f"{case}: {verb} differs"


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(compute_outputs(), indent=1, sort_keys=True) + "\n",
                      encoding="utf-8")
    print(f"wrote {GOLDEN}", file=sys.stderr)

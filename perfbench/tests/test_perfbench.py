"""Tests of the benchmark itself: span arithmetic, wrapping, and smoke runs."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import spans as T  # noqa: E402


def _span(name, start, end, parent):
    return [name, start, end, parent, None]


def test_self_time_subtracts_children_only_once():
    spans = [
        _span("cli.main", 0.0, 10.0, -1),
        _span("matcher.match_bnodes", 1.0, 6.0, 0),
        _span("matcher._PairContext.__init__", 1.5, 2.5, 1),
        _span("matcher._assignment_tier", 3.0, 5.0, 1),
        _span("delta.mapped_delta", 7.0, 8.0, 0),
    ]
    assert T.self_times(spans) == pytest.approx([4.0, 2.0, 1.0, 2.0, 1.0])


def test_self_time_clips_overlapping_and_outlying_children():
    spans = [
        _span("a", 0.0, 4.0, -1),
        _span("b", 1.0, 3.0, 0),
        _span("c", 2.0, 5.0, 0),  # overlaps b and runs past the parent's end
    ]
    assert T.self_times(spans)[0] == pytest.approx(1.0)


def test_instrument_records_nested_spans_and_restores(tmp_path):
    sys.path.insert(0, str(ROOT / "src"))
    import bnodematch.cli as cli
    import bnodematch.decision as decision
    import bnodematch.matcher as matcher

    originals = (cli.main, decision.match_bnodes, matcher.match_bnodes,
                 matcher._PairContext.__init__)
    g = "_:a <http://x/p> _:b .\n_:b <http://x/q> <http://x/o> .\n"
    (tmp_path / "g1.nt").write_text(g)
    (tmp_path / "g2.nt").write_text(g.replace("_:a", "_:c"))
    rec = T.Recorder()
    restore = T.instrument(rec)
    try:
        assert cli.main(["equiv", str(tmp_path / "g1.nt"), str(tmp_path / "g2.nt")]) == 0
    finally:
        restore()
    assert (cli.main, decision.match_bnodes, matcher.match_bnodes,
            matcher._PairContext.__init__) == originals
    names = [s[T.NAME] for s in rec.spans]
    assert names[0] == "cli.main"
    match = names.index("matcher.match_bnodes")
    assert names[rec.spans[match][T.PARENT]] == "decision.find_equivalence_bijection"
    assert "matcher._PairContext.__init__" in names
    metrics = T.layer_metrics(rec.spans, rounds=1)
    assert metrics["matcher.pair_contexts"] >= 1
    assert metrics["ntriples.triples_parsed"] == 4


def _run(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--profile", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", ["flat", "linked", "versioning"])
def test_smoke_run_reports_every_metric(workload):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        result = _run(workload, trace)
        assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
        assert sorted(result["metrics"]) == sorted(m["name"] for m in spec[key])
        units = {m["name"]: m["unit"] for m in spec[key]}
        assert all(v["unit"] == units[k] for k, v in result["metrics"].items())


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "flat", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""

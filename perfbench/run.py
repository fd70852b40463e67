"""Closed-loop benchmark of the bnodematch CLI verbs.

One client, one process, one thread: each request is one CLI verb run
in-process through ``bnodematch.cli.main(argv)`` on files in a scratch
directory, and the next request starts when it returns.  Each request
is timed around ``main`` alone; inputs are written and outputs checked
outside the timed region.

    python3 perfbench/run.py --workload flat --seed 1 --seconds 30 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs each round
twice, untraced and traced, and prints the per-layer metrics and the
tracing overhead.  The last line of stdout is the result as JSON.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import gc
import io
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

import graphs as G  # noqa: E402
import spans as T  # noqa: E402
import workloads as W  # noqa: E402

# The sandbox's CPU speed drifts by a third within seconds as neighbours
# come and go.  Every timing is therefore scaled by REF_S over the mean time
# of a fixed calibration kernel run just before and just after it: times
# are reported at the speed at which the kernel takes REF_S.  The kernel
# took 2.5-3.5 ms on the machine the benchmark was tuned on.
REF_S = 0.003

STARTUP = ("import sys; sys.path.insert(0, 'src'); "
           "from bnodematch.cli import main; sys.exit(main(['--version']))")


def _kernel() -> int:
    """Fixed pure-Python work of the program's kind: tuple hashing, sets, dicts, sorting."""
    items = [(f"_:b{i % 97}", f"<p{i % 13}>", f'"v{i % 31}"') for i in range(2000)]
    by_p: dict[str, list] = {}
    for t in items:
        by_p.setdefault(t[1], []).append(t)
    return len(sorted(frozenset(items))) + len(by_p)


def calibration() -> float:
    """Seconds the calibration kernel takes now, mean of two runs, GC off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        _kernel()
        _kernel()
        return (time.perf_counter() - start) / 2
    finally:
        if enabled:
            gc.enable()


def scaled(run) -> tuple[float, float, object]:
    """(time of run() at reference speed, the speed factor applied, its result)."""
    before = calibration()
    start = time.perf_counter()
    try:
        result = run()
    finally:
        elapsed = time.perf_counter() - start
    factor = 2 * REF_S / (before + calibration())
    return elapsed * factor, factor, result


def setup_seconds(repeats: int) -> float:
    """Median time, at reference speed, to start an interpreter and load the CLI."""
    times = []
    for _ in range(repeats):
        t, _, _ = scaled(lambda: subprocess.run(
            [sys.executable, "-c", STARTUP], cwd=ROOT, check=True,
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, timeout=120))
        times.append(t)
    return statistics.median(times)


def tail(samples: list[float]) -> tuple[float, float]:
    """Highest percentile with at least ten samples beyond it: (value, percentile)."""
    xs = sorted(samples)
    k = max(len(xs) - 11, 0)
    return xs[k], 100.0 * k / len(xs)


class Client:
    """Runs rounds through the CLI, times each request and checks its output."""

    def __init__(self, main, scratch: Path) -> None:
        self.main = main
        self.scratch = scratch
        self.latency: dict[str, list[float]] = {v: [] for v in W.VERBS}
        self.tally = W.Tally()
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def run_round(self, rnd: W.Round) -> tuple[float, float]:
        """Run every request of the round.

        Returns the summed request time and the median speed factor seen.
        """
        d = Path(tempfile.mkdtemp(dir=self.scratch))
        try:
            for name, g in rnd.files.items():
                (d / name).write_text(G.serialize(g), encoding="utf-8")
            busy, factors = 0.0, []
            for req in rnd.requests:
                elapsed, factor = self._request(req, d)
                busy += elapsed
                factors.append(factor)
            self.tally.repo_bytes += sum(f.stat().st_size for f in (d / "repo").iterdir())
            self.tally.head_bytes += len(G.serialize(rnd.head).encode("utf-8"))
            return busy, statistics.median(factors)
        finally:
            shutil.rmtree(d)

    def _request(self, req: W.Request, d: Path) -> tuple[float, float]:
        out, err = io.StringIO(), io.StringIO()
        self.attempted += 1
        code = -1
        gc.collect()  # start every request from the same heap state
        with contextlib.chdir(d), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                elapsed, factor, code = scaled(lambda: self.main(list(req.argv)))
            except Exception as exc:  # a raise is a failed request, not a crash of the benchmark
                elapsed, factor = 0.0, 1.0
                err.write(f"raised {type(exc).__name__}: {exc}")
        try:
            ok = code != -1 and req.check(W.Result(code, out.getvalue(), d), self.tally)
        except (ValueError, RuntimeError, OSError) as exc:
            ok = False
            err.write(f"check raised {type(exc).__name__}: {exc}")
        if req.verb in self.latency and code != -1:
            self.latency[req.verb].append(elapsed)
        if not ok:
            self.failed += 1
            self.failures.append(f"{' '.join(req.argv)}: exit {code}: {err.getvalue().strip()[-300:]}")
        return elapsed, factor


def end_to_end(client: Client, setup_s: float) -> tuple[dict, list[str]]:
    metrics: dict[str, tuple[float, str]] = {"setup_s": (setup_s, "s")}
    notes = []
    for verb, with_tail in (("diff", True), ("equiv", True), ("entail", False),
                            ("integrate", False), ("commit", True), ("checkout", True)):
        ms = [1000.0 * x for x in client.latency[verb]]
        if not ms:
            raise SystemExit(f"no {verb} request completed; run longer")
        metrics[f"{verb}_ms_p50"] = (statistics.median(ms), "ms")
        notes.append(f"{verb}: {len(ms)} requests")
        if with_tail:
            value, pct = tail(ms)
            metrics[f"{verb}_ms_tail"] = (value, "ms")
            notes.append(f"{verb}_ms_tail is p{pct:.0f} of {len(ms)} samples")
    t = client.tally
    metrics["cost_ratio"] = (t.solver_cost / max(t.planted_cost, 1), "ratio")
    metrics["integrate_link_miss_share"] = (1.0 - t.links_found / max(t.links_planted, 1), "share")
    metrics["store_bytes_per_byte"] = (t.repo_bytes / max(t.head_bytes, 1), "B/B")
    metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
    metrics["ok_share"] = ((client.attempted - client.failed) / max(client.attempted, 1), "share")
    notes.append(f"cost_ratio = {t.solver_cost} / {t.planted_cost}; "
                 f"links found {t.links_found} of {t.links_planted} planted")
    return metrics, notes


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=W.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--profile", choices=sorted(W.PROFILES), default="full",
                    help="input sizes; 'tiny' is for the smoke tests")
    ap.add_argument("--record", action="store_true",
                    help="store the traced metrics in perfbench/baseline.json")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "bnodematch" / "cli.py").is_file():
        print(f"error: no program source at {ROOT / 'src' / 'bnodematch'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import bnodematch.cli  # noqa: E402

    setup_s = setup_seconds(1 if args.profile == "tiny" else 5)
    gc.collect()
    gc.freeze()  # keep the per-request collections below small and even
    OUT.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(dir=OUT, prefix="run-"))
    plain = Client(bnodematch.cli.main, scratch)
    traced = Client(bnodematch.cli.main, scratch)
    recorder = T.Recorder()
    busy_plain = busy_traced = 0.0
    steps = 0
    # The loop is timed at reference speed, so that a slow spell of the
    # machine does not change how many rounds a run holds; the wall clock
    # still ends it on a machine much slower than the reference.
    spent = 0.0
    wall_end = time.perf_counter() + 1.2 * args.seconds
    try:
        for rnd in W.rounds(args.workload, args.seed, args.profile):
            if spent >= args.seconds or time.perf_counter() >= wall_end:
                break
            start = time.perf_counter()
            busy, factor = plain.run_round(rnd)
            busy_plain += busy
            if args.trace:
                restore = T.instrument(recorder)
                try:
                    busy_traced += traced.run_round(rnd)[0]
                finally:
                    restore()
            spent += (time.perf_counter() - start) * factor
            steps += rnd.steps
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    attempted = plain.attempted + traced.attempted
    failed = plain.failed + traced.failed
    for line in (plain.failures + traced.failures)[:20]:
        print(f"FAILED {line}")
    if args.trace:
        units = dict(T.LAYER_METRICS)
        metrics = {k: (v, units[k]) for k, v in T.layer_metrics(recorder.spans, steps).items()}
        metrics["trace.overhead_share"] = (busy_traced / busy_plain - 1.0, "share")
        notes = [f"{len(recorder.spans)} spans over {steps} rounds"]
        spans_path = OUT / f"spans-{args.workload}-{args.seed}.json"
        spans_path.write_text(json.dumps(recorder.spans), encoding="utf-8")
        notes.append(f"spans written to {spans_path.relative_to(ROOT)}")
    else:
        metrics, notes = end_to_end(plain, setup_s)
    for note in notes:
        print(f"# {note}")
    for name, (value, unit) in metrics.items():
        print(f"{name:32s} {value:14.6f} {unit}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    if args.record:
        path = HERE / "baseline.json"
        saved = json.loads(path.read_text()) if path.exists() else {}
        saved[args.workload] = {"seed": args.seed, "seconds": args.seconds,
                                "metrics": result["metrics"]}
        path.write_text(json.dumps(saved, indent=1, sort_keys=True) + "\n")
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())

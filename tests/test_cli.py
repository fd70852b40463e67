"""Command-line behavior: flags, exit codes, pipes, file outputs."""

from __future__ import annotations

import itertools
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import bnodematch
from bnodematch import graphs_equivalent, load_graph
from bnodematch.cli import main
from bnodematch.matcher import parse_mapping
from bnodematch.ntriples import parse_ntriples, serialize_ntriples

FIXTURES = Path(__file__).parent / "fixtures"
G1 = str(FIXTURES / "g1.nt")
G2 = str(FIXTURES / "g2.nt")
G2NB = str(FIXTURES / "g2_no_birthday.nt")
G3 = str(FIXTURES / "g3.nt")
G4 = str(FIXTURES / "g4.nt")
SRC = str(Path(bnodematch.__file__).resolve().parents[1])


def test_no_arguments_is_a_usage_error(capsys):
    assert main([]) == 2
    capsys.readouterr()


def test_unknown_subcommand_is_a_usage_error(capsys):
    assert main(["frobnicate"]) == 2
    capsys.readouterr()


def test_version_flag(capsys):
    assert main(["--version"]) == 0
    assert "bnodematch" in capsys.readouterr().out


def test_version_is_the_one_in_pyproject(capsys):
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    expected = tomllib.loads(pyproject.read_text(encoding="utf-8"))["project"]["version"]
    assert main(["--version"]) == 0
    assert capsys.readouterr().out == f"bnodematch {expected}\n"


class TestDiffPatch:
    def test_plain_diff_counts_eleven(self, tmp_path, capsys):
        out = tmp_path / "d.rdfd"
        assert main(["diff", "--plain", G1, G2, "-o", str(out)]) == 0
        ops = [l for l in out.read_text().splitlines() if l[:2] in ("A ", "D ")]
        assert len(ops) == 11
        capsys.readouterr()

    def test_matched_diff_counts_one(self, tmp_path, capsys):
        out = tmp_path / "d.rdfd"
        assert main(["diff", G1, G2, "-o", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert "M 1 2" in lines
        assert sum(1 for l in lines if l[:2] in ("A ", "D ")) == 1
        capsys.readouterr()

    def test_patch_reproduces_the_target(self, tmp_path, capsys):
        delta = tmp_path / "d.rdfd"
        patched = tmp_path / "out.nt"
        main(["diff", G1, G2, "-o", str(delta)])
        assert main(["patch", G1, str(delta), "-o", str(patched)]) == 0
        assert graphs_equivalent(load_graph(str(patched)), load_graph(G2))
        capsys.readouterr()

    def test_source_label_diff(self, tmp_path, capsys):
        out = tmp_path / "d.rdfd"
        assert main(["diff", "--labels", "source", G2, G3, "-o", str(out)]) == 0
        assert out.read_text().startswith("# direction=source-labels\n")
        capsys.readouterr()

    def test_refuses_to_overwrite_an_input(self, capsys):
        assert main(["diff", G1, G2, "-o", G1]) == 2
        assert "refusing" in capsys.readouterr().err

    def test_parse_errors_exit_three(self, tmp_path, capsys):
        bad = tmp_path / "bad.nt"
        bad.write_text("not ntriples\n")
        assert main(["diff", str(bad), G2]) == 3
        capsys.readouterr()

    def test_missing_file_exits_three(self, capsys):
        assert main(["diff", "/nonexistent/g.nt", G2]) == 3
        capsys.readouterr()


@pytest.mark.parametrize(
    "body",
    [
        "A\n",
        "D\n",
        "X <http://a> <http://p> <http://b> .\n",
        "M only-one-label\n",
        "M -a b\n",
        "# direction=sideways\n",
    ],
    ids=["bare-A", "bare-D", "unknown-tag", "short-M", "bad-label-M", "direction"],
)
def test_malformed_delta_exits_three(tmp_path, capsys, body):
    bad = tmp_path / "bad.rdfd"
    bad.write_text("# direction=target-labels\n" + body)
    assert main(["patch", G1, str(bad)]) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad}: line 2:") and "Traceback" not in err


@pytest.mark.parametrize("first, second", [("D", "A"), ("A", "D")])
def test_a_delta_that_adds_and_deletes_one_triple_exits_three(tmp_path, capsys, first, second):
    both = tmp_path / "both.rdfd"
    triple = "_:x <http://x/p> _:y ."
    both.write_text(f"# direction=target-labels\n{first} {triple}\n\n{second} {triple}\n")
    assert main(["patch", G1, str(both)]) == 3
    assert capsys.readouterr().err == (
        f"error: {both}: line 4: a triple cannot be both added and deleted\n")


# A byte that cannot start a UTF-8 sequence, inside a literal on line 2.
_BAD_GRAPH = b'<http://x/s> <http://x/p> "ok" .\n_:x <http://x/p> "\xff" .\n'
_BAD_DELTA = b'# direction=target-labels\nA _:x <http://x/p> "\xff" .\n'
_NOT_UTF8 = "line 2: not UTF-8 (invalid start byte at byte "


@pytest.mark.parametrize("verb", ["diff", "patch", "sameas", "bench"])
def test_a_file_that_is_not_utf8_is_a_parse_error(tmp_path, capsys, verb):
    bad = tmp_path / "bad"
    bad.write_bytes(_BAD_DELTA if verb == "patch" else _BAD_GRAPH)
    pair = tmp_path / "pairs" / "p1"
    pair.mkdir(parents=True)
    (pair / "g1.nt").write_text(Path(G1).read_text())
    (pair / "g2.nt").write_text(Path(G2).read_text())
    (pair / "truth.bm").write_bytes(b"# method=generator\nM \xff 1\n")
    argv = {
        "diff": ["diff", str(bad), G1],
        "patch": ["patch", G1, str(bad)],
        "sameas": ["diff", G1, G2, "--equiv", f"sameas:{bad}"],
        "bench": ["bench", str(tmp_path / "pairs")],
    }[verb]
    assert main(argv) == 3
    named = pair / "truth.bm" if verb == "bench" else bad
    assert capsys.readouterr().err.startswith(f"error: {named}: {_NOT_UTF8}")


@pytest.mark.parametrize(
    "argv",
    [["diff", "-", G1], ["diff", G1, "-", "-o", "out"], ["patch", G1, "-"],
     ["vs", "init", "repo", "-"]],
    ids=["diff", "diff-o", "patch", "vs-init"],
)
def test_stdin_that_is_not_utf8_is_a_parse_error(tmp_path, argv):
    # UTF-8 mode reads text stdin with surrogateescape, so stdin is decoded from its bytes
    env = dict(os.environ, PYTHONPATH=SRC, PYTHONUTF8="1")
    run = subprocess.run([sys.executable, "-m", "bnodematch", *argv],
                         input=_BAD_DELTA if argv[0] == "patch" else _BAD_GRAPH,
                         capture_output=True, cwd=tmp_path, env=env)
    assert run.returncode == 3
    assert run.stderr.decode().startswith(f"error: -: {_NOT_UTF8}")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "truth",
    ["# cost=abc method=generator\n", "M b1\n", "M b1 -b\n", "X b1 b2\n"],
    ids=["cost", "short-M", "bad-label", "unknown-tag"],
)
def test_malformed_mapping_file_exits_three(tmp_path, capsys, truth):
    pair = tmp_path / "pairs" / "p1"
    pair.mkdir(parents=True)
    (pair / "g1.nt").write_text(Path(G1).read_text())
    (pair / "g2.nt").write_text(Path(G2).read_text())
    (pair / "truth.bm").write_text("# method=generator\n" + truth)
    assert main(["bench", str(tmp_path / "pairs")]) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"error: {pair / 'truth.bm'}: line 2:") and "Traceback" not in err


@pytest.mark.parametrize("mapping", ["M 1 x\nM 2 x\n", "M 1 x\nM 1 y\n"],
                         ids=["target", "source"])
def test_repeated_mapping_label_exits_three(tmp_path, capsys, mapping):
    delta = tmp_path / "d.rdfd"
    delta.write_text("# direction=target-labels\n" + mapping)
    pair = tmp_path / "pairs" / "p1"
    pair.mkdir(parents=True)
    (pair / "g1.nt").write_text(Path(G1).read_text())
    (pair / "g2.nt").write_text(Path(G2).read_text())
    (pair / "truth.bm").write_text("# method=generator\n" + mapping)
    for argv, named in ((["patch", G1, str(delta)], delta),
                        (["bench", str(tmp_path / "pairs")], pair / "truth.bm")):
        assert main(argv) == 3, argv
        err = capsys.readouterr().err
        assert err.startswith(f"error: {named}: line 3: repeated label") and "Traceback" not in err


@pytest.mark.parametrize("ch", ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"],
                         ids=lambda c: f"U+{ord(c):04X}")
def test_literals_with_vertical_whitespace_round_trip(tmp_path, capsys, ch):
    # Only "\n" ends a line: str.splitlines would also break at ``ch``.
    old, new = tmp_path / "old.nt", tmp_path / "new.nt"
    old.write_text('_:a <http://x/p> "plain" .\n', encoding="utf-8")
    new.write_text(f'_:b <http://x/p> "one{ch}two" .\n_:b <http://x/q> <http://x/o> .\n',
                   encoding="utf-8")
    repo, version, delta, patched = (str(tmp_path / name)
                                     for name in ("repo", "v2.nt", "d.rdfd", "p.nt"))
    assert main(["vs", "init", repo, str(old)]) == 0
    assert main(["vs", "commit", repo, str(new)]) == 0
    assert main(["vs", "checkout", repo, "2", "-o", version]) == 0
    assert graphs_equivalent(load_graph(version), load_graph(str(new)))
    assert main(["diff", str(old), str(new), "-o", delta]) == 0
    assert main(["patch", str(old), delta, "-o", patched]) == 0
    assert graphs_equivalent(load_graph(patched), load_graph(str(new)))
    capsys.readouterr()


def test_diff_patch_pipe_round_trips_byte_identically(tmp_path):
    # diff to stdout, patch from stdin, compare canonical serializations
    diff = subprocess.run(
        [sys.executable, "-m", "bnodematch", "diff", G1, G2],
        capture_output=True, check=True,
    )
    patch = subprocess.run(
        [sys.executable, "-m", "bnodematch", "patch", G1, "-"],
        input=diff.stdout, capture_output=True, check=True,
    )
    canonical = subprocess.run(
        [sys.executable, "-m", "bnodematch", "patch", G2,  "-"],
        input=b"# direction=target-labels\n", capture_output=True, check=True,
    )
    assert patch.stdout == canonical.stdout


def test_one_process_runs_verbs_as_separate_processes_do(tmp_path, capsys):
    # main reuses one parser for the life of the process; parsing must
    # leave nothing behind that changes a later command.
    def commands(repo: str) -> list[list[str]]:
        return [
            ["diff", G1, G2, "--labels", "source"],
            ["equiv", G1, G2NB],
            ["equiv", G1, G2],
            ["vs", "init", repo, G1],
            ["vs", "commit", repo, G2],
            ["diff", G2, G3, "--equiv", "suffix", "--exact-threshold", "0"],
        ]

    separate = [
        subprocess.run([sys.executable, "-m", "bnodematch", *argv],
                       capture_output=True, text=True)
        for argv in commands(str(tmp_path / "separate"))
    ]
    capsys.readouterr()
    for argv, expected in zip(commands(str(tmp_path / "one")), separate):
        assert main(argv) == expected.returncode, argv
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == (expected.stdout, expected.stderr), argv


@pytest.mark.parametrize("verb", ["diff", "equiv", "integrate", "vs init"])
def test_a_surrogate_escape_is_a_parse_error(tmp_path, capsys, verb):
    sur = tmp_path / "sur.nt"
    sur.write_text('<http://a> <http://p> "x" .\n_:b <http://p> "\\uD800" .\n')
    repo = tmp_path / "repo"
    first = str(repo) if verb == "vs init" else G1
    assert main([*verb.split(), first, str(sur)]) == 3
    assert "line 2" in capsys.readouterr().err
    assert not repo.exists()


class TestDecisionCommands:
    def test_equiv_yes_prints_the_bijection(self, capsys):
        assert main(["equiv", G1, G2NB]) == 0
        assert capsys.readouterr().out.strip() == "M 1 2"

    def test_equiv_no(self, capsys):
        assert main(["equiv", G1, G2]) == 1
        capsys.readouterr()

    def test_entail_yes_prints_the_witness(self, capsys):
        assert main(["entail", G2, G1]) == 0
        assert capsys.readouterr().out.strip() == "M 1 _:2"

    def test_entail_no(self, capsys):
        assert main(["entail", G1, G2]) == 1
        capsys.readouterr()


def test_match_writes_the_mapping_file(tmp_path, capsys):
    out = tmp_path / "m.bm"
    assert main(["match", G2, G3, "-o", str(out)]) == 0
    text = out.read_text()
    assert text.splitlines()[0] == "M 2 3"
    assert "cost=8" in text
    capsys.readouterr()


def test_integrate_writes_merged_graph(tmp_path, capsys):
    out = tmp_path / "merged.nt"
    rc = main(["integrate", G1, G2, G3, G4, "--equiv", "suffix", "-o", str(out)])
    assert rc == 0
    err = capsys.readouterr().err
    assert "bnode link: src1_1 src2_2" in err
    assert "bnode link: src3_3 src4_4" in err
    merged = load_graph(str(out))
    assert "sameAs" in "".join(t.p.value for t in merged)


def test_integrate_review_reads_decisions_from_stdin(tmp_path, capsys, monkeypatch):
    import io

    out = tmp_path / "merged.nt"
    monkeypatch.setattr("sys.stdin", io.StringIO("n\n"))
    rc = main(["integrate", G1, G2, "--equiv", "suffix", "--review", "-o", str(out)])
    assert rc == 0
    assert "bnode link" not in capsys.readouterr().err


def test_integrate_review_refuses_a_source_on_stdin(tmp_path, capsys, monkeypatch):
    import io

    # --review reads its answers from stdin, which the source already took
    monkeypatch.setattr("sys.stdin", io.StringIO(Path(G1).read_text()))
    out = tmp_path / "merged.nt"
    assert main(["integrate", "-", G2, "--equiv", "suffix", "--review", "-o", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: stdin ('-') can be read only once; name it for one input only\n"
    assert not out.exists()


def test_sameas_equiv_flag(tmp_path, capsys):
    pairs = tmp_path / "pairs.nt"
    pairs.write_text(
        "<http://www.example.com/music/v0/John_Lennon> "
        "<http://www.w3.org/2002/07/owl#sameAs> "
        "<http://www.dbpedia.org/John_Lennon> .\n"
    )
    out = tmp_path / "merged.nt"
    rc = main(["integrate", G3, G4, "--equiv", f"sameas:{pairs}", "-o", str(out)])
    assert rc == 0
    assert ("uri link: <http://www.example.com/music/v0/John_Lennon> "
            "<http://www.dbpedia.org/John_Lennon>") in capsys.readouterr().err
    # match reads the same flag: g3's address bnode, hung off the dbpedia
    # name, aligns its hasAddress in-edge only when the names are one
    moved = tmp_path / "moved.nt"
    moved.write_text(Path(G3).read_text().replace(
        "<http://www.example.com/music/v0/John_Lennon> "
        "<http://www.example.com/music/v0/hasAddress>",
        "<http://www.dbpedia.org/John_Lennon> <http://www.example.com/music/v0/hasAddress>",
    ))
    costs = []
    for equiv in ("exact", f"sameas:{pairs}"):
        mapping = tmp_path / "m.bm"
        assert main(["match", G3, str(moved), "--equiv", equiv, "-o", str(mapping)]) == 0
        lines = mapping.read_text().splitlines()
        assert lines[0] == "M 3 3"
        costs.append(lines[-1].split()[1])
    assert costs == ["cost=2", "cost=0"]


def test_diff_and_patch_with_n_triples_1_1_labels(tmp_path, capsys):
    src = tmp_path / "a.nt"
    dst = tmp_path / "b.nt"
    src.write_text(
        "_:genid-1 <http://x/p> _:b.1.\n"
        "_:b.1 <http://x/q> \"v\" .\n"
        "_:n\u00e9\u00b7x <http://x/q> \"w\" .\n"
    )
    dst.write_text(
        "_:r-9 <http://x/p> _:r..2.\n"
        "_:r..2 <http://x/q> \"v\" .\n"
        "_:\u00e9\u0301 <http://x/q> \"w2\" .\n"
    )
    for labels in ("target", "source"):
        delta = tmp_path / f"{labels}.rdfd"
        patched = tmp_path / f"{labels}.nt"
        assert main(["diff", str(src), str(dst), "--labels", labels, "-o", str(delta)]) == 0
        assert main(["patch", str(src), str(delta), "-o", str(patched)]) == 0
        assert graphs_equivalent(load_graph(str(patched)), load_graph(str(dst)))
    assert "M genid-1 r-9" in (tmp_path / "target.rdfd").read_text().splitlines()
    mapping = tmp_path / "m.bm"
    assert main(["match", str(src), str(dst), "-o", str(mapping)]) == 0
    pairs = {(a.value, b.value) for a, b in parse_mapping(mapping.read_text()).pairs.items()}
    assert {("genid-1", "r-9"), ("b.1", "r..2")} <= pairs
    capsys.readouterr()


def test_bad_equiv_value_is_usage_error(capsys):
    assert main(["diff", G1, G2, "--equiv", "fuzzy"]) == 2
    message = capsys.readouterr().err
    assert "bad --equiv value 'fuzzy'" in message
    for verb in ("match", "integrate"):
        assert main([verb, G1, G2, "--equiv", "fuzzy"]) == 2
        assert capsys.readouterr().err == message


class TestVersionStoreCommands:
    def test_full_cycle(self, tmp_path, capsys):
        repo = str(tmp_path / "repo")
        assert main(["vs", "init", repo, G1]) == 0
        assert main(["vs", "commit", repo, G2]) == 0
        assert main(["vs", "commit", repo, G3]) == 0
        out = tmp_path / "v2.nt"
        assert main(["vs", "checkout", repo, "2", "-o", str(out)]) == 0
        assert graphs_equivalent(load_graph(str(out)), load_graph(G2))
        patch_file = tmp_path / "p.rdfd"
        assert main(["vs", "patch", repo, "--from", "1", "--to", "3",
                     "-o", str(patch_file)]) == 0
        assert patch_file.read_text().startswith("# direction=target-labels\n")
        capsys.readouterr()

    def test_checkout_out_of_range_is_usage_error(self, tmp_path, capsys):
        repo = str(tmp_path / "repo")
        main(["vs", "init", repo, G1])
        assert main(["vs", "checkout", repo, "9"]) == 2
        capsys.readouterr()

    def test_missing_repo_is_io_error(self, tmp_path, capsys):
        assert main(["vs", "checkout", str(tmp_path / "nope"), "1"]) == 3
        capsys.readouterr()

    @pytest.mark.parametrize("line", ["versions", "versions x", "base.nt"])
    def test_corrupt_manifest_is_io_error(self, tmp_path, capsys, line):
        repo = tmp_path / "repo"
        assert main(["vs", "init", str(repo), G1]) == 0
        (repo / "manifest.txt").write_text(line + "\n")
        assert main(["vs", "checkout", str(repo), "1"]) == 3
        err = capsys.readouterr().err
        assert err == f"error: {repo}: corrupt manifest\n"

    def test_a_delta_left_out_of_the_manifest_is_io_error(self, tmp_path, capsys):
        repo = tmp_path / "repo"
        for argv in (["init", str(repo), G1], ["commit", str(repo), G2],
                     ["commit", str(repo), G3]):
            assert main(["vs", *argv]) == 0
        manifest = repo / "manifest.txt"
        kept = [l for l in manifest.read_text().splitlines(True) if not l.startswith("0002")]
        manifest.write_text("".join(kept))
        with open(repo / "0002.rdfd", "a") as fh:
            fh.write("A <http://evil> <http://x/p> <http://x/o> .\n")
        capsys.readouterr()
        assert main(["vs", "checkout", str(repo), "3"]) == 3
        captured = capsys.readouterr()
        assert captured.err == f"error: {repo}: corrupt manifest\n"
        assert "evil" not in captured.out

    @pytest.mark.parametrize("verb", [["checkout", "1"], ["commit", G2]])
    def test_a_store_file_that_is_not_utf8_is_io_error(self, tmp_path, capsys, verb):
        from bnodematch.store import _write_manifest

        repo = tmp_path / "repo"
        assert main(["vs", "init", str(repo), G1]) == 0
        with open(repo / "base.nt", "ab") as fh:
            fh.write(b"# \xff\n")
        _write_manifest(repo, 1)
        capsys.readouterr()
        assert main(["vs", verb[0], str(repo), *verb[1:]]) == 3
        assert capsys.readouterr().err == (
            f"error: {repo}: base.nt is not UTF-8 (invalid start byte at byte "
            f"{(repo / 'base.nt').stat().st_size - 2})\n"
        )

    @pytest.mark.parametrize("verb", [["checkout", "2"], ["commit", G3]], ids=["checkout", "commit"])
    @pytest.mark.parametrize("name, line", [
        ("base.nt", "<http://x/s> <http://x/p> bad .\n"),
        ("0001.rdfd", "A <http://x/s> <http://x/p> bad .\n"),
    ], ids=["base", "delta"])
    def test_a_malformed_line_in_a_store_file_names_the_file(self, tmp_path, capsys,
                                                             name, line, verb):
        from bnodematch.store import _write_manifest

        repo = tmp_path / "repo"
        assert main(["vs", "init", str(repo), G1]) == 0
        assert main(["vs", "commit", str(repo), G2]) == 0
        with open(repo / name, "a", encoding="utf-8") as fh:
            fh.write(line)
        _write_manifest(repo, 2)
        line_no = len((repo / name).read_text(encoding="utf-8").splitlines())
        capsys.readouterr()
        assert main(["vs", verb[0], str(repo), *verb[1:]]) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"error: {repo / name}: line {line_no}: malformed object")

    @pytest.mark.parametrize("name", ["base.nt", "manifest.txt", "0001.rdfd", "new.nt", "."])
    def test_output_inside_the_repository_is_refused(self, tmp_path, capsys, name):
        repo = tmp_path / "repo"
        assert main(["vs", "init", str(repo), G1]) == 0
        assert main(["vs", "commit", str(repo), G2]) == 0
        before = {p.name: p.read_bytes() for p in repo.iterdir()}
        out = str(repo / name)
        capsys.readouterr()
        assert main(["vs", "checkout", str(repo), "2", "-o", out]) == 2
        assert "refusing to overwrite" in capsys.readouterr().err
        assert main(["vs", "patch", str(repo), "--from", "1", "--to", "2", "-o", out]) == 2
        assert "refusing to overwrite" in capsys.readouterr().err
        assert {p.name: p.read_bytes() for p in repo.iterdir()} == before
        assert main(["vs", "checkout", str(repo), "2"]) == 0
        capsys.readouterr()


def test_gen_and_bench(tmp_path, capsys):
    pairs_root = tmp_path / "pairs"
    for seed in (1, 2):
        rc = main([
            "gen", "--bnodes", "4", "--triples", "3", "--connectivity", "0.5",
            "--mutations", "2", "--seed", str(seed),
            "-o", str(pairs_root / f"pair{seed}"),
        ])
        assert rc == 0
    csv_out = tmp_path / "bench.csv"
    assert main(["bench", str(pairs_root), "-o", str(csv_out)]) == 0
    lines = csv_out.read_text().splitlines()
    assert lines[0] == "instance,tier,cost,optimum_bound,wall_time_s"
    assert len(lines) == 1 + 2 * 2  # two configurations per pair
    capsys.readouterr()


def _generated_pair(tmp_path) -> Path:
    pair = tmp_path / "pairs" / "p1"
    assert main(["gen", "--bnodes", "3", "--seed", "1", "-o", str(pair)]) == 0
    return pair


@pytest.mark.parametrize("name", ["g1.nt", "g2.nt", "truth.bm"])
def test_bench_refuses_to_overwrite_an_input(tmp_path, capsys, name):
    pair = _generated_pair(tmp_path)
    before = {p.name: p.read_bytes() for p in pair.iterdir()}
    capsys.readouterr()
    assert main(["bench", str(tmp_path / "pairs"), "-o", str(pair / name)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: refusing to overwrite input directory")
    assert {p.name: p.read_bytes() for p in pair.iterdir()} == before
    assert main(["bench", str(tmp_path / "pairs")]) == 0
    capsys.readouterr()


@pytest.mark.parametrize("line", ["M b0 zzz", "M nope m1"], ids=["image", "domain"])
def test_bench_rejects_a_truth_pair_naming_an_absent_bnode(tmp_path, capsys, line):
    pair = _generated_pair(tmp_path)
    truth = pair / "truth.bm"
    truth.write_text(truth.read_text().replace("M b0 m1", line))
    capsys.readouterr()
    assert main(["bench", str(tmp_path / "pairs")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: mapping pair") and line.split()[-1] in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv",
    [
        ["diff", "-", "-"],
        ["patch", "-", "-"],
        ["match", "-", "-"],
        ["equiv", "-", "-"],
        ["entail", "-", "-"],
        ["integrate", "-", "-"],
        ["integrate", G1, "-", G2, "-"],
    ],
    ids=["diff", "patch", "match", "equiv", "entail", "integrate", "integrate-of-four"],
)
def test_stdin_named_for_two_inputs_is_a_usage_error(capsys, monkeypatch, argv):
    import io

    monkeypatch.setattr("sys.stdin", io.StringIO('_:x <http://x/p> "v" .\n'))
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: stdin ('-') can be read only once; name it for one input only\n"


# -- parse errors name their document ------------------------------------------

_MALFORMED = '<http://x/s> <http://x/p> "ok" .\n<http://x/s> <http://x/p> oops .\n'
_MALFORMED_ERR = "line 2: malformed object at column 26\n"


@pytest.mark.parametrize("verb", ["diff-first", "diff-second", "patch", "vs-init", "sameas"])
def test_a_parse_error_names_the_file_it_is_in(tmp_path, capsys, verb):
    bad = tmp_path / "bad.nt"
    bad.write_text(_MALFORMED)
    delta = tmp_path / "bad.rdfd"
    delta.write_text("# direction=target-labels\nX <http://a> <http://p> <http://b> .\n")
    repo = tmp_path / "repo"
    argv, named, message = {
        "diff-first": (["diff", str(bad), G1], bad, _MALFORMED_ERR),
        "diff-second": (["diff", G1, str(bad)], bad, _MALFORMED_ERR),
        "patch": (["patch", G1, str(delta)], delta, "line 2: unknown delta line tag: 'X'\n"),
        "vs-init": (["vs", "init", str(repo), str(bad)], bad, _MALFORMED_ERR),
        "sameas": (["diff", G1, G2, "--equiv", f"sameas:{bad}"], bad, _MALFORMED_ERR),
    }[verb]
    assert main(argv) == 3
    assert capsys.readouterr().err == f"error: {named}: {message}"
    assert not repo.exists()


@pytest.mark.parametrize("argv", [["diff", "-", G1], ["diff", G1, "-"], ["patch", G1, "-"]],
                         ids=["diff-first", "diff-second", "patch"])
def test_a_parse_error_on_stdin_names_it_dash(capsys, monkeypatch, argv):
    import io

    text = "# direction=target-labels\nX _:a <http://p> _:b .\n" if argv[0] == "patch" else _MALFORMED
    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(text.encode())))
    assert main(argv) == 3
    message = "line 2: unknown delta line tag: 'X'\n" if argv[0] == "patch" else _MALFORMED_ERR
    assert capsys.readouterr().err == f"error: -: {message}"


# -- a raw CR ends a line, whatever the document is read from -----------------

_CR_DOCUMENTS = {
    "cr": b'<http://x/s> <http://x/p> "a" .\r_:b <http://x/p> "c" .\r',
    "crlf": b'<http://x/s> <http://x/p> "a" .\r\n_:b <http://x/p> "c" .\r\n',
    "mixed": b'_:b <http://x/p> "a" .\r\n\r_:b <http://x/q> _:c .\n_:c <http://x/p> "d" .\r',
    "cr-in-literal": b'<http://x/s> <http://x/p> "a\rb" .\n',
    "error-after-crlf": b'<http://x/s> <http://x/p> "a" .\r\n\r\n<http://x/s> oops .\r\n',
    "error-after-cr": b'<http://x/s> <http://x/p> "a" .\r\r<http://x/s> oops .\r',
}


@pytest.mark.parametrize("doc", sorted(_CR_DOCUMENTS))
def test_file_stdin_and_store_read_the_same_bytes_alike(tmp_path, capsys, monkeypatch, doc):
    import io

    data = _CR_DOCUMENTS[doc]
    source = tmp_path / "g.nt"
    source.write_bytes(data)
    empty = tmp_path / "empty.rdfd"
    empty.write_text("# direction=target-labels\n")
    outcomes = []
    for route in ("file", "stdin", "store"):
        out, repo = tmp_path / f"{route}.nt", tmp_path / f"{route}-repo"
        if route == "store":
            rc = main(["vs", "init", str(repo), str(source)])
            rc = rc or main(["vs", "checkout", str(repo), "1", "-o", str(out)])
        else:
            monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(data)))
            rc = main(["patch", "-" if route == "stdin" else str(source), str(empty),
                       "-o", str(out)])
        err = capsys.readouterr().err.replace(f"{source}: ", "").replace("-: ", "")
        outcomes.append((rc, err, out.read_bytes() if out.exists() else None))
    assert outcomes[0] == outcomes[1] == outcomes[2]
    rc, err, graph = outcomes[0]
    if doc.startswith("error") or doc == "cr-in-literal":
        line = 1 if doc == "cr-in-literal" else 3
        assert rc == 3 and err.startswith(f"error: line {line}: ")
    else:
        lf_only = data.decode().replace("\r\n", "\n").replace("\r", "\n")
        assert rc == 0 and graph == serialize_ntriples(parse_ntriples(lf_only).graph).encode()


# -- a Graph is built only where its index is read -----------------------------

# Graph builds per request: the inputs, the store head and the integration
# sources are Graphs, and so are the results of patch, checkout and
# integrate.  Two sources need no corpus Graph beside the first source.
_GRAPH_BUILDS = {
    "diff": 2, "diff --labels source": 2, "patch": 2, "match": 2, "equiv": 2, "entail": 2,
    "vs commit": 2, "vs patch": 2, "vs checkout": 1, "integrate": 5, "integrate --unify": 5,
}


def test_graph_builds_per_request(tmp_path, capsys, monkeypatch):
    from bnodematch import model
    from bnodematch.generator import GenSpec, generate_pair, write_pair

    for name, mutations in (("mutated", 3), ("relabelled", 0)):
        spec = GenSpec(bnode_count=30, ground_triples=15, mutation_ops=mutations, seed=5)
        write_pair(generate_pair(spec), spec, str(tmp_path / name))
    g1, g2 = str(tmp_path / "mutated" / "g1.nt"), str(tmp_path / "mutated" / "g2.nt")
    r1, r2 = str(tmp_path / "relabelled" / "g1.nt"), str(tmp_path / "relabelled" / "g2.nt")
    delta, repo = str(tmp_path / "d.rdfd"), str(tmp_path / "repo")
    assert main(["diff", g1, g2, "-o", delta]) == 0
    assert main(["vs", "init", repo, g1]) == 0

    builds = []
    init = model.Graph.__init__

    def counted(self, *args, **kwargs):
        builds.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(model.Graph, "__init__", counted)
    argvs = {
        "diff": ["diff", g1, g2],
        "diff --labels source": ["diff", g1, g2, "--labels", "source"],
        "patch": ["patch", g1, delta],
        "match": ["match", g1, g2],
        "equiv": ["equiv", r1, r2],  # equivalent, so the matcher's pairs are checked
        "entail": ["entail", r1, r2],  # entailed, so the witness is verified
        "vs commit": ["vs", "commit", repo, g2],
        "vs patch": ["vs", "patch", repo, "--from", "1", "--to", "2"],
        "vs checkout": ["vs", "checkout", repo, "2"],
        "integrate": ["integrate", g1, g2],
        "integrate --unify": ["integrate", g1, g2, "--unify"],
    }
    counts = {}
    for verb, argv in argvs.items():
        builds.clear()
        assert main(argv) == 0, verb
        counts[verb] = len(builds)
    capsys.readouterr()
    assert counts == _GRAPH_BUILDS


# -- the exact tier on unrelated graphs ---------------------------------------


def _four_against_forty(tmp_path) -> tuple[str, str]:
    """Unrelated graphs of 4 and 40 bnodes: ``g1`` of seed 1 and ``g2`` of seed 2."""
    from bnodematch.generator import GenSpec, generate_pair
    from bnodematch.ntriples import save_graph

    small, large = str(tmp_path / "small.nt"), str(tmp_path / "large.nt")
    save_graph(generate_pair(GenSpec(4, 2, seed=1)).g1, small)
    save_graph(generate_pair(GenSpec(40, 2, seed=2)).g2, large)
    return small, large


def test_diff_of_four_against_forty_bnodes_finishes_within_ten_seconds(tmp_path):
    small, large = _four_against_forty(tmp_path)
    delta, patched = str(tmp_path / "d.rdfd"), str(tmp_path / "patched.nt")
    start = time.monotonic()
    run = subprocess.run([sys.executable, "-m", "bnodematch", "diff", small, large, "-o", delta],
                         capture_output=True, timeout=120)
    elapsed = time.monotonic() - start
    assert run.returncode == 0, run.stderr
    assert elapsed < 10.0, f"diff took {elapsed:.1f} s"
    assert main(["patch", small, delta, "-o", patched]) == 0
    assert graphs_equivalent(load_graph(patched), load_graph(large))


# Runs ``match`` and ``diff`` on each (graph1, graph2) pair of its arguments.
_MATCH_AND_DIFF = """
import sys
from bnodematch.cli import main
paths = sys.argv[1:]
for a, b in zip(paths[::2], paths[1::2]):
    for verb in ("match", "diff"):
        print(verb, a, b, flush=True)
        assert main([verb, a, b]) == 0
"""


def test_outputs_do_not_depend_on_the_hash_seed(tmp_path):
    small, large = _four_against_forty(tmp_path)
    pairs = list(itertools.permutations([G1, G2, G2NB, G3, G4], 2))
    pairs += [(small, large), (large, small)]
    args = [path for pair in pairs for path in pair]
    outputs = []
    for seed in ("0", "1"):
        run = subprocess.run([sys.executable, "-c", _MATCH_AND_DIFF, *args], capture_output=True,
                             env=dict(os.environ, PYTHONHASHSEED=seed), timeout=300)
        assert run.returncode == 0, run.stderr
        outputs.append(run.stdout)
    assert outputs[0] == outputs[1]
    assert outputs[0].count(b"# cost=") == len(pairs)

"""Delta-based version store: commits, checkouts, sync patches."""

from __future__ import annotations

import os
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest

from bnodematch import (
    Graph,
    Triple,
    apply_delta,
    graphs_equivalent,
    load_graph,
    plain_delta,
    rename_graph,
    reverse_delta,
)
from bnodematch.delta import (
    SOURCE_LABELS,
    TARGET_LABELS,
    DeltaScript,
    format_delta,
    load_delta,
    mapped_delta,
)
from bnodematch import ntriples
from bnodematch.matcher import match_bnodes
from bnodematch.store import VersionStore, StoreError, _write_manifest
from conftest import random_relabeling, small_pair


@pytest.fixture
def repo(tmp_path, g1):
    return VersionStore.init(tmp_path / "repo", g1)


def test_init_creates_version_one(repo, g1):
    assert repo.version_count == 1
    assert repo.checkout(1) == g1  # the base is stored verbatim


def test_running_example_commit_sizes(repo, g2, g3):
    first = repo.commit(g2)
    assert first.size == 1  # the single birthday addition
    second = repo.commit(g3)
    assert second.size == 8  # four deletions, four additions
    assert repo.version_count == 3
    assert repo.stored_operation_count() == 9


def test_checkouts_reconstruct_each_version(repo, g1, g2, g3):
    repo.commit(g2)
    repo.commit(g3)
    assert graphs_equivalent(repo.checkout(1), g1)
    assert graphs_equivalent(repo.checkout(2), g2)
    assert graphs_equivalent(repo.checkout(3), g3)


def test_committing_an_identical_graph_appends_an_empty_delta(repo, g1):
    script = repo.commit(g1)
    assert script.is_empty()
    assert repo.version_count == 2
    assert graphs_equivalent(repo.checkout(2), g1)


def test_checkout_rejects_out_of_range(repo):
    with pytest.raises(ValueError):
        repo.checkout(0)
    with pytest.raises(ValueError):
        repo.checkout(2)


def test_reopening_reads_the_manifest(tmp_path, g1, g2):
    store = VersionStore.init(tmp_path / "r", g1)
    store.commit(g2)
    reopened = VersionStore(tmp_path / "r")
    assert reopened.version_count == 2
    assert graphs_equivalent(reopened.checkout(2), g2)


def test_corrupted_content_is_detected(tmp_path, g1, g2):
    store = VersionStore.init(tmp_path / "r", g1)
    store.commit(g2)
    delta_file = tmp_path / "r" / "0001.rdfd"
    delta_file.write_text(delta_file.read_text() + "# tampered\n")
    with pytest.raises(StoreError):
        VersionStore(tmp_path / "r")


@pytest.mark.parametrize("line", ["versions", "versions x", "base.nt"])
def test_corrupt_manifest_lines_raise_store_error(repo, line):
    manifest = repo.path / "manifest.txt"
    manifest.write_text(manifest.read_text() + line + "\n")
    with pytest.raises(StoreError, match="corrupt manifest"):
        VersionStore(repo.path)


@pytest.mark.parametrize(
    "edit",
    [
        lambda lines: [l for l in lines if not l.startswith("0002.rdfd")],
        lambda lines: lines + [lines[1]],
        lambda lines: lines + ["0003.rdfd " + "0" * 64],
        lambda lines: [l.replace("0002.rdfd", "0009.rdfd") for l in lines],
    ],
    ids=["delta-left-out", "base-twice", "file-past-the-count", "wrong-name"],
)
def test_manifest_must_list_exactly_the_version_files(tmp_path, g1, g2, g3, edit):
    store = VersionStore.init(tmp_path / "r", g1)
    store.commit(g2)
    store.commit(g3)
    manifest = tmp_path / "r" / "manifest.txt"
    manifest.write_text("".join(l + "\n" for l in edit(manifest.read_text().splitlines())))
    # a delta the manifest no longer vouches for may say anything
    with open(tmp_path / "r" / "0002.rdfd", "a") as fh:
        fh.write("A <http://evil> <http://x/p> <http://x/o> .\n")
    with pytest.raises(StoreError, match="corrupt manifest"):
        VersionStore(tmp_path / "r")


def test_init_refuses_nonempty_directories(tmp_path, g1):
    target = tmp_path / "busy"
    target.mkdir()
    (target / "junk").write_text("x")
    with pytest.raises(StoreError):
        VersionStore.init(target, g1)


@pytest.mark.parametrize("existing", [False, True], ids=["new-dir", "empty-dir"])
def test_a_failed_init_leaves_nothing_behind(tmp_path, g1, monkeypatch, existing):
    target = tmp_path / "repo"
    if existing:
        target.mkdir()

    def write_nothing_then_fail(g, path):
        Path(path).write_bytes(b"")
        raise OSError("disk full")

    monkeypatch.setattr(ntriples, "save_graph", write_nothing_then_fail)
    with pytest.raises(OSError, match="disk full"):
        VersionStore.init(target, g1)
    monkeypatch.undo()
    assert target.exists() == existing
    if existing:
        assert list(target.iterdir()) == []
    VersionStore.init(target, g1)  # a second attempt starts afresh
    assert VersionStore(target).checkout(1) == g1


def test_lock_excludes_concurrent_writers(repo, g2):
    # a live writer: this process
    (repo.path / "lock").write_text(str(os.getpid()))
    with pytest.raises(StoreError, match=re.escape(str(repo.path / "lock"))):
        repo.commit(g2)
    (repo.path / "lock").unlink()
    repo.commit(g2)  # proceeds once the lock is gone


def _exited_pid() -> int:
    child = subprocess.Popen([sys.executable, "-c", "pass"])
    child.wait()  # reaped, so the pid names no process
    return child.pid


def test_lock_of_an_exited_writer_is_cleared(repo, g2):
    lock = repo.path / "lock"
    lock.write_text(str(_exited_pid()))
    assert repo.commit(g2).size == 1
    assert repo.version_count == 2
    assert not lock.exists()  # the commit released the lock it took over


@pytest.mark.parametrize("content", ["", "not-a-pid", "0", "-1"])
def test_empty_or_unparsable_lock_still_blocks(repo, g2, content):
    lock = repo.path / "lock"
    lock.write_text(content)
    with pytest.raises(StoreError, match=re.escape(str(lock))):
        repo.commit(g2)
    assert lock.exists()
    assert repo.version_count == 1


class TestSyncPatch:
    def test_same_version_patch_is_empty(self, repo):
        assert repo.sync_patch(1, 1).is_empty()

    def test_one_step_patch_matches_the_commit_size(self, repo, g2):
        repo.commit(g2)
        assert repo.sync_patch(1, 2).size == 1

    def test_composed_patch_reaches_the_final_version(self, repo, g1, g2, g3):
        repo.commit(g2)
        repo.commit(g3)
        patch = repo.sync_patch(1, 3)
        client, warnings = apply_delta(g1, patch)
        assert warnings == []
        assert graphs_equivalent(client, g3)
        # oracle: direct difference of the two reconstructed versions
        direct = plain_delta(repo.checkout(1), repo.checkout(3))
        assert patch.size == direct.size

    def test_range_validation(self, repo):
        with pytest.raises(ValueError):
            repo.sync_patch(2, 1)
        with pytest.raises(ValueError):
            repo.sync_patch(1, 5)


def test_backwards_reconstruction_via_reversed_deltas(repo, g1, g2, g3):
    s12 = repo.commit(g2)
    s23 = repo.commit(g3)
    head = repo.checkout(3)
    previous, _ = apply_delta(head, reverse_delta(s23))
    assert graphs_equivalent(previous, g2)
    first, _ = apply_delta(previous, reverse_delta(s12))
    assert graphs_equivalent(first, g1)


def test_space_claim_on_the_running_example(repo, g2, g3):
    repo.commit(g2)
    repo.commit(g3)
    assert repo.stored_operation_count() <= len(g2) + len(g3)



def _version_chain(length: int) -> list[Graph]:
    """Generated versions, each a relabelled edit of the last; one repeats."""
    rng = random.Random(12)
    versions = [small_pair(1, bnodes=12).g1]
    for k in range(1, length):
        if k == 4:
            versions.append(versions[-1])  # commits as an empty delta
            continue
        edited = set(versions[-1].triples)
        fresh = sorted(small_pair(100 + k, bnodes=12).g1.triples, key=Triple.sort_key)
        edited.update(fresh[: rng.randint(1, 3)])
        for t in sorted(edited, key=Triple.sort_key)[: rng.randint(0, 2)]:
            edited.discard(t)
        g = Graph(edited)
        versions.append(rename_graph(g, random_relabeling(g, rng, tag=f"v{k}_")))
    return versions


def _delta_lines(root: Path) -> list[str]:
    return [line for path in sorted(root.glob("*.rdfd"))
            for line in path.read_text(encoding="utf-8").splitlines()]


def test_checkout_equals_the_apply_delta_fold(tmp_path):
    versions = _version_chain(12)
    store = VersionStore.init(tmp_path / "r", versions[0])
    scripts = [store.commit(g) for g in versions[1:]]
    assert any(s.is_empty() for s in scripts)
    # callers get the matching; the stored files hold none
    assert all(s.mapping_used is not None for s in scripts)
    lines = _delta_lines(tmp_path / "r")
    assert lines and not [line for line in lines if line.startswith("M ")]
    reopened = VersionStore(tmp_path / "r")
    folded = load_graph(str(tmp_path / "r" / "base.nt"))
    for i in range(1, store.version_count + 1):
        if i > 1:
            delta = load_delta(str(tmp_path / "r" / f"{i - 1:04d}.rdfd"))
            folded, warnings = apply_delta(folded, delta)
            assert warnings == []
        for reader in (store, reopened):
            out = reader.checkout(i)
            assert out == folded
            assert out.graph_id == f"v{i}"
            assert graphs_equivalent(out, versions[i - 1])


def test_checkout_refuses_a_target_labels_delta(repo, g2):
    script = repo.commit(g2)
    relabelled = DeltaScript(script.additions, script.deletions,
                             script.mapping_used, TARGET_LABELS)
    (repo.path / "0001.rdfd").write_text(format_delta(relabelled))
    _write_manifest(repo.path, 2)
    with pytest.raises(StoreError):
        VersionStore(repo.path).checkout(2)


def test_failed_manifest_write_keeps_the_previous_version(repo, g2, g3, monkeypatch):
    repo.commit(g2)
    before = (repo.path / "manifest.txt").read_bytes()
    real_write_text = Path.write_text

    def write_half_then_fail(self, data, *args, **kwargs):
        real_write_text(self, data[: len(data) // 2], *args, **kwargs)
        raise OSError("disk full")

    monkeypatch.setattr(Path, "write_text", write_half_then_fail)
    with pytest.raises(OSError):
        repo.commit(g3)
    monkeypatch.undo()
    assert (repo.path / "manifest.txt").read_bytes() == before
    assert repo.version_count == 2
    # no temp file is left behind; the unlisted delta file is
    assert sorted(p.name for p in repo.path.iterdir()) == [
        "0001.rdfd", "0002.rdfd", "base.nt", "manifest.txt"
    ]
    reopened = VersionStore(repo.path)
    assert reopened.version_count == 2
    assert graphs_equivalent(reopened.checkout(2), g2)
    reopened.commit(g3)  # the unlisted delta file is overwritten
    assert graphs_equivalent(VersionStore(repo.path).checkout(3), g3)


def test_a_commit_after_another_writer_appends_to_its_version(tmp_path, g1, g2, g3):
    first = VersionStore.init(tmp_path / "r", g1)
    second = VersionStore(tmp_path / "r")  # opened before the first one commits
    first.commit(g2)
    second.commit(g3)
    assert second.version_count == 3
    reopened = VersionStore(tmp_path / "r")
    assert reopened.version_count == 3
    assert graphs_equivalent(reopened.checkout(2), g2)
    assert graphs_equivalent(reopened.checkout(3), g3)


def test_a_store_whose_deltas_carry_mapping_lines_still_reads(tmp_path):
    """Repositories written before deltas lost their ``M`` lines."""
    versions = _version_chain(12)
    root = tmp_path / "r"
    VersionStore.init(root, versions[0])
    head = versions[0]
    for k, g in enumerate(versions[1:], start=1):
        script = mapped_delta(head, g, match_bnodes(head, g), SOURCE_LABELS)
        (root / f"{k:04d}.rdfd").write_text(format_delta(script), encoding="utf-8")
        head, _ = apply_delta(head, script)
    _write_manifest(root, len(versions))
    assert any(line.startswith("M ") for line in _delta_lines(root))
    store = VersionStore(root)
    folded = load_graph(str(root / "base.nt"))
    for i in range(1, store.version_count + 1):
        if i > 1:
            folded, warnings = apply_delta(folded, load_delta(str(root / f"{i - 1:04d}.rdfd")))
            assert warnings == []
        assert store.checkout(i) == folded
        assert graphs_equivalent(folded, versions[i - 1])
    store.commit(versions[3])
    assert graphs_equivalent(VersionStore(root).checkout(len(versions) + 1), versions[3])


def test_checkout_replays_the_content_verified_at_open(tmp_path, g1, g2, g3):
    store = VersionStore.init(tmp_path / "r", g1)
    store.commit(g2)
    verified = VersionStore(tmp_path / "r")
    intruder = VersionStore.init(tmp_path / "other", g1)
    intruder.commit(g3)
    (tmp_path / "r" / "0001.rdfd").write_bytes((tmp_path / "other" / "0001.rdfd").read_bytes())
    assert graphs_equivalent(verified.checkout(2), g2)
    with pytest.raises(StoreError, match="content hash mismatch for 0001.rdfd"):
        VersionStore(tmp_path / "r")


@pytest.mark.parametrize("name", ["base.nt", "0001.rdfd"])
def test_a_store_file_that_is_not_utf8_is_a_store_error(tmp_path, g1, g2, name):
    store = VersionStore.init(tmp_path / "r", g1)
    store.commit(g2)
    target = tmp_path / "r" / name
    target.write_bytes(target.read_bytes() + b"# \xff\n")
    _write_manifest(tmp_path / "r", 2)  # the manifest vouches for the bytes
    with pytest.raises(StoreError, match=f"{re.escape(name)} is not UTF-8"):
        VersionStore(tmp_path / "r")


@pytest.mark.parametrize("eol", ["\r", "\r\n"], ids=["cr", "crlf"])
def test_stored_files_with_cr_line_ends_check_out_alike(tmp_path, g1, g2, eol):
    # A base or delta written by another tool with CR line ends reads as
    # the LF file does, since LF, CR LF and CR each end one line.
    store = VersionStore.init(tmp_path / "r", g1)
    store.commit(g2)
    for name in ("base.nt", "0001.rdfd"):
        path = tmp_path / "r" / name
        path.write_bytes(path.read_bytes().replace(b"\n", eol.encode()))
    _write_manifest(tmp_path / "r", 2)
    reopened = VersionStore(tmp_path / "r")
    assert reopened.checkout(1) == store.checkout(1) == g1
    assert reopened.checkout(2) == store.checkout(2)

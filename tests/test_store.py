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
from bnodematch.delta import TARGET_LABELS, DeltaScript, format_delta, load_delta
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


def test_checkout_equals_the_apply_delta_fold(tmp_path):
    versions = _version_chain(12)
    store = VersionStore.init(tmp_path / "r", versions[0])
    scripts = [store.commit(g) for g in versions[1:]]
    assert any(s.is_empty() for s in scripts)
    folded = load_graph(str(tmp_path / "r" / "base.nt"))
    for i in range(1, store.version_count + 1):
        if i > 1:
            delta = load_delta(str(tmp_path / "r" / f"{i - 1:04d}.rdfd"))
            folded, warnings = apply_delta(folded, delta)
            assert warnings == []
        out = store.checkout(i)
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

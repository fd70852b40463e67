"""Delta-based version storage: a base graph plus forward delta files.

Repository layout::

    repo/
      base.nt        first committed version
      0001.rdfd      delta from version 1 to version 2 (source labels)
      0002.rdfd      ...
      manifest.txt   version count and content hashes

Deltas are stored in the repository's own label scope: each commit matches
the incoming graph against the reconstructed head and renames incoming
bnodes into the store's labels, so label identity persists across
versions.  Sync patches go the other way, in the client-friendly scope.
One writer at a time (advisory lock file); readers are unrestricted.
"""

from __future__ import annotations

import hashlib
import os
import tempfile
from contextlib import contextmanager
from pathlib import Path

from . import ntriples
from .delta import (
    SOURCE_LABELS,
    TARGET_LABELS,
    DeltaScript,
    load_delta,
    mapped_delta,
    save_delta,
)
from .matcher import match_bnodes
from .model import Graph

BASE_FILE = "base.nt"
MANIFEST_FILE = "manifest.txt"
LOCK_FILE = "lock"


class StoreError(RuntimeError):
    """Repository-level failure, reported with the repository path."""


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _delta_name(i: int) -> str:
    return f"{i:04d}.rdfd"


def _file_names(version_count: int) -> list[str]:
    """The files a manifest of ``version_count`` versions lists, in order."""
    return [BASE_FILE] + [_delta_name(i) for i in range(1, version_count)]


def _write_manifest(root: Path, version_count: int) -> None:
    """Replace the manifest atomically: readers see the old one or the new one."""
    lines = [f"versions {version_count}"]
    lines.extend(f"{name} {_sha256(root / name)}" for name in _file_names(version_count))
    fd, name = tempfile.mkstemp(dir=root, prefix=f".{MANIFEST_FILE}.", suffix=".tmp")
    os.close(fd)
    tmp = Path(name)
    try:
        tmp.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
        os.replace(tmp, root / MANIFEST_FILE)
    finally:
        tmp.unlink(missing_ok=True)


def _holder_is_gone(lock: Path) -> bool:
    """Does the lock name a pid that runs no process?  Unreadable counts as held."""
    try:
        pid = int(lock.read_text(encoding="ascii"))
        if pid > 0:
            os.kill(pid, 0)
    except ProcessLookupError:
        return True
    except (OSError, ValueError, OverflowError):
        pass
    return False


class VersionStore:
    """A directory holding one base version and its forward deltas."""

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self._version_count = 0
        self._read_manifest()

    # -- creation / loading -------------------------------------------------

    @classmethod
    def init(cls, path: str | Path, base: Graph) -> "VersionStore":
        root = Path(path)
        if root.exists() and any(root.iterdir()):
            raise StoreError(f"{root}: directory exists and is not empty")
        root.mkdir(parents=True, exist_ok=True)
        ntriples.save_graph(base, str(root / BASE_FILE))
        _write_manifest(root, 1)
        return cls(root)

    def _read_manifest(self) -> None:
        manifest = self.path / MANIFEST_FILE
        if not manifest.exists():
            raise StoreError(f"{self.path}: not a repository (no {MANIFEST_FILE})")
        corrupt = StoreError(f"{self.path}: corrupt manifest")
        count = None
        entries: list[tuple[str, str]] = []
        for line in manifest.read_text(encoding="utf-8").splitlines():
            parts = line.split()
            if not parts:
                continue
            if len(parts) < 2 or parts[0] == "versions" and not parts[1].isdecimal():
                raise corrupt
            if parts[0] == "versions":
                count = int(parts[1])
            else:
                entries.append((parts[0], parts[1]))
        # Exactly the files a checkout may read, in order; a count that
        # disagrees with the entries builds no name list.
        if count != len(entries) or [name for name, _ in entries] != _file_names(count):
            raise corrupt
        for name, expected in entries:
            target = self.path / name
            if not target.exists():
                raise StoreError(f"{self.path}: missing file {name}")
            if _sha256(target) != expected:
                raise StoreError(f"{self.path}: content hash mismatch for {name}")
        self._version_count = count

    @contextmanager
    def _write_lock(self):
        """Hold the lock file; one left by a dead writer is taken over."""
        lock = self.path / LOCK_FILE
        for attempt in range(2):
            try:
                fd = os.open(lock, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
                break
            except FileExistsError:
                if attempt or not _holder_is_gone(lock):
                    raise StoreError(f"{lock}: repository is locked by another writer")
                lock.unlink(missing_ok=True)
        try:
            os.write(fd, str(os.getpid()).encode())
            os.close(fd)
            yield
        finally:
            lock.unlink(missing_ok=True)

    # -- queries ------------------------------------------------------------

    @property
    def version_count(self) -> int:
        return self._version_count

    def checkout(self, i: int) -> Graph:
        """Reconstruct version ``i`` (1-based) from base plus deltas."""
        if not 1 <= i <= self._version_count:
            raise ValueError(
                f"version {i} out of range 1..{self._version_count}"
            )
        # Store deltas are source-labels scripts, which apply without
        # renaming, so the replay runs on triple sets and builds one Graph.
        try:
            triples = ntriples.load_graph(str(self.path / BASE_FILE)).triples
            for k in range(1, i):
                name = _delta_name(k)
                script = load_delta(str(self.path / name))
                if script.direction != SOURCE_LABELS:
                    raise StoreError(f"{self.path}: {name} is not a {SOURCE_LABELS} delta")
                triples = (triples - script.deletions) | script.additions
        except OSError as exc:
            raise StoreError(f"{self.path}: {exc}") from exc
        return Graph(triples, f"v{i}")

    def stored_operation_count(self) -> int:
        total = 0
        for k in range(1, self._version_count):
            total += load_delta(str(self.path / _delta_name(k))).size
        return total

    # -- updates ------------------------------------------------------------

    def commit(self, g_new: Graph) -> DeltaScript:
        """Append the new version as a source-labels delta against head."""
        with self._write_lock():
            head = self.checkout(self._version_count)
            mapping = match_bnodes(head, g_new)
            script = mapped_delta(head, g_new, mapping, SOURCE_LABELS)
            name = _delta_name(self._version_count)
            try:
                save_delta(script, str(self.path / name))
            except OSError as exc:
                raise StoreError(f"{self.path}: {exc}") from exc
            _write_manifest(self.path, self._version_count + 1)
            self._version_count += 1
            return script

    def sync_patch(self, frm: int, to: int) -> DeltaScript:
        """One composed patch taking a client from version ``frm`` to ``to``.

        Both versions live in the store's label scope, so the natural
        injection between them is the identity on shared bnodes; the
        result applies to any client copy of version ``frm``.
        """
        if frm > to:
            raise ValueError(f"patch range reversed: {frm} > {to}")
        g_from = self.checkout(frm)
        g_to = self.checkout(to)
        shared = g_from.bnodes() & g_to.bnodes()
        identity = {b: b for b in shared}
        return mapped_delta(g_from, g_to, identity, TARGET_LABELS)

"""Delta-based version storage: a base graph plus forward delta files.

Repository layout::

    repo/
      base.nt        first committed version (N-Triples)
      0001.rdfd      delta from version 1 to version 2 (source labels)
      0002.rdfd      ...
      manifest.txt   version count and content hashes

Deltas are stored in the repository's own label scope: each commit matches
the incoming graph against the reconstructed head and renames incoming
bnodes into the store's labels, so label identity persists across
versions.  A stored delta therefore applies to the previous version as it
stands and holds only its ``D`` and ``A`` lines, not the matching.  Delta
files that also carry ``M`` lines, as the store once wrote them, are still
read; the lines are ignored.  Sync patches go the other way, in the
client-friendly scope.

Opening a store reads every file the manifest lists once and checks it
against its hash; checkouts replay that verified content, not a second read
from disk.  One writer at a time (advisory lock file): a commit re-reads
the manifest under the lock, so it appends to the newest version even when
another writer committed after this store was opened.  Readers are
unrestricted.
"""

from __future__ import annotations

import hashlib
import os
import tempfile
from contextlib import contextmanager
from pathlib import Path
from typing import Sequence

from . import ntriples
from .delta import (
    SOURCE_LABELS,
    TARGET_LABELS,
    DeltaScript,
    mapped_delta,
    parse_delta,
    save_delta,
)
from .matcher import match_bnodes
from .model import Graph

BASE_FILE = "base.nt"
MANIFEST_FILE = "manifest.txt"
LOCK_FILE = "lock"


class StoreError(RuntimeError):
    """Repository-level failure, reported with the repository path."""


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _delta_name(i: int) -> str:
    return f"{i:04d}.rdfd"


def _file_names(version_count: int) -> list[str]:
    """The files a manifest of ``version_count`` versions lists, in order."""
    return [BASE_FILE] + [_delta_name(i) for i in range(1, version_count)]


def _write_manifest(root: Path, version_count: int, hashes: Sequence[str] = ()) -> str:
    """Replace the manifest atomically: readers see the old one or the new one.

    ``hashes`` are those of the first files, known to the caller; the files
    past them are hashed from disk.  Returns the manifest text written.
    """
    names = _file_names(version_count)
    digests = list(hashes) + [_sha256((root / name).read_bytes()) for name in names[len(hashes):]]
    text = f"versions {version_count}\n" + "".join(
        f"{name} {digest}\n" for name, digest in zip(names, digests)
    )
    fd, name = tempfile.mkstemp(dir=root, prefix=f".{MANIFEST_FILE}.", suffix=".tmp")
    os.close(fd)
    tmp = Path(name)
    try:
        tmp.write_text(text, encoding="utf-8")
        os.replace(tmp, root / MANIFEST_FILE)
    finally:
        tmp.unlink(missing_ok=True)
    return text


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
        self._manifest = ""
        self._hashes: list[str] = []
        self._texts: list[str] = []  # verified content of base.nt, 0001.rdfd, ...
        self._read_manifest()

    # -- creation / loading -------------------------------------------------

    @classmethod
    def init(cls, path: str | Path, base: Graph) -> "VersionStore":
        """Create a repository; a failed write leaves no trace of it."""
        root = Path(path)
        if root.exists() and any(root.iterdir()):
            raise StoreError(f"{root}: directory exists and is not empty")
        made_root = not root.exists()
        root.mkdir(parents=True, exist_ok=True)
        try:
            ntriples.save_graph(base, str(root / BASE_FILE))
            _write_manifest(root, 1)
        except BaseException:
            (root / BASE_FILE).unlink(missing_ok=True)
            if made_root:
                root.rmdir()
            raise
        return cls(root)

    def _manifest_text(self) -> str:
        try:
            return (self.path / MANIFEST_FILE).read_text(encoding="utf-8")
        except FileNotFoundError:
            raise StoreError(f"{self.path}: not a repository (no {MANIFEST_FILE})") from None
        except UnicodeDecodeError:
            raise StoreError(f"{self.path}: corrupt manifest") from None

    def _read_manifest(self) -> None:
        """Load the manifest and the verified text of every file it lists."""
        manifest = self._manifest_text()
        corrupt = StoreError(f"{self.path}: corrupt manifest")
        count = None
        entries: list[tuple[str, str]] = []
        for line in manifest.splitlines():
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
        texts = []
        for name, expected in entries:
            try:
                data = (self.path / name).read_bytes()
            except FileNotFoundError:
                raise StoreError(f"{self.path}: missing file {name}") from None
            if _sha256(data) != expected:
                raise StoreError(f"{self.path}: content hash mismatch for {name}")
            try:
                texts.append(data.decode("utf-8"))
            except UnicodeDecodeError as exc:
                raise StoreError(
                    f"{self.path}: {name} is not UTF-8 ({exc.reason} at byte {exc.start})"
                ) from None
        self._manifest = manifest
        self._hashes = [expected for _, expected in entries]
        self._texts = texts

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
        return len(self._texts)

    def checkout(self, i: int) -> Graph:
        """Reconstruct version ``i`` (1-based) from the verified base and deltas."""
        if not 1 <= i <= self.version_count:
            raise ValueError(
                f"version {i} out of range 1..{self.version_count}"
            )
        # Store deltas are source-labels scripts, which apply without
        # renaming, so the replay runs on triple sets and builds one Graph.
        with ntriples.naming(str(self.path / BASE_FILE)):
            triples, _, _ = ntriples._parse_lines(ntriples.split_lines(self._texts[0]))
        for k in range(1, i):
            with ntriples.naming(str(self.path / _delta_name(k))):
                script = parse_delta(self._texts[k])
            if script.direction != SOURCE_LABELS:
                raise StoreError(f"{self.path}: {_delta_name(k)} is not a {SOURCE_LABELS} delta")
            triples = (triples - script.deletions) | script.additions
        return Graph(triples, f"v{i}")

    def stored_operation_count(self) -> int:
        return sum(parse_delta(text).size for text in self._texts[1:])

    # -- updates ------------------------------------------------------------

    def commit(self, g_new: Graph) -> DeltaScript:
        """Append the new version as a source-labels delta against head.

        Returns the script with the matching it was computed with; the
        saved file holds only its deletions and additions.
        """
        with self._write_lock():
            if self._manifest_text() != self._manifest:
                self._read_manifest()  # another writer committed since the store was read
            count = self.version_count
            head = self.checkout(count)
            mapping = match_bnodes(head, g_new)
            script = mapped_delta(head, g_new, mapping, SOURCE_LABELS)
            stored = DeltaScript(script.additions, script.deletions, None, SOURCE_LABELS)
            try:
                data = save_delta(stored, str(self.path / _delta_name(count)))
            except OSError as exc:
                raise StoreError(f"{self.path}: {exc}") from exc
            hashes = self._hashes + [_sha256(data)]
            self._manifest = _write_manifest(self.path, count + 1, hashes)
            self._hashes = hashes
            self._texts.append(data.decode("utf-8"))
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

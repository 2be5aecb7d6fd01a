"""Commit records: the one crash-consistency protocol for every directory.

Checkpoints, model artifacts and shard stores all commit the same way:

1. every file is written by :func:`atomic_write` (or the streaming
   :func:`atomic_writer`): temp file, fsync, rename, fsync the
   directory — durable across power loss, not just process crash;
2. :func:`write_manifest` writes ``manifest.json`` *last*, stamping
   each file's sha256 and size. It is the commit record: a directory
   without one is not committed;
3. :func:`verify_manifest` re-checks the files before a load and
   :func:`load_committed` decodes them, both raising the caller's typed
   error (a :class:`CommitError` subclass), never a parser traceback.

Stdlib only and free of ``repro`` imports, so every layer can use it.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import pickle
from pathlib import Path
from typing import IO, Iterable, Iterator

MANIFEST_FILE = "manifest.json"

#: What a corrupt ``.json`` or ``.pkl`` payload raises while decoding.
_DECODE_ERRORS = (
    ValueError, pickle.UnpicklingError, EOFError, AttributeError, IndexError
)


class CommitError(RuntimeError):
    """A committed directory fails its commit record."""


def _fsync_dir(path: Path) -> None:
    """fsync a directory; best-effort on filesystems that refuse it
    (the rename itself is still atomic)."""
    with contextlib.suppress(OSError):
        fd = os.open(path, os.O_RDONLY)
        try:
            os.fsync(fd)
        finally:
            os.close(fd)


@contextlib.contextmanager
def atomic_writer(path: str | Path) -> Iterator[IO[bytes]]:
    """Yield a binary handle whose bytes durably replace ``path`` on a
    clean exit; an exception leaves ``path`` untouched. Payloads stream
    to disk, never whole in RAM."""
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "wb") as handle:
            yield handle
            handle.flush()
            os.fsync(handle.fileno())
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    os.replace(tmp, path)
    _fsync_dir(path.parent)


def atomic_write(path: str | Path, data: bytes) -> None:
    """Atomic *and durable* write of ``data`` to ``path``."""
    with atomic_writer(path) as handle:
        handle.write(data)


def append_durable(path: str | Path, data: bytes) -> None:
    """Append ``data`` to ``path`` and fsync it. Not atomic: a crash can
    tear the last record, so an appended file must be rebuildable from
    a committed record (see :mod:`repro.serve.alarms`)."""
    with open(path, "ab") as handle:
        handle.write(data)
        handle.flush()
        os.fsync(handle.fileno())


def sha256_file(path: str | Path) -> str:
    """Hex sha256 of a file, read in 1 MiB chunks."""
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def write_manifest(directory: str | Path, filenames: Iterable[str], **fields) -> Path:
    """Commit ``directory``: ``manifest.json`` holds ``fields`` (the
    directory kind's metadata) plus each listed file's sha256 and size.
    Call it only once every listed file is durably in place."""
    path = Path(directory)
    manifest = dict(fields)
    manifest["files"] = {
        name: {
            "sha256": sha256_file(path / name),
            "size": (path / name).stat().st_size,
        }
        for name in filenames
    }
    target = path / MANIFEST_FILE
    atomic_write(target, json.dumps(manifest, indent=2, sort_keys=True).encode())
    return target


def read_manifest(directory: str | Path, error: type[Exception] = CommitError) -> dict:
    """The parsed manifest; ``FileNotFoundError`` when there is none,
    ``error`` when it is not a JSON object."""
    path = Path(directory) / MANIFEST_FILE
    if not path.is_file():
        raise FileNotFoundError(f"{path.parent} is not committed: no manifest")
    try:
        manifest = json.loads(path.read_bytes())
    except ValueError as exc:
        raise error(f"unreadable manifest {path}: {exc}") from exc
    if not isinstance(manifest, dict):
        raise error(f"unreadable manifest {path}: not a JSON object")
    return manifest


def check_file(
    path: str | Path, size, sha256, error: type[Exception] = CommitError
) -> None:
    """Raise ``error`` unless ``path`` exists with this size and sha256."""
    path = Path(path)
    if not path.is_file():
        raise error(f"committed file {path} is missing")
    actual = path.stat().st_size
    if actual != size:
        raise error(
            f"committed file {path} is truncated or overgrown: "
            f"{actual} bytes on disk, {size} in manifest"
        )
    if sha256_file(path) != sha256:
        raise error(f"committed file {path} fails its sha256 content check")


def verify_manifest(
    directory: str | Path,
    filenames: Iterable[str] | None = None,
    error: type[Exception] = CommitError,
) -> dict:
    """Check ``filenames`` (default: all listed) against the manifest
    and return it; ``FileNotFoundError`` when there is no manifest,
    ``error`` for anything else wrong."""
    path = Path(directory)
    manifest = read_manifest(path, error)
    files = manifest.get("files")
    if not isinstance(files, dict):
        raise error(f"unreadable manifest in {path}: no files table")
    for name in files if filenames is None else filenames:
        entry = files.get(name)
        if not isinstance(entry, dict):
            raise error(f"file {name!r} has no manifest entry in {path}")
        check_file(path / name, entry.get("size"), entry.get("sha256"), error)
    return manifest


def load_committed(path: str | Path, error: type[Exception] = CommitError):
    """Decode a committed ``.json`` or ``.pkl`` payload, raising
    ``error`` (not a parser traceback) when it is undecodable."""
    path = Path(path)
    try:
        if path.suffix == ".json":
            return json.loads(path.read_bytes())
        with open(path, "rb") as handle:
            return pickle.load(handle)
    except _DECODE_ERRORS as exc:
        kind = "valid JSON" if path.suffix == ".json" else "a valid pickle"
        raise error(
            f"committed file {path} is not {kind} (truncated write?): {exc}"
        ) from exc

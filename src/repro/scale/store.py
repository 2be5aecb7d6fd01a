"""Sharded on-disk fleet store: npz shards + a sha256 manifest.

A :class:`ShardedDataset` holds the fleet as contiguous drive-serial
partitions, one ``shard_NNNN.npz`` per partition, under a single
``manifest.json`` that mirrors the run-manifest conventions of
:mod:`repro.obs.manifest`: per-shard row/drive counts, file sha256s and
content fingerprints, plus a fleet fingerprint derived from the shard
fingerprints. Nothing in the layout requires the fleet to fit in RAM —
writes stream shard-by-shard through :class:`ShardWriter`, reads stream
through :meth:`ShardedDataset.iter_shards`.

Commits follow :mod:`repro.commit`: every shard is streamed to disk
durably (fsync + rename) as it is added, and the manifest — the commit
record — is written last, so it never vouches for a shard that power
loss could still take back.

Layout::

    <root>/
      manifest.json        # counts, vocab, sha256s, fingerprints
      shard_0000.npz       # columnar telemetry + drive metas + tickets
      shard_0001.npz
      ...

String columns (``firmware``/``vendor``/``model``, ticket text fields,
archetypes) are stored as integer codes against an append-only global
vocabulary kept in the manifest — a million-drive shard then never
serializes a million Python strings, and codes from different shards
always agree. Decoding on load restores the exact object arrays
:class:`~repro.telemetry.dataset.TelemetryDataset` uses in RAM.
"""

from __future__ import annotations

import hashlib
import json
import time
from pathlib import Path

import numpy as np

from repro.commit import (
    MANIFEST_FILE,
    CommitError,
    atomic_write,
    atomic_writer,
    check_file,
    read_manifest,
    sha256_file,
)
from repro.obs import inc_counter, observe_histogram, trace_span
from repro.obs.manifest import dataset_fingerprint
from repro.telemetry.dataset import DriveMeta, TelemetryDataset
from repro.telemetry.tickets import TroubleTicket

__all__ = [
    "MANIFEST_NAME",
    "ShardInfo",
    "ShardManifestError",
    "ShardWriter",
    "ShardedDataset",
    "is_shard_store",
    "write_dataset_sharded",
]

MANIFEST_NAME = MANIFEST_FILE
_FORMAT_VERSION = 1

#: Columns serialized as vocabulary codes rather than object arrays.
_CODED_COLUMNS = ("firmware", "vendor", "model")

#: Sentinel for "drive never failed" in the int64 failure_day array.
_NO_FAILURE = -1


class ShardManifestError(CommitError):
    """The shard store is missing, corrupt, or fails verification."""


class ShardInfo:
    """One shard's manifest record."""

    __slots__ = (
        "index", "filename", "n_drives", "n_rows",
        "first_serial", "last_serial", "n_bytes", "sha256", "fingerprint",
    )

    def __init__(self, index: int, filename: str, n_drives: int, n_rows: int,
                 first_serial: int, last_serial: int, n_bytes: int,
                 sha256: str, fingerprint: str):
        self.index = index
        self.filename = filename
        self.n_drives = n_drives
        self.n_rows = n_rows
        self.first_serial = first_serial
        self.last_serial = last_serial
        self.n_bytes = n_bytes
        self.sha256 = sha256
        self.fingerprint = fingerprint

    def to_dict(self) -> dict:
        return {name: getattr(self, name) for name in self.__slots__}

    @classmethod
    def from_dict(cls, record: dict) -> "ShardInfo":
        return cls(**{name: record[name] for name in cls.__slots__})


class _Vocab:
    """Append-only string vocabularies shared by every shard."""

    def __init__(self, initial: dict[str, list[str]] | None = None):
        self._tables: dict[str, dict[str, int]] = {}
        if initial:
            for name, words in initial.items():
                self._tables[name] = {word: i for i, word in enumerate(words)}

    def encode(self, name: str, values) -> np.ndarray:
        table = self._tables.setdefault(name, {})
        codes = np.empty(len(values), dtype=np.int32)
        for i, value in enumerate(values):
            code = table.get(value)
            if code is None:
                code = len(table)
                table[value] = code
            codes[i] = code
        return codes

    def words(self, name: str) -> list[str]:
        table = self._tables.get(name, {})
        ordered = [""] * len(table)
        for word, code in table.items():
            ordered[code] = word
        return ordered

    def decode(self, name: str, codes: np.ndarray) -> np.ndarray:
        lookup = np.asarray(self.words(name), dtype=object)
        return lookup[codes]

    def to_dict(self) -> dict[str, list[str]]:
        return {name: self.words(name) for name in sorted(self._tables)}


def _pack_shard(dataset: TelemetryDataset, vocab: _Vocab) -> dict[str, np.ndarray]:
    """Flatten one shard's dataset into npz-ready arrays."""
    arrays: dict[str, np.ndarray] = {}
    for name, values in dataset.columns.items():
        if name in _CODED_COLUMNS:
            arrays[f"col_code_{name}"] = vocab.encode(name, values)
        else:
            arrays[f"col_{name}"] = values
    serials = sorted(dataset.drives)
    metas = [dataset.drives[s] for s in serials]
    arrays["meta_serial"] = np.asarray(serials, dtype=np.int64)
    arrays["meta_vendor"] = vocab.encode("vendor", [m.vendor for m in metas])
    arrays["meta_model_id"] = vocab.encode("model", [m.model_id for m in metas])
    arrays["meta_capacity_gb"] = np.asarray(
        [m.capacity_gb for m in metas], dtype=np.int64
    )
    arrays["meta_firmware"] = vocab.encode("firmware", [m.firmware for m in metas])
    arrays["meta_archetype"] = vocab.encode(
        "archetype", [m.archetype for m in metas]
    )
    arrays["meta_failure_day"] = np.asarray(
        [_NO_FAILURE if m.failure_day is None else m.failure_day for m in metas],
        dtype=np.int64,
    )
    tickets = sorted(dataset.tickets, key=lambda t: t.serial)
    arrays["ticket_serial"] = np.asarray(
        [t.serial for t in tickets], dtype=np.int64
    )
    arrays["ticket_imt"] = np.asarray(
        [t.initial_maintenance_time for t in tickets], dtype=np.int64
    )
    arrays["ticket_failure_level"] = vocab.encode(
        "ticket_failure_level", [t.failure_level for t in tickets]
    )
    arrays["ticket_category"] = vocab.encode(
        "ticket_category", [t.category for t in tickets]
    )
    arrays["ticket_cause"] = vocab.encode(
        "ticket_cause", [t.cause for t in tickets]
    )
    return arrays


def _unpack_shard(
    arrays: dict[str, np.ndarray], vocab: _Vocab
) -> TelemetryDataset:
    """Rebuild a shard's :class:`TelemetryDataset` from npz arrays."""
    columns: dict[str, np.ndarray] = {}
    for name, values in arrays.items():
        if name.startswith("col_code_"):
            columns[name[len("col_code_"):]] = vocab.decode(
                name[len("col_code_"):], values
            )
        elif name.startswith("col_"):
            columns[name[len("col_"):]] = values
    vendors = vocab.decode("vendor", arrays["meta_vendor"])
    model_ids = vocab.decode("model", arrays["meta_model_id"])
    firmwares = vocab.decode("firmware", arrays["meta_firmware"])
    archetypes = vocab.decode("archetype", arrays["meta_archetype"])
    drives: dict[int, DriveMeta] = {}
    for i, serial in enumerate(arrays["meta_serial"]):
        failure_day = int(arrays["meta_failure_day"][i])
        drives[int(serial)] = DriveMeta(
            serial=int(serial),
            vendor=str(vendors[i]),
            model_id=str(model_ids[i]),
            capacity_gb=int(arrays["meta_capacity_gb"][i]),
            firmware=str(firmwares[i]),
            archetype=str(archetypes[i]),
            failure_day=None if failure_day == _NO_FAILURE else failure_day,
        )
    levels = vocab.decode("ticket_failure_level", arrays["ticket_failure_level"])
    categories = vocab.decode("ticket_category", arrays["ticket_category"])
    causes = vocab.decode("ticket_cause", arrays["ticket_cause"])
    tickets = [
        TroubleTicket(
            serial=int(arrays["ticket_serial"][i]),
            initial_maintenance_time=int(arrays["ticket_imt"][i]),
            failure_level=str(levels[i]),
            category=str(categories[i]),
            cause=str(causes[i]),
        )
        for i in range(arrays["ticket_serial"].size)
    ]
    return TelemetryDataset(columns, drives, tickets)


class ShardWriter:
    """Streams shards to disk; one :meth:`add_shard` call per partition.

    Shards must arrive in ascending serial order (the generator and the
    in-RAM splitter both do) so that serial → shard lookups can binary-
    search the manifest. :meth:`close` commits the manifest atomically —
    a crash mid-write leaves no manifest, and the store reads as absent
    rather than as a silently truncated fleet.
    """

    def __init__(self, root: str | Path, compress: bool = False):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.compress = compress
        self._vocab = _Vocab()
        self._shards: list[ShardInfo] = []
        self._closed = False

    def add_shard(self, dataset: TelemetryDataset) -> ShardInfo:
        if self._closed:
            raise RuntimeError("writer already closed")
        serials = sorted(dataset.drives)
        if self._shards and serials[0] <= self._shards[-1].last_serial:
            raise ValueError(
                "shards must arrive in ascending, non-overlapping serial order"
            )
        index = len(self._shards)
        filename = f"shard_{index:04d}.npz"
        path = self.root / filename
        arrays = _pack_shard(dataset, self._vocab)
        with trace_span("scale.write_shard"):
            started = time.perf_counter()
            save = np.savez_compressed if self.compress else np.savez
            with atomic_writer(path) as handle:
                save(handle, **arrays)
            observe_histogram(
                "scale_shard_write_seconds", time.perf_counter() - started
            )
        info = ShardInfo(
            index=index,
            filename=filename,
            n_drives=dataset.n_drives,
            n_rows=dataset.n_records,
            first_serial=int(serials[0]),
            last_serial=int(serials[-1]),
            n_bytes=path.stat().st_size,
            sha256=sha256_file(path),
            fingerprint=dataset_fingerprint(dataset),
        )
        self._shards.append(info)
        inc_counter("scale_shards_written_total")
        return info

    def close(self, extra: dict | None = None) -> "ShardedDataset":
        """Commit the manifest and reopen the store read-only."""
        if self._closed:
            raise RuntimeError("writer already closed")
        if not self._shards:
            raise ValueError("cannot commit a store with zero shards")
        self._closed = True
        fleet = hashlib.sha256(
            "".join(info.fingerprint for info in self._shards).encode()
        ).hexdigest()[:16]
        manifest = {
            "format_version": _FORMAT_VERSION,
            "created_at": time.time(),
            "n_shards": len(self._shards),
            "n_drives": sum(info.n_drives for info in self._shards),
            "n_rows": sum(info.n_rows for info in self._shards),
            "n_bytes": sum(info.n_bytes for info in self._shards),
            "fleet_fingerprint": fleet,
            "vocab": self._vocab.to_dict(),
            "shards": [info.to_dict() for info in self._shards],
        }
        if extra:
            manifest.update(extra)
        atomic_write(
            self.root / MANIFEST_NAME,
            json.dumps(manifest, indent=2, sort_keys=True).encode(),
        )
        return ShardedDataset(self.root)


def is_shard_store(path: str | Path) -> bool:
    """True when ``path`` is a committed sharded-dataset directory."""
    return (Path(path) / MANIFEST_NAME).is_file()


class ShardedDataset:
    """Read side of the shard store: manifest + on-demand shard loads."""

    def __init__(self, root: str | Path):
        self.root = Path(root)
        manifest_path = self.root / MANIFEST_NAME
        if not manifest_path.is_file():
            raise ShardManifestError(f"no shard manifest at {manifest_path}")
        self.manifest = read_manifest(self.root, ShardManifestError)
        version = self.manifest.get("format_version")
        if version != _FORMAT_VERSION:
            raise ShardManifestError(
                f"unsupported shard format version {version!r}"
            )
        self.shards = [
            ShardInfo.from_dict(record) for record in self.manifest["shards"]
        ]
        self._vocab = _Vocab(self.manifest["vocab"])

    @property
    def n_shards(self) -> int:
        return len(self.shards)

    @property
    def n_drives(self) -> int:
        return int(self.manifest["n_drives"])

    @property
    def n_rows(self) -> int:
        return int(self.manifest["n_rows"])

    @property
    def n_bytes(self) -> int:
        return int(self.manifest["n_bytes"])

    @property
    def fleet_fingerprint(self) -> str:
        return str(self.manifest["fleet_fingerprint"])

    def load_shard(self, index: int, verify: bool = False) -> TelemetryDataset:
        """Load one shard back into an in-RAM :class:`TelemetryDataset`.

        ``verify=True`` checks the file's size and sha256 against the
        manifest before deserializing (reads the shard twice).
        """
        info = self.shards[index]
        path = self.root / info.filename
        if verify:
            check_file(path, info.n_bytes, info.sha256, ShardManifestError)
        elif not path.is_file():
            raise ShardManifestError(f"manifest lists missing shard {path}")
        with trace_span("scale.read_shard"):
            with np.load(path, allow_pickle=False) as archive:
                arrays = {name: archive[name] for name in archive.files}
        dataset = _unpack_shard(arrays, self._vocab)
        inc_counter("scale_shards_read_total")
        return dataset

    def iter_shards(self, verify: bool = False):
        """Yield ``(ShardInfo, TelemetryDataset)`` per shard, in order."""
        for info in self.shards:
            yield info, self.load_shard(info.index, verify=verify)

    def summary(self) -> dict:
        """Manifest digest for ``repro scale inspect``."""
        return {
            "root": str(self.root),
            "n_shards": self.n_shards,
            "n_drives": self.n_drives,
            "n_rows": self.n_rows,
            "n_bytes": self.n_bytes,
            "fleet_fingerprint": self.fleet_fingerprint,
            "shards": [info.to_dict() for info in self.shards],
        }


def write_dataset_sharded(
    dataset: TelemetryDataset,
    root: str | Path,
    n_shards: int,
    compress: bool = False,
    extra: dict | None = None,
) -> ShardedDataset:
    """Split an in-RAM dataset into contiguous serial partitions on disk.

    The parity-test workhorse: the same fleet can be run through the
    in-RAM and sharded paths and compared drive-for-drive.
    """
    serials = np.sort(dataset.serials)
    if not 1 <= n_shards <= serials.size:
        raise ValueError(f"n_shards must be in [1, {serials.size}]")
    writer = ShardWriter(root, compress=compress)
    for group in np.array_split(serials, n_shards):
        mask = np.isin(dataset.columns["serial"], group)
        shard = dataset.select_rows(mask)
        # select_rows keeps only serials that still have rows; carry the
        # partition's zero-row drives (and their tickets) across too so
        # the sharded fleet's drive table matches the in-RAM one.
        for serial in group:
            if int(serial) not in shard.drives:
                shard.drives[int(serial)] = dataset.drives[int(serial)]
        present = set(int(s) for s in group)
        listed = set(t.serial for t in shard.tickets)
        shard.tickets.extend(
            t for t in dataset.tickets
            if t.serial in present and t.serial not in listed
        )
        writer.add_shard(shard)
    return writer.close(extra=extra)

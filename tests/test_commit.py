"""The commit-record protocol (:mod:`repro.commit`) and its callers.

* unit tests of the primitives: durable writes, the verifier's typed
  errors, the decode helper;
* durability regressions: every file a commit record vouches for is
  fsynced before it is renamed into place, and before the record;
* a property over the five committed directory kinds — flipping any
  byte or truncating at any offset of a committed file never loads;
* a schema pin: each kind's manifest keeps exactly today's keys.
"""

from __future__ import annotations

import json
import os
import shutil
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.commit import (
    CommitError,
    atomic_write,
    atomic_writer,
    load_committed,
    read_manifest,
    verify_manifest,
    write_manifest,
)
from repro.core.deployment import FleetMonitor, RetrainPolicy
from repro.core.pipeline import MFPA, MFPAConfig
from repro.ml.artifact import ArtifactCorruptError, load_model, save_model
from repro.ml.forest import RandomForestClassifier
from repro.obs import get_registry, get_tracer
from repro.obs.manifest import RunContext
from repro.robustness.checkpoint import (
    CheckpointCorruptError,
    load_checkpoint,
    save_checkpoint,
)
from repro.robustness.degraded import fit_reduced_model
from repro.scale import ShardedDataset, ShardedFleetMonitor, write_dataset_sharded
from repro.scale.store import ShardManifestError
from repro.serve import ServeConfig, dataset_to_readings
from repro.serve.daemon import ServeDaemon
from repro.serve.drift import ReferenceProfile
from repro.serve.replay import replay_into

START, END, WINDOW = 240, 300, 30
NEVER_RETRAIN = RetrainPolicy(interval_days=10**9, min_new_failures=10**9)


def _config() -> MFPAConfig:
    return MFPAConfig(
        algorithm=RandomForestClassifier(n_estimators=4, max_depth=4, seed=0)
    )


# ----------------------------------------------------------------------
# Primitives
# ----------------------------------------------------------------------
class TestPrimitives:
    def test_atomic_write_roundtrip(self, tmp_path):
        atomic_write(tmp_path / "a.bin", b"payload")
        assert (tmp_path / "a.bin").read_bytes() == b"payload"
        assert not (tmp_path / "a.bin.tmp").exists()

    def test_failed_stream_leaves_target_untouched(self, tmp_path):
        target = tmp_path / "a.bin"
        atomic_write(target, b"old")
        with pytest.raises(RuntimeError, match="boom"):
            with atomic_writer(target) as handle:
                handle.write(b"half")
                raise RuntimeError("boom")
        assert target.read_bytes() == b"old"
        assert not (tmp_path / "a.bin.tmp").exists()

    def test_manifest_roundtrip(self, tmp_path):
        atomic_write(tmp_path / "a.bin", b"abc")
        write_manifest(tmp_path, ["a.bin"], version=3)
        manifest = verify_manifest(tmp_path)
        assert manifest["version"] == 3
        assert manifest["files"]["a.bin"]["size"] == 3

    def test_no_manifest_is_not_committed(self, tmp_path):
        with pytest.raises(FileNotFoundError, match="not committed"):
            verify_manifest(tmp_path)

    @pytest.mark.parametrize(
        "text", ["{not json", "[1, 2]", '"a string"', "\udcff"]
    )
    def test_unreadable_manifest(self, tmp_path, text):
        (tmp_path / "manifest.json").write_bytes(
            text.encode("utf-8", "surrogateescape")
        )
        with pytest.raises(CheckpointCorruptError, match="manifest"):
            read_manifest(tmp_path, CheckpointCorruptError)

    def test_missing_files_table(self, tmp_path):
        (tmp_path / "manifest.json").write_text('{"version": 1}')
        with pytest.raises(CommitError, match="files"):
            verify_manifest(tmp_path)

    def test_missing_entry(self, tmp_path):
        atomic_write(tmp_path / "a.bin", b"abc")
        write_manifest(tmp_path, ["a.bin"])
        with pytest.raises(CommitError, match="no manifest entry"):
            verify_manifest(tmp_path, ["a.bin", "b.bin"])

    def test_missing_file(self, tmp_path):
        atomic_write(tmp_path / "a.bin", b"abc")
        write_manifest(tmp_path, ["a.bin"])
        (tmp_path / "a.bin").unlink()
        with pytest.raises(CommitError, match="missing"):
            verify_manifest(tmp_path)

    def test_size_and_hash_mismatch(self, tmp_path):
        atomic_write(tmp_path / "a.bin", b"abc")
        write_manifest(tmp_path, ["a.bin"])
        (tmp_path / "a.bin").write_bytes(b"ab")
        with pytest.raises(CommitError, match="truncated"):
            verify_manifest(tmp_path)
        (tmp_path / "a.bin").write_bytes(b"abd")
        with pytest.raises(CommitError, match="sha256"):
            verify_manifest(tmp_path)

    @pytest.mark.parametrize(
        "name, blob",
        [("s.json", b"{nope"), ("s.json", b"\xff"), ("m.pkl", b"garbage"),
         ("m.pkl", b"")],
    )
    def test_load_committed_typed_error(self, tmp_path, name, blob):
        (tmp_path / name).write_bytes(blob)
        with pytest.raises(ArtifactCorruptError, match="not"):
            load_committed(tmp_path / name, ArtifactCorruptError)

    def test_typed_errors_share_the_base(self):
        for error in (CheckpointCorruptError, ArtifactCorruptError,
                      ShardManifestError):
            assert issubclass(error, CommitError)


# ----------------------------------------------------------------------
# Durability: fsync before rename, files before the commit record
# ----------------------------------------------------------------------
@pytest.fixture()
def disk_calls(monkeypatch):
    """Every ``os.fsync`` (as the path it synced) and ``os.replace``."""
    calls: list[tuple] = []
    real_fsync, real_replace = os.fsync, os.replace

    def fsync(fd):
        calls.append(("fsync", os.path.realpath(f"/proc/self/fd/{fd}")))
        real_fsync(fd)

    def replace(src, dst, *args, **kwargs):
        calls.append(
            ("replace", os.path.realpath(src), os.path.realpath(dst))
        )
        real_replace(src, dst, *args, **kwargs)

    monkeypatch.setattr(os, "fsync", fsync)
    monkeypatch.setattr(os, "replace", replace)
    return calls


def _durable_at(calls, target: Path) -> int:
    """Index of the rename that put ``target`` in place, asserting its
    bytes were fsynced first."""
    target = os.path.realpath(target)
    for index, call in enumerate(calls):
        if call[0] == "replace" and call[2] == target:
            assert ("fsync", call[1]) in calls[:index], f"{target} never fsynced"
            return index
    raise AssertionError(f"{target} was not written by a durable rename")


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc")
class TestDurability:
    def test_store_shards_durable_before_manifest(
        self, small_fleet, tmp_path, disk_calls
    ):
        store = write_dataset_sharded(small_fleet, tmp_path / "store", n_shards=3)
        manifest_at = _durable_at(disk_calls, store.root / "manifest.json")
        for info in store.shards:
            assert _durable_at(disk_calls, store.root / info.filename) < manifest_at

    def test_run_manifest_and_metrics_durable(self, tmp_path, disk_calls):
        run = RunContext(tmp_path / "run", "train", {})
        run.finalize(get_tracer(), get_registry())
        _durable_at(disk_calls, tmp_path / "run" / "manifest.json")
        _durable_at(disk_calls, tmp_path / "run" / "metrics.prom")

    def test_reference_profile_durable(self, committed, tmp_path, disk_calls):
        profile = ReferenceProfile.from_model(committed["model"], (0, START))
        path = profile.save(tmp_path / "profile.json")
        _durable_at(disk_calls, path)


# ----------------------------------------------------------------------
# The five committed directory kinds
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def committed(small_fleet, tmp_path_factory):
    """One small committed directory of each kind, plus how to load it
    and the typed error it must raise (read-only; tests copy)."""
    root = tmp_path_factory.mktemp("committed")
    model = MFPA(_config()).fit(small_fleet, train_end_day=START)

    monitor = FleetMonitor(config=_config(), policy=NEVER_RETRAIN)
    monitor.start(small_fleet, train_end_day=START)
    save_checkpoint(monitor, [], root / "monitor")

    store = write_dataset_sharded(small_fleet, root / "store", n_shards=2)
    sharded = ShardedFleetMonitor(store, policy=NEVER_RETRAIN)
    sharded.use_model(model, START)
    sharded.run(START, END, window_days=WINDOW,
                checkpoint_dir=root / "sharded", max_shards=1)

    reduced = fit_reduced_model(small_fleet, START, base_config=model.config)
    daemon = ServeDaemon.from_models(
        model, reduced,
        ServeConfig(serve_start_day=START, window_days=WINDOW,
                    end_day=START + WINDOW),
        checkpoint_dir=root / "serve",
    )
    keep = set(sorted(small_fleet.drives)[:5])
    readings = [
        r for r in dataset_to_readings(small_fleet, end_day=START + WINDOW)
        if r[0] in keep
    ]
    replay_into(daemon, readings, end_day=START + WINDOW)

    save_model(model, root / "artifact")

    def resume_sharded(path):
        monitor = ShardedFleetMonitor(store, policy=NEVER_RETRAIN)
        monitor.use_model(model, START)
        return monitor.run(START, END, window_days=WINDOW,
                           checkpoint_dir=path, resume=True)

    def load_shards(path):
        reopened = ShardedDataset(path)
        for info in reopened.shards:
            reopened.load_shard(info.index, verify=True)

    return {
        "model": model,
        "kinds": {
            "monitor": (root / "monitor",
                        lambda path: load_checkpoint(path, small_fleet),
                        CheckpointCorruptError),
            "sharded-monitor": (root / "sharded", resume_sharded,
                                CheckpointCorruptError),
            "serve": (root / "serve", ServeDaemon.resume,
                      CheckpointCorruptError),
            "artifact": (root / "artifact", load_model, ArtifactCorruptError),
            "store": (root / "store", load_shards, ShardManifestError),
        },
    }


KINDS = ("monitor", "sharded-monitor", "serve", "artifact", "store")


def _committed_files(root: Path, kind: str) -> list[str]:
    """Every file (relative to ``root``) ``kind``'s commit records
    vouch for; an MFPA artifact's nested estimator artifact included."""
    manifest = json.loads((root / "manifest.json").read_text())
    if kind == "store":
        return sorted(shard["filename"] for shard in manifest["shards"])
    names = sorted(manifest["files"])
    if kind == "artifact" and (root / "model" / "manifest.json").exists():
        names += [f"model/{name}" for name in _committed_files(root / "model", kind)]
    return names


def _copy(source: Path, scratch: str) -> Path:
    target = Path(scratch) / source.name
    shutil.copytree(source, target)
    return target


@pytest.mark.parametrize("kind", KINDS)
def test_uncorrupted_copy_loads(committed, kind):
    source, load, _ = committed["kinds"][kind]
    with tempfile.TemporaryDirectory() as scratch:
        load(_copy(source, scratch))


@pytest.mark.parametrize("kind", KINDS)
@settings(max_examples=10, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_corruption_never_loads(committed, kind, data):
    source, load, error = committed["kinds"][kind]
    name = data.draw(st.sampled_from(_committed_files(source, kind)), "file")
    with tempfile.TemporaryDirectory() as scratch:
        copy = _copy(source, scratch)
        path = copy / name
        blob = bytearray(path.read_bytes())
        offset = data.draw(st.integers(0, len(blob) - 1), "offset")
        if data.draw(st.booleans(), "flip"):
            blob[offset] ^= data.draw(st.integers(1, 255), "mask")
        else:
            del blob[offset:]
        path.write_bytes(bytes(blob))
        with pytest.raises(error):
            load(copy)


# ----------------------------------------------------------------------
# Schema pin: "never rename, only add"
# ----------------------------------------------------------------------
_CHECKPOINT_KEYS = {"files", "version"}
_ARTIFACT_KEYS = {
    "bin_edges", "class", "config_hash", "created_unix",
    "dataset_fingerprint", "files", "format", "kind", "params",
    "schema_version",
}
_FILE_KEYS = {"sha256", "size"}


@pytest.mark.parametrize(
    "kind, subdir, keys",
    [
        ("monitor", "", _CHECKPOINT_KEYS),
        ("sharded-monitor", "", _CHECKPOINT_KEYS),
        ("serve", "", _CHECKPOINT_KEYS),
        ("artifact", "", _ARTIFACT_KEYS | {"model_artifact_hash"}),
        ("artifact", "model", _ARTIFACT_KEYS),
    ],
)
def test_manifest_schema_pinned(committed, kind, subdir, keys):
    root = committed["kinds"][kind][0] / subdir
    manifest = json.loads((root / "manifest.json").read_text())
    assert set(manifest) == keys
    for entry in manifest["files"].values():
        assert set(entry) == _FILE_KEYS


def test_store_manifest_schema_pinned(committed):
    root = committed["kinds"]["store"][0]
    manifest = json.loads((root / "manifest.json").read_text())
    assert set(manifest) == {
        "created_at", "fleet_fingerprint", "format_version", "n_bytes",
        "n_drives", "n_rows", "n_shards", "shards", "vocab",
    }
    for shard in manifest["shards"]:
        assert set(shard) == {
            "fingerprint", "filename", "first_serial", "index",
            "last_serial", "n_bytes", "n_drives", "n_rows", "sha256",
        }

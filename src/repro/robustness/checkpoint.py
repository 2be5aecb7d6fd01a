"""Checkpointing primitives: crash (or lose power) mid-run, resume identically.

A monitor that loses its alarm ledger on restart re-alarms every drive
it already flagged (operator alarm fatigue) and forgets when it last
retrained (drift). The checkpoint captures everything
:func:`~repro.core.deployment.simulate_operation` needs to continue a
run as if it had never stopped:

* ``state.json`` — alarmed serials, retrain bookkeeping, the alarm
  threshold, and every scored :class:`MonitoringWindow` so far;
* ``model.pkl``  — the fitted model (with its prepared dataset),
  config and policy, pickled. Re-fitting on resume would be equally
  deterministic but strictly slower; pickling guarantees bit-identical
  probabilities either way.

Both files, then ``manifest.json`` as the commit record, are written
durably by :mod:`repro.commit`, whose primitives this module re-exports.
Files that fail their manifest (truncated ``model.pkl``, a crash while
overwriting) raise :class:`CheckpointCorruptError`, not a ``pickle``
traceback. A directory that is not committed — no manifest, or only
some of the files — is "no usable checkpoint" to :func:`has_checkpoint`,
which removes the leftovers so the caller restarts from scratch.
:func:`commit_checkpoint` and :func:`has_checkpoint_files` back the
serve daemon's and the sharded monitor's checkpoints too.
"""

from __future__ import annotations

import json
import pickle
from pathlib import Path
from typing import TYPE_CHECKING, Iterable

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.deployment import FleetMonitor, MonitoringWindow

from repro.commit import (
    MANIFEST_FILE,
    CommitError,
    atomic_write,
    load_committed,
    verify_manifest,
    write_manifest,
)
from repro.telemetry.dataset import TelemetryDataset

CHECKPOINT_VERSION = 1
#: The ``version`` field every checkpoint manifest carries.
MANIFEST_VERSION = 1
_STATE_FILE = "state.json"
_MODEL_FILE = "model.pkl"
#: The file pair a FleetMonitor checkpoint consists of.
MONITOR_FILES = (_MODEL_FILE, _STATE_FILE)


class CheckpointCorruptError(CommitError):
    """A checkpoint file is missing, truncated, or fails its sha256."""


def commit_checkpoint(
    directory: str | Path, filenames: Iterable[str] = MONITOR_FILES
) -> Path:
    """Write the checkpoint's commit record; call it after every file."""
    return write_manifest(directory, filenames, version=MANIFEST_VERSION)


def has_checkpoint_files(
    directory: str | Path, filenames: Iterable[str] = MONITOR_FILES
) -> bool:
    """Whether ``directory`` holds a *committed* checkpoint: every one
    of ``filenames`` plus the manifest.

    Anything less (a crash before the first commit, or between file
    writes) can never be restored verified, so its leftovers are
    removed and it reports "no usable checkpoint".
    """
    path = Path(directory)
    names = (*filenames, MANIFEST_FILE)
    present = [name for name in names if (path / name).exists()]
    if len(present) == len(names):
        return True
    for name in present:
        (path / name).unlink()
    return False


def has_checkpoint(directory: str | Path) -> bool:
    """Whether ``directory`` holds a usable FleetMonitor checkpoint."""
    return has_checkpoint_files(directory, MONITOR_FILES)


def save_checkpoint(
    monitor: "FleetMonitor",
    windows: list["MonitoringWindow"],
    directory: str | Path,
) -> Path:
    """Persist a started monitor and its scored windows."""
    monitor._check_started()
    path = Path(directory)
    path.mkdir(parents=True, exist_ok=True)

    payload = {
        "config": monitor.config,
        "policy": monitor.policy,
        "model": monitor.model,
    }
    atomic_write(path / _MODEL_FILE, pickle.dumps(payload))

    state = {
        "version": CHECKPOINT_VERSION,
        "alarmed": sorted(monitor._alarmed),
        "last_trained_day": monitor._last_trained_day,
        "failures_at_training": monitor._failures_at_training,
        "alarm_threshold": monitor.alarm_threshold,
        "windows": [
            {
                "start_day": window.start_day,
                "end_day": window.end_day,
                "n_drives_scored": window.n_drives_scored,
                "retrained": window.retrained,
                "alarms": [
                    {
                        "serial": alarm.serial,
                        "day": alarm.day,
                        "probability": alarm.probability,
                    }
                    for alarm in window.alarms
                ],
            }
            for window in windows
        ],
    }
    atomic_write(path / _STATE_FILE, json.dumps(state).encode())
    # Manifest last: it is the commit record — hashes of both files as
    # they now exist on disk. A crash before this line leaves files the
    # manifest (old or absent) does not vouch for, which load_checkpoint
    # reports as CheckpointCorruptError instead of loading garbage.
    commit_checkpoint(path, MONITOR_FILES)
    return path


def load_checkpoint(
    directory: str | Path, dataset: TelemetryDataset
) -> tuple["FleetMonitor", list["MonitoringWindow"]]:
    """Restore a monitor (bound to ``dataset``) and its window history.

    Raises :class:`CheckpointCorruptError` when the files fail their
    manifest (truncation, hash mismatch) or the pickle/state payloads
    are undecodable; ``FileNotFoundError`` when there is no checkpoint.
    """
    from repro.core.deployment import Alarm, FleetMonitor, MonitoringWindow

    path = Path(directory)
    if not has_checkpoint(path):
        raise FileNotFoundError(f"{path} does not contain a monitor checkpoint")
    verify_manifest(path, MONITOR_FILES, error=CheckpointCorruptError)
    state = load_committed(path / _STATE_FILE, CheckpointCorruptError)
    version = state.get("version")
    if version != CHECKPOINT_VERSION:
        raise ValueError(f"unsupported checkpoint version {version!r}")
    payload = load_committed(path / _MODEL_FILE, CheckpointCorruptError)

    monitor = FleetMonitor(
        config=payload["config"],
        policy=payload["policy"],
        alarm_threshold=state["alarm_threshold"],
    )
    monitor.dataset = dataset
    monitor.model = payload["model"]
    monitor._alarmed = set(state["alarmed"])
    monitor._last_trained_day = state["last_trained_day"]
    monitor._failures_at_training = state["failures_at_training"]

    windows = [
        MonitoringWindow(
            start_day=entry["start_day"],
            end_day=entry["end_day"],
            alarms=[
                Alarm(
                    serial=alarm["serial"],
                    day=alarm["day"],
                    probability=alarm["probability"],
                )
                for alarm in entry["alarms"]
            ],
            n_drives_scored=entry["n_drives_scored"],
            retrained=entry["retrained"],
        )
        for entry in state["windows"]
    ]
    return monitor, windows

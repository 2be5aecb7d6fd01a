"""Shard-boundary checkpoint/resume for ``ShardedFleetMonitor``.

The contract mirrors the in-RAM monitor's window checkpoints
(``robustness/checkpoint.py``): a run killed between shard boundaries
resumes from its committed progress — no retraining, no rescoring of
completed shards — and the final summary is bit-identical to an
uninterrupted run. The "kill" is the same controlled-crash device the
in-RAM tests use (``max_shards``, mirroring ``max_windows``): stop
after N shards with the checkpoint committed, then start over in a
fresh monitor instance as a crashed process would.
"""

from __future__ import annotations

import os
import pickle

import pytest

from repro.core.deployment import RetrainPolicy
from repro.obs import get_registry
from repro.robustness.checkpoint import CheckpointCorruptError, commit_checkpoint
from repro.scale import ShardedFleetMonitor
from repro.scale.monitor import SHARD_MONITOR_FILES

from tests.scale.conftest import assert_summaries_equal, cheap_config

START, END, WINDOW = 240, 360, 40
POLICY = RetrainPolicy(interval_days=60, min_new_failures=1)
N_WINDOWS = 3  # (END - START) / WINDOW


def _monitor(shard_store, n_jobs: int = 1) -> ShardedFleetMonitor:
    return ShardedFleetMonitor(
        shard_store,
        config=cheap_config(feature_group_name="SFWB"),
        policy=POLICY,
        n_jobs=n_jobs,
    )


def _counter(name: str) -> float:
    return get_registry().counter(name).value


@pytest.fixture(scope="module")
def baseline(shard_store):
    """Uninterrupted, checkpoint-free reference run."""
    return _monitor(shard_store).run(START, END, window_days=WINDOW)


def test_uninterrupted_run_unchanged_by_checkpointing(
    shard_store, baseline, tmp_path
):
    summary = _monitor(shard_store).run(
        START, END, window_days=WINDOW, checkpoint_dir=tmp_path / "ckpt"
    )
    assert_summaries_equal(summary, baseline)
    for name in SHARD_MONITOR_FILES:
        assert (tmp_path / "ckpt" / name).exists()


def test_crash_after_one_shard_resumes_bit_identical(
    shard_store, baseline, tmp_path
):
    checkpoint = tmp_path / "ckpt"
    _monitor(shard_store).run(
        START, END, window_days=WINDOW,
        checkpoint_dir=checkpoint, max_shards=1,
    )

    scored_before = _counter("scale_shards_scored_total")
    retrains_before = _counter("monitor_retrains_total")
    # A fresh instance, as a restarted process would construct it.
    summary = _monitor(shard_store).run(
        START, END, window_days=WINDOW,
        checkpoint_dir=checkpoint, resume=True,
    )
    assert_summaries_equal(summary, baseline)
    # Only the two unfinished shards were scored (N_WINDOWS passes
    # each), and no model was retrained — both came off the checkpoint.
    assert _counter("scale_shards_scored_total") - scored_before == (
        (shard_store.n_shards - 1) * N_WINDOWS
    )
    assert _counter("monitor_retrains_total") - retrains_before == 0


def test_parallel_resume_checkpoints_at_group_boundaries(
    shard_store, baseline, tmp_path, monkeypatch
):
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    checkpoint = tmp_path / "ckpt"
    _monitor(shard_store, n_jobs=2).run(
        START, END, window_days=WINDOW,
        checkpoint_dir=checkpoint, max_shards=2,
    )
    with open(checkpoint / "progress.pkl", "rb") as handle:
        assert len(pickle.load(handle)["per_shard"]) == 2
    summary = _monitor(shard_store, n_jobs=2).run(
        START, END, window_days=WINDOW,
        checkpoint_dir=checkpoint, resume=True,
    )
    assert_summaries_equal(summary, baseline)


def test_resume_rejects_mismatched_run(shard_store, tmp_path):
    checkpoint = tmp_path / "ckpt"
    _monitor(shard_store).run(
        START, END, window_days=WINDOW,
        checkpoint_dir=checkpoint, max_shards=1,
    )
    with pytest.raises(ValueError, match="does not match this run"):
        _monitor(shard_store).run(
            START, END + WINDOW, window_days=WINDOW,
            checkpoint_dir=checkpoint, resume=True,
        )


def test_resume_rejects_corrupt_checkpoint(shard_store, tmp_path):
    checkpoint = tmp_path / "ckpt"
    _monitor(shard_store).run(
        START, END, window_days=WINDOW,
        checkpoint_dir=checkpoint, max_shards=1,
    )
    (checkpoint / "progress.pkl").write_bytes(b"garbage")
    with pytest.raises(CheckpointCorruptError):
        _monitor(shard_store).run(
            START, END, window_days=WINDOW,
            checkpoint_dir=checkpoint, resume=True,
        )


def test_resume_rejects_undecodable_committed_progress(shard_store, tmp_path):
    """Bytes the manifest vouches for but pickle cannot decode (a buggy
    writer, not a torn write) still surface as the typed error."""
    checkpoint = tmp_path / "ckpt"
    _monitor(shard_store).run(
        START, END, window_days=WINDOW,
        checkpoint_dir=checkpoint, max_shards=1,
    )
    (checkpoint / "progress.pkl").write_bytes(b"garbage")
    commit_checkpoint(checkpoint, SHARD_MONITOR_FILES)
    with pytest.raises(CheckpointCorruptError, match="pickle"):
        _monitor(shard_store).run(
            START, END, window_days=WINDOW,
            checkpoint_dir=checkpoint, resume=True,
        )


def test_resume_without_checkpoint_starts_fresh(
    shard_store, baseline, tmp_path
):
    summary = _monitor(shard_store).run(
        START, END, window_days=WINDOW,
        checkpoint_dir=tmp_path / "empty", resume=True,
    )
    assert_summaries_equal(summary, baseline)

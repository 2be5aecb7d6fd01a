"""Shared fixtures for the out-of-core (scale) tests.

The sharded fixtures reuse the session-scoped ``small_fleet`` so the
suite pays for one fleet simulation; the shard store is written once
per session and treated read-only.
"""

from __future__ import annotations

import pytest

from repro.core.pipeline import MFPAConfig
from repro.ml.forest import RandomForestClassifier
from repro.scale import write_dataset_sharded


def cheap_config(**overrides) -> MFPAConfig:
    """A fast MFPA config (small forest) for parity tests."""
    return MFPAConfig(
        algorithm=RandomForestClassifier(n_estimators=8, max_depth=6, seed=0),
        **overrides,
    )


def assert_summaries_equal(got, want) -> None:
    """Sharded-vs-reference parity: alarms, every graded field and the
    per-window shape (counts and retrain flags)."""
    assert got.alarm_records() == want.alarm_records()
    for field in (
        "n_alarms", "true_alarms", "false_alarms", "missed_failures",
        "lead_times", "unknown_serial_alarms", "precision", "recall",
    ):
        assert getattr(got, field) == getattr(want, field), field
    assert [
        (w.start_day, w.end_day, w.n_drives_scored, w.retrained)
        for w in got.windows
    ] == [
        (w.start_day, w.end_day, w.n_drives_scored, w.retrained)
        for w in want.windows
    ]


@pytest.fixture(scope="session")
def shard_store(small_fleet, tmp_path_factory):
    """The small fleet written as a 3-shard store (read-only)."""
    root = tmp_path_factory.mktemp("scale-store") / "store"
    return write_dataset_sharded(small_fleet, root, n_shards=3)

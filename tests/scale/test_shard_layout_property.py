"""Property: the sharded monitor equals the in-RAM monitor for any layout.

Hypothesis draws a small fleet, a shard count from 1 to 6, ``n_jobs``
in {1, 2} (with a 4-core host pinned so the pool really forks) and an
interruption point. The sharded run stops after ``max_shards`` shards
with its checkpoint committed, a fresh monitor resumes from it, and the
resumed summary and every window's alarms must equal the in-RAM
``simulate_operation`` on the same fleet.
"""

from __future__ import annotations

import functools
import os
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.deployment import RetrainPolicy, simulate_operation
from repro.scale import ShardedFleetMonitor, write_dataset_sharded
from repro.telemetry import FleetConfig, VendorMix, simulate_fleet

from tests.scale.conftest import assert_summaries_equal, cheap_config

START, END, WINDOW = 180, 300, 40
#: Retrains once inside the horizon on these fleets, so the property
#: covers a per-boundary model switch too.
POLICY = RetrainPolicy(interval_days=60, min_new_failures=1)


@functools.lru_cache(maxsize=None)
def _fleet(seed: int):
    return simulate_fleet(
        FleetConfig(
            mix=VendorMix({"I": 60}),
            horizon_days=END,
            failure_boost=40.0,
            seed=seed,
        )
    )


@functools.lru_cache(maxsize=None)
def _in_ram(seed: int):
    return simulate_operation(
        _fleet(seed),
        config=cheap_config(),
        policy=POLICY,
        start_day=START,
        end_day=END,
        window_days=WINDOW,
    )


def _monitor(store, n_jobs: int) -> ShardedFleetMonitor:
    return ShardedFleetMonitor(
        store, config=cheap_config(), policy=POLICY, n_jobs=n_jobs
    )


@settings(
    max_examples=10,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    seed=st.integers(0, 3),
    n_shards=st.integers(1, 6),
    n_jobs=st.sampled_from([1, 2]),
    data=st.data(),
)
def test_sharded_equals_in_ram_for_any_shard_layout(
    monkeypatch, seed, n_shards, n_jobs, data
):
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    max_shards = data.draw(st.integers(0, n_shards), label="max_shards")
    want = _in_ram(seed)
    with tempfile.TemporaryDirectory(prefix="shard-layout-") as tmp:
        store = write_dataset_sharded(_fleet(seed), Path(tmp) / "store", n_shards)
        checkpoint = Path(tmp) / "ckpt"
        partial = _monitor(store, n_jobs).run(
            START, END, window_days=WINDOW,
            checkpoint_dir=checkpoint, max_shards=max_shards,
        )
        got = _monitor(store, n_jobs).run(
            START, END, window_days=WINDOW,
            checkpoint_dir=checkpoint, resume=True,
        )
    if max_shards == n_shards:
        assert_summaries_equal(partial, want)
    assert_summaries_equal(got, want)
    assert [window.alarms for window in got.windows] == [
        window.alarms for window in want.windows
    ]

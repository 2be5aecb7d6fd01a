"""Tiny-size never-slower gate for ``make smoke``.

A miniature of ``make bench-parallel``'s gate: with the real cpu_count
clamp (the suite-wide 4-core pin is undone here), ``n_jobs=4`` must not
lose to the serial loop even on a forest far too small to parallelize.
Each call forks and tears down its own pool, so this bounds what that
costs. The slack is wider than the full benchmark's because these runs
are sub-second; both sides are timed with the benchmark suite's paired
protocol (warm-up, interleaved rounds, median).
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from benchmarks._util import never_slower, paired_timings
from repro.ml.forest import RandomForestClassifier

pytestmark = pytest.mark.smoke

#: The host's own core count, captured before any fixture pins it.
_HOST_CPU_COUNT = os.cpu_count

#: Sub-second workloads need more absolute slack than the full bench.
TINY_SLACK_SECONDS = 0.25


@pytest.fixture()
def production_parallel_config(monkeypatch):
    """Undo the suite-wide 4-core pin: the real clamp applies."""
    monkeypatch.setattr(os, "cpu_count", _HOST_CPU_COUNT)


def test_tiny_forest_fit_never_slower(
    production_parallel_config, binary_blobs
):
    X, y = binary_blobs

    def fit(n_jobs):
        model = RandomForestClassifier(
            n_estimators=8, max_depth=6, seed=0, n_jobs=n_jobs
        ).fit(X, y)
        return model.predict_proba(X)

    timings = paired_timings(
        {"serial": lambda: fit(1), "parallel": lambda: fit(4)}, rounds=3
    )
    serial, parallel = timings["serial"], timings["parallel"]
    np.testing.assert_array_equal(serial["result"], parallel["result"])
    assert never_slower(
        serial["median"], parallel["median"], slack_seconds=TINY_SLACK_SECONDS
    ), (
        f"tiny forest fit: serial {serial['median']:.3f}s, "
        f"n_jobs=4 {parallel['median']:.3f}s"
    )

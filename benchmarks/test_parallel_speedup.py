"""Serial-vs-parallel wall-clock for the fan-out paths (``make bench-parallel``).

Times forest fitting, grid search and the sharded monitor's shard
fan-out serially and at ``n_jobs`` ∈ {2, 4}, verifies the outputs are
identical either way, and records machine-readable JSON under
``benchmarks/results/parallel_speedup.json``. Every configuration is
timed with :func:`benchmarks._util.paired_timings` (warm-up, then
``ROUNDS`` paired rounds with rotating order, then the median and
quartiles), so the verdict does not hinge on one noisy run.

Two classes of assertion:

* **Never slower** (every host, every ``n_jobs``): a parallel median
  may cost at most ``NEVER_SLOWER_RATIO``× the serial median plus a
  small absolute slack. On a single-core host ``n_jobs`` clamps to the
  core count and every run is serial.
* **Actually faster** (hosts with ≥ 4 cores only): forest fit or grid
  search must reach ≥ 2× at ``n_jobs=4``, and the sharded monitor must
  at least break even. On smaller runners the numbers are still
  recorded, but a fork pool cannot beat the clock there — a property of
  the host, not the code.
"""

from __future__ import annotations

import json
import os
import tempfile

import numpy as np
import pytest

from benchmarks._util import (
    NEVER_SLOWER_RATIO,
    NEVER_SLOWER_SLACK_SECONDS,
    RESULTS_DIR,
    cores_label,
    never_slower,
    paired_timings,
    save_exhibit,
)
from repro.core.deployment import RetrainPolicy
from repro.core.pipeline import MFPA
from repro.ml.forest import RandomForestClassifier
from repro.ml.model_selection import GridSearchCV, KFold
from repro.ml.tree import DecisionTreeClassifier
from repro.parallel import effective_n_jobs, fork_available
from repro.reporting import render_table
from repro.scale import ShardedFleetMonitor, write_dataset_sharded
from repro.telemetry import FleetConfig, VendorMix, simulate_fleet

pytestmark = pytest.mark.parallel_bench

#: Requested worker counts; each clamps to ``os.cpu_count()``.
N_JOBS_GRID = (2, 4)
#: Paired timing rounds per benchmark (after one warm-up call each).
ROUNDS = 3
#: Shards in the monitored store: enough groups for the pool to matter.
N_SHARDS = 8
#: Assert real speedup only when the host can run 4 workers.
ENOUGH_CORES = (os.cpu_count() or 1) >= 4


def _training_data(n_samples=6000, n_features=16, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.normal(0, 1, (n_samples, n_features))
    y = (X[:, 0] + 0.5 * X[:, 3] - X[:, 7] + rng.normal(0, 0.7, n_samples) > 0).astype(
        int
    )
    return X, y


def _bench_forest_fit(workdir):
    X, y = _training_data()

    def run(n_jobs):
        model = RandomForestClassifier(
            n_estimators=24, max_depth=None, seed=0, n_jobs=n_jobs
        ).fit(X, y)
        return model.predict_proba(X[:200])

    return run, lambda a, b: np.testing.assert_array_equal(a, b)


def _bench_grid_search(workdir):
    X, y = _training_data(n_samples=4000)
    grid = {"max_depth": [4, 8, 12], "min_samples_leaf": [1, 4]}

    def run(n_jobs):
        search = GridSearchCV(
            DecisionTreeClassifier(seed=0),
            grid,
            splitter=KFold(n_splits=3, seed=0),
            refit=False,
            n_jobs=n_jobs,
        ).fit(X, y)
        return search.best_params_, search.results_

    def check(a, b):
        assert a == b

    return run, check


def _bench_sharded_monitor(workdir):
    """Shard fan-out alone: one model fitted up front, no retrains, so
    every second timed is shard load, prepare and scoring."""
    fleet = simulate_fleet(
        FleetConfig(
            mix=VendorMix({"I": 400}),
            horizon_days=540,
            failure_boost=20.0,
            seed=11,
        )
    )
    store = write_dataset_sharded(fleet, os.path.join(workdir, "store"), N_SHARDS)
    model = MFPA().fit(fleet, train_end_day=360)
    never = RetrainPolicy(interval_days=10**9, min_new_failures=10**9)

    def run(n_jobs):
        monitor = ShardedFleetMonitor(store, policy=never, n_jobs=n_jobs)
        monitor.use_model(model, 360)
        summary = monitor.run(360, 540, window_days=30)
        return summary.alarm_records(), [w.n_drives_scored for w in summary.windows]

    def check(a, b):
        assert a == b

    return run, check


def test_parallel_speedup():
    benches = {
        "forest_fit": _bench_forest_fit,
        "grid_search": _bench_grid_search,
        "sharded_monitor": _bench_sharded_monitor,
    }
    records = []
    with tempfile.TemporaryDirectory(prefix="bench-parallel-") as workdir:
        for name, build in benches.items():
            run, check = build(workdir)
            configs = {"serial": lambda: run(1)}
            for n_jobs in N_JOBS_GRID:
                configs[f"n_jobs={n_jobs}"] = lambda n_jobs=n_jobs: run(n_jobs)
            timings = paired_timings(configs, rounds=ROUNDS)
            serial = timings.pop("serial")
            runs = []
            for n_jobs, timing in zip(N_JOBS_GRID, timings.values()):
                check(serial["result"], timing["result"])
                runs.append(
                    {
                        "requested_n_jobs": n_jobs,
                        "effective_n_jobs": effective_n_jobs(n_jobs),
                        "seconds": round(timing["median"], 4),
                        "iqr_seconds": [round(timing["q1"], 4), round(timing["q3"], 4)],
                        "speedup": round(serial["median"] / timing["median"], 3),
                        "never_slower": never_slower(
                            serial["median"], timing["median"]
                        ),
                    }
                )
            records.append(
                {
                    "name": name,
                    "serial_seconds": round(serial["median"], 4),
                    "serial_iqr_seconds": [
                        round(serial["q1"], 4), round(serial["q3"], 4)
                    ],
                    "runs": runs,
                }
            )

    payload = {
        "cpu_count": os.cpu_count(),
        "fork_available": fork_available(),
        "protocol": {"warmup": 1, "paired_rounds": ROUNDS, "statistic": "median"},
        "gate": {
            "ratio": NEVER_SLOWER_RATIO,
            "slack_seconds": NEVER_SLOWER_SLACK_SECONDS,
            "passed": all(r["never_slower"] for b in records for r in b["runs"]),
        },
        "benchmarks": records,
    }
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "parallel_speedup.json").write_text(json.dumps(payload, indent=2))

    save_exhibit(
        "parallel_speedup",
        render_table(
            ["Benchmark", "n_jobs (eff)", "Serial (s)", "Parallel (s)", "Speedup", "Gate"],
            [
                [
                    bench["name"],
                    f"{r['requested_n_jobs']} ({r['effective_n_jobs']})",
                    f"{bench['serial_seconds']:.2f}",
                    f"{r['seconds']:.2f}",
                    f"{r['speedup']:.2f}x",
                    "ok" if r["never_slower"] else "SLOWER",
                ]
                for bench in records
                for r in bench["runs"]
            ],
            title=(
                f"Parallel speedup ({cores_label(os.cpu_count())}; "
                f"median of {ROUNDS} paired rounds)"
            ),
        ),
    )

    slower = [
        (bench["name"], r["requested_n_jobs"], r["speedup"])
        for bench in records
        for r in bench["runs"]
        if not r["never_slower"]
    ]
    assert not slower, (
        f"parallel lost to serial beyond the {NEVER_SLOWER_RATIO}x gate "
        f"(+{NEVER_SLOWER_SLACK_SECONDS}s slack): {slower}"
    )

    if ENOUGH_CORES and fork_available():
        at_four = {
            bench["name"]: r["speedup"]
            for bench in records
            for r in bench["runs"]
            if r["requested_n_jobs"] == 4
        }
        training = [at_four["forest_fit"], at_four["grid_search"]]
        assert max(training) >= 2.0, (
            f"expected ≥2x on forest fit or grid search at n_jobs=4, got {training}"
        )
        assert at_four["sharded_monitor"] >= 1.0, (
            f"expected the sharded monitor to at least break even at n_jobs=4, "
            f"got {at_four['sharded_monitor']}"
        )

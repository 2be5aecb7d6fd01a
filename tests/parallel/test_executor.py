"""Unit tests for the process-pool execution layer.

The conftest fixture pins a 4-core host, so ``n_jobs`` up to 4 really
forks and every pool path runs even on a single-core box.
"""

import os

import numpy as np
import pytest

from repro.ml.forest import RandomForestClassifier
from repro.obs import get_registry, set_current_run
from repro.obs.manifest import start_run
from repro.parallel import (
    ParallelExecutor,
    SharedPayload,
    StalePayloadError,
    effective_n_jobs,
    fork_available,
    share,
)
from repro.parallel import executor as executor_module
from repro.parallel.shared import in_worker

pytestmark = pytest.mark.smoke


def _square(x):
    return x * x


def _payload_sum(data, scale):
    return float(data.get().sum()) * scale


def _nested_probe(_):
    # Inside a worker, a nested executor must degrade to serial instead
    # of forking recursively.
    return ParallelExecutor(4).is_parallel


class TestEffectiveNJobs:
    def test_none_and_one_are_serial(self):
        assert effective_n_jobs(None) == 1
        assert effective_n_jobs(1) == 1

    def test_positive_passthrough(self):
        assert effective_n_jobs(3) == 3

    def test_clamped_to_cpu_count(self, capsys):
        executor_module._WARNED_CLAMPS.clear()
        cap = os.cpu_count() or 1
        assert effective_n_jobs(cap + 3) == cap
        assert f"clamping to {cap}" in capsys.readouterr().err
        # Warned once per distinct request, not per executor.
        assert effective_n_jobs(cap + 3) == cap
        assert capsys.readouterr().err == ""

    def test_minus_one_is_all_cores(self):
        assert effective_n_jobs(-1) == (os.cpu_count() or 1)

    def test_negative_counts_back_with_floor(self):
        assert effective_n_jobs(-((os.cpu_count() or 1) + 5)) == 1

    def test_zero_rejected(self):
        with pytest.raises(ValueError, match="n_jobs"):
            effective_n_jobs(0)


class TestSharedPayload:
    def test_roundtrip_inside_context(self):
        with share({"x": 1}) as handle:
            assert handle.get() == {"x": 1}

    def test_handle_invalid_after_context(self):
        with share([1, 2]) as handle:
            pass
        with pytest.raises(StalePayloadError, match="released"):
            handle.get()

    def test_handles_are_independent(self):
        with share("a") as first, share("b") as second:
            assert first.get() == "a"
            assert second.get() == "b"


class TestParallelExecutor:
    def test_serial_preserves_order(self):
        assert ParallelExecutor(1).starmap(_square, [(i,) for i in range(6)]) == [
            0,
            1,
            4,
            9,
            16,
            25,
        ]

    def test_single_task_never_forks(self):
        # Even at n_jobs=8 a single task runs in-process.
        assert ParallelExecutor(8).starmap(_square, [(3,)]) == [9]

    @pytest.mark.skipif(not fork_available(), reason="requires fork")
    def test_parallel_preserves_order(self):
        result = ParallelExecutor(4).starmap(_square, [(i,) for i in range(20)])
        assert result == [i * i for i in range(20)]

    @pytest.mark.skipif(not fork_available(), reason="requires fork")
    def test_workers_see_shared_payload(self):
        array = np.arange(100.0)
        with share(array) as data:
            results = ParallelExecutor(2).starmap(
                _payload_sum, [(data, scale) for scale in (1.0, 2.0, 3.0)]
            )
        assert results == [4950.0, 9900.0, 14850.0]

    @pytest.mark.skipif(not fork_available(), reason="requires fork")
    def test_nested_executor_degrades_to_serial(self):
        flags = ParallelExecutor(2).starmap(_nested_probe, [(i,) for i in range(4)])
        assert flags == [False, False, False, False]
        # The parent itself is unaffected by worker-side flags.
        assert not in_worker()

    def test_serial_when_fork_unavailable(self, monkeypatch):
        monkeypatch.setattr(executor_module, "fork_available", lambda: False)
        executor = ParallelExecutor(4)
        assert not executor.is_parallel
        assert executor.starmap(_square, [(2,), (3,)]) == [4, 9]


def _payload_total(handle):
    return float(handle.get().sum())


def _forks() -> float:
    return get_registry().counter("parallel_pool_forks_total").value


@pytest.mark.skipif(not fork_available(), reason="requires fork")
class TestPoolScope:
    def test_pool_lives_for_one_scope(self):
        forks = _forks()
        with ParallelExecutor(2) as executor:
            first = executor.starmap(_square, [(i,) for i in range(8)])
            second = executor.starmap(_square, [(i,) for i in range(8)])
            assert executor._pool is not None
        assert first == second == [i * i for i in range(8)]
        assert _forks() - forks == 1
        # The pool is torn down when the block exits...
        assert executor._pool is None
        assert get_registry().gauge("parallel_pool_workers").value == 0
        # ...and a bare starmap forks and closes a pool of its own.
        executor.starmap(_square, [(1,), (2,)])
        assert _forks() - forks == 2
        assert executor._pool is None

    def test_payload_shared_after_the_fork_is_stale(self):
        with ParallelExecutor(2) as executor:
            executor.starmap(_square, [(1,), (2,)])
            with share(np.arange(10.0), name="late") as handle:
                with pytest.raises(StalePayloadError, match="late"):
                    executor.starmap(_payload_total, [(handle,), (handle,)])

    def test_forest_bit_identical_across_consecutive_dispatches(
        self, binary_blobs
    ):
        X, y = binary_blobs

        def fit(n_jobs):
            model = RandomForestClassifier(
                n_estimators=8, max_depth=5, seed=3, n_jobs=n_jobs
            )
            return model.fit(X, y).predict_proba(X)

        serial = fit(1)
        np.testing.assert_array_equal(serial, fit(2))
        np.testing.assert_array_equal(serial, fit(2))


class TestClamping:
    def test_clamp_annotates_active_run(self, tmp_path):
        run = start_run(tmp_path / "run", command="train", args={})
        set_current_run(run)
        try:
            requested = (os.cpu_count() or 1) + 3
            executor = ParallelExecutor(requested)
            assert executor.n_jobs == (os.cpu_count() or 1)
            assert run.annotations["parallel_requested_n_jobs"] == requested
            assert (
                run.annotations["parallel_effective_n_jobs"]
                == executor.n_jobs
            )
        finally:
            set_current_run(None)


class TestStalePayloadErrors:
    def test_unregistered_token_is_typed_and_actionable(self):
        handle = SharedPayload(999999, name="ghost")
        with pytest.raises(StalePayloadError) as excinfo:
            handle.get()
        assert excinfo.value.payload_name == "ghost"
        assert "ghost" in str(excinfo.value)
        assert "share() context" in str(excinfo.value)

    def test_released_handle_is_typed(self):
        with share({"a": 1}, name="config") as handle:
            assert handle.get() == {"a": 1}
        with pytest.raises(StalePayloadError, match="config.*released"):
            handle.get()

"""ServeDaemon end-to-end: batch parity, kill/resume, degraded routing,
breaker fallback, and typed checkpoint-corruption errors."""

import shutil

import numpy as np
import pytest

from repro.obs import get_registry
from repro.robustness.checkpoint import CheckpointCorruptError, write_manifest
from repro.serve import SERVE_FILES, ServeConfig, ServeDaemon, replay_into
from repro.serve.retry import RetryPolicy

from .conftest import END, SERVE_START, WINDOW


def _counter(name: str) -> float:
    for family in get_registry().dump():
        if family["name"] == name:
            for sample in family["samples"]:
                return sample["value"]
    return 0.0


def _subset(readings, n_serials):
    keep = set(sorted({r[0] for r in readings})[:n_serials])
    return [r for r in readings if r[0] in keep]


def _feed(daemon, readings, stop_day=None, on_day=None):
    """Submit readings pumping at each day change, like a live collector."""
    current = None
    for serial, day, reading in readings:
        if stop_day is not None and day >= stop_day:
            break
        if current is not None and day != current:
            daemon.pump()
            if on_day is not None:
                on_day(day)
        current = day
        daemon.submit(serial, day, reading)
    daemon.pump()


class TestBatchParity:
    def test_daemon_alarms_match_simulate_operation(
        self, serve_models, serve_readings, batch_baseline, serve_config
    ):
        """On clean input the daemon's alarm stream is the batch
        monitor's: same drives, same days, same probabilities."""
        full, reduced = serve_models
        daemon = ServeDaemon.from_models(full, reduced, serve_config)
        summary = replay_into(daemon, serve_readings, end_day=END)

        daemon_records = daemon.alarm_records()
        batch_records = batch_baseline.alarm_records()
        assert len(daemon_records) > 0, "fixture fleet must produce alarms"
        assert [(s, d) for s, d, _ in daemon_records] == [
            (s, d) for s, d, _ in batch_records
        ]
        np.testing.assert_allclose(
            [p for _, _, p in daemon_records],
            [p for _, _, p in batch_records],
            atol=1e-9,
        )
        assert summary["n_windows"] == (END - SERVE_START) // WINDOW
        assert summary["degraded_windows"] == 0
        assert summary["watermark"] == END


class TestKillResume:
    def test_resume_equals_uninterrupted(
        self, serve_models, serve_readings, serve_config, tmp_path
    ):
        full, reduced = serve_models
        readings = _subset(serve_readings, 40)
        kill_day = SERVE_START + WINDOW + 1

        reference = ServeDaemon.from_models(full, reduced, serve_config)
        replay_into(reference, readings, end_day=END)

        sink = tmp_path / "alarms.jsonl"
        killed = ServeDaemon.from_models(
            full, reduced, serve_config,
            checkpoint_dir=tmp_path / "ckpt", sink_path=sink,
        )
        _feed(killed, readings, stop_day=kill_day)
        # hard kill: the daemon is abandoned mid-window, nothing flushed
        assert killed.watermark == SERVE_START + WINDOW

        resumed = ServeDaemon.resume(tmp_path / "ckpt", sink_path=sink)
        assert resumed.watermark == SERVE_START + WINDOW
        assert _counter("serve_resumes_total") == 1.0
        replay_into(
            resumed, readings, end_day=END, min_day=resumed.watermark
        )

        assert resumed.alarm_records() == reference.alarm_records()
        assert resumed.windows == reference.windows
        # exactly one sink line per alarmed drive — no duplicates after
        # the crash, no lost alarms
        lines = sink.read_text().splitlines()
        assert len(lines) == len(resumed.alarms.alarmed)

    def test_resume_is_idempotent_at_end_of_stream(
        self, serve_models, serve_readings, serve_config, tmp_path
    ):
        full, reduced = serve_models
        readings = _subset(serve_readings, 10)
        daemon = ServeDaemon.from_models(
            full, reduced, serve_config, checkpoint_dir=tmp_path / "ckpt"
        )
        replay_into(daemon, readings, end_day=END)

        resumed = ServeDaemon.resume(tmp_path / "ckpt")
        assert resumed.watermark == END
        summary = replay_into(
            resumed, readings, end_day=END, min_day=resumed.watermark
        )
        assert summary["n_windows"] == len(daemon.windows)
        assert resumed.alarm_records() == daemon.alarm_records()


class TestDegradedRouting:
    def test_stale_dimension_enters_and_exits_degraded_mode(
        self, serve_models, serve_readings
    ):
        """W vanishing for a whole window degrades that window's scoring;
        W coming back recovers the next one."""
        full, reduced = serve_models
        readings = [
            (serial, day,
             {k: v for k, v in reading.items() if not k.startswith("w")}
             if SERVE_START <= day < SERVE_START + WINDOW else reading)
            for serial, day, reading in _subset(serve_readings, 25)
            if day < SERVE_START + 2 * WINDOW
        ]
        config = ServeConfig(
            serve_start_day=SERVE_START, window_days=WINDOW,
            end_day=SERVE_START + 2 * WINDOW, stale_after=100,
        )
        daemon = ServeDaemon.from_models(full, reduced, config)
        summary = replay_into(
            daemon, readings, end_day=SERVE_START + 2 * WINDOW
        )
        assert [w["degraded"] for w in summary["windows"]] == [True, False]
        assert _counter("serve_degraded_entries_total") == 1.0
        assert _counter("serve_degraded_exits_total") == 1.0

    def test_no_reduced_model_means_no_degraded_route(
        self, serve_models, serve_readings
    ):
        full, _ = serve_models
        readings = [
            (serial, day,
             {k: v for k, v in reading.items() if not k.startswith("w")})
            for serial, day, reading in _subset(serve_readings, 10)
            if day < SERVE_START + WINDOW
        ]
        config = ServeConfig(
            serve_start_day=SERVE_START, window_days=WINDOW,
            end_day=SERVE_START + WINDOW, stale_after=50,
        )
        daemon = ServeDaemon.from_models(full, None, config)
        summary = replay_into(daemon, readings, end_day=SERVE_START + WINDOW)
        # stale W cannot degrade scoring when there is nothing to degrade to
        assert summary["degraded_windows"] == 0


class TestBreakerFallback:
    def test_wedged_full_model_falls_back_then_recovers(
        self, serve_models, serve_readings
    ):
        full, reduced = serve_models
        readings = _subset(serve_readings, 25)
        end = SERVE_START + 2 * WINDOW
        config = ServeConfig(
            serve_start_day=SERVE_START, window_days=WINDOW, end_day=end,
            retry=RetryPolicy(max_attempts=2, base_delay=0.0, jitter=0.0),
            failure_threshold=1, cooldown_ticks=2,
        )
        daemon = ServeDaemon.from_models(
            full, reduced, config, sleep=lambda seconds: None
        )
        original = daemon.scorer.predict_full
        wedged = {"on": True}

        def flaky(X):
            if wedged["on"]:
                raise OSError("scorer wedged")
            return original(X)

        daemon.scorer.predict_full = flaky
        # heal the scorer partway through the second window, well before
        # its flush — by then the breaker has cooled down to HALF_OPEN
        def on_day(day):
            if day >= SERVE_START + WINDOW + 5:
                wedged["on"] = False

        _feed(daemon, readings, stop_day=end, on_day=on_day)
        summary = daemon.finish(end)

        assert [w["degraded"] for w in summary["windows"]] == [True, False]
        assert _counter("serve_breaker_opens_total") == 1.0
        assert _counter("serve_stage_retries_total") >= 1.0
        assert daemon.alarm_records()  # the reduced route still alarms


class TestCheckpointErrors:
    @pytest.fixture(scope="class")
    def committed_checkpoint(
        self, tmp_path_factory, serve_models, serve_readings
    ):
        """One window flushed and checkpointed, with a tiny drive subset."""
        full, reduced = serve_models
        path = tmp_path_factory.mktemp("serve-ckpt") / "ckpt"
        config = ServeConfig(
            serve_start_day=SERVE_START, window_days=WINDOW,
            end_day=SERVE_START + WINDOW,
        )
        daemon = ServeDaemon.from_models(
            full, reduced, config, checkpoint_dir=path
        )
        readings = [
            r for r in _subset(serve_readings, 5)
            if r[1] < SERVE_START + WINDOW
        ]
        replay_into(daemon, readings, end_day=SERVE_START + WINDOW)
        assert daemon.watermark == SERVE_START + WINDOW
        return path

    def _copy(self, committed_checkpoint, tmp_path):
        target = tmp_path / "ckpt"
        shutil.copytree(committed_checkpoint, target)
        return target

    def test_missing_checkpoint_raises_file_not_found(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            ServeDaemon.resume(tmp_path / "nowhere")

    def test_truncated_model_raises_typed_error(
        self, committed_checkpoint, tmp_path
    ):
        path = self._copy(committed_checkpoint, tmp_path)
        payload = (path / "model.pkl").read_bytes()
        (path / "model.pkl").write_bytes(payload[: len(payload) // 2])
        with pytest.raises(CheckpointCorruptError, match="truncated"):
            ServeDaemon.resume(path)

    def test_garbage_state_raises_typed_error(
        self, committed_checkpoint, tmp_path
    ):
        path = self._copy(committed_checkpoint, tmp_path)
        (path / "state.json").write_text("not json {{{")
        # recommit the manifest so the JSON parse (not the sha256 check)
        # is what trips
        write_manifest(path, SERVE_FILES)
        with pytest.raises(CheckpointCorruptError, match="JSON"):
            ServeDaemon.resume(path)

    def test_version_1_checkpoint_rejected(self, committed_checkpoint, tmp_path):
        """Version 1 kept a separate state per model; its state.json
        cannot restore the shared scorer, so resume refuses it."""
        import json

        path = self._copy(committed_checkpoint, tmp_path)
        state = json.loads((path / "state.json").read_text())
        state["version"] = 1
        (path / "state.json").write_text(json.dumps(state))
        write_manifest(path, SERVE_FILES)
        with pytest.raises(
            ValueError, match="unsupported serve checkpoint version 1"
        ):
            ServeDaemon.resume(path)

    def test_unknown_version_rejected(self, committed_checkpoint, tmp_path):
        import json

        path = self._copy(committed_checkpoint, tmp_path)
        state = json.loads((path / "state.json").read_text())
        state["version"] = 999
        (path / "state.json").write_text(json.dumps(state))
        write_manifest(path, SERVE_FILES)
        with pytest.raises(ValueError, match="version"):
            ServeDaemon.resume(path)

    def test_bitflip_detected_by_manifest(
        self, committed_checkpoint, tmp_path
    ):
        path = self._copy(committed_checkpoint, tmp_path)
        payload = bytearray((path / "model.pkl").read_bytes())
        payload[len(payload) // 2] ^= 0xFF
        (path / "model.pkl").write_bytes(bytes(payload))
        with pytest.raises(CheckpointCorruptError, match="sha256"):
            ServeDaemon.resume(path)

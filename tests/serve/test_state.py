"""Incremental scorer state and dimension-freshness staleness detector."""

import copy
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.client import ClientPredictor
from repro.ml.encoding import LabelEncoder
from repro.serve.state import DimensionFreshness, IncrementalScorer
from repro.telemetry.dataset import B_COLUMNS, W_COLUMNS

#: Reading keys a collector can lose as a whole dimension.
DROPPABLE = {"W": W_COLUMNS, "B": B_COLUMNS, "firmware": ("firmware",)}


@pytest.fixture()
def scorer(serve_models):
    full, reduced = serve_models
    return IncrementalScorer(full, reduced)


def _readings_for(serve_readings, serial, n):
    picked = [r for r in serve_readings if r[0] == serial][:n]
    assert len(picked) == n
    return picked


class TestIncrementalScorer:
    def test_stage_matches_batch_observe(self, scorer, serve_models, serve_readings):
        """Row assembled incrementally equals ClientPredictor.observe."""
        full, _ = serve_models
        reference = ClientPredictor.from_model(full, on_missing="impute")
        serial = serve_readings[0][0]
        last_row, reference_probability = None, None
        for serial_, day, reading in _readings_for(serve_readings, serial, 10):
            last_row = scorer.stage(serial_, day, reading)
            reference_probability = reference.observe(serial_, day, reading)
        assert scorer.has_reduced
        probability = scorer.predict_full(last_row)[0]
        assert probability == pytest.approx(reference_probability, abs=1e-12)

    def test_batched_prediction_matches_per_row(self, scorer, serve_readings):
        serials = sorted({r[0] for r in serve_readings})[:5]
        rows = []
        for serial in serials:
            for serial_, day, reading in _readings_for(serve_readings, serial, 5):
                row = scorer.stage(serial_, day, reading)
            rows.append(row)
        stacked = scorer.predict_full(np.vstack(rows))
        singles = [scorer.predict_full(row)[0] for row in rows]
        np.testing.assert_allclose(stacked, singles, rtol=0, atol=0)

    def test_snapshot_roundtrip_bit_identical(
        self, scorer, serve_models, serve_readings
    ):
        """JSON round-trip of the snapshot reproduces identical scores."""
        serial = serve_readings[0][0]
        for serial_, day, reading in _readings_for(serve_readings, serial, 8):
            scorer.stage(serial_, day, reading)
        snapshot = json.loads(json.dumps(scorer.snapshot()))

        restored = IncrementalScorer(*serve_models)
        restored.restore(snapshot)
        # continue both scorers with one more reading; rows must match bit-for-bit
        serial_, day, reading = _readings_for(serve_readings, serial, 9)[-1]
        row_a = scorer.stage(serial_, day, reading)
        row_b = restored.stage(serial_, day, reading)
        np.testing.assert_array_equal(row_a, row_b)
        assert scorer.predict_full(row_a)[0] == restored.predict_full(row_b)[0]
        assert scorer.predict_reduced(row_a)[0] == restored.predict_reduced(row_b)[0]

    def test_stage_failure_leaves_state_untouched(self, scorer, serve_readings):
        serial, day, reading = serve_readings[0]
        scorer.stage(serial, day, reading)
        before = scorer.snapshot()
        with pytest.raises((ValueError, KeyError)):
            scorer.stage(serial, day + 1, {**reading, "firmware": "NOT_A_FW"})
        assert scorer.snapshot() == before

    def test_no_reduced_model(self, serve_models, serve_readings):
        full, _ = serve_models
        scorer = IncrementalScorer(full)
        assert not scorer.has_reduced
        serial, day, reading = serve_readings[0]
        row = scorer.stage(serial, day, reading)
        with pytest.raises(RuntimeError, match="reduced"):
            scorer.predict_reduced(row)

    def test_union_of_columns(self, serve_models):
        """Full columns first, then the reduced model's extras."""
        full, reduced = serve_models
        assert IncrementalScorer(full, reduced).predictor._columns == tuple(
            full.assembler_.columns
        )
        swapped = IncrementalScorer(reduced, full).predictor._columns
        assert swapped[: len(reduced.assembler_.columns)] == tuple(
            reduced.assembler_.columns
        )
        assert set(swapped) == set(full.assembler_.columns)

    def test_mismatched_firmware_encoders_rejected(self, serve_models):
        full, reduced = serve_models
        other = copy.copy(reduced)
        other.firmware_encoder_ = LabelEncoder().fit(["FW-A", "FW-B"])
        with pytest.raises(ValueError, match="firmware encoder"):
            IncrementalScorer(full, other)

    def test_mismatched_history_length_rejected(self, serve_models):
        full, reduced = serve_models
        other = copy.copy(reduced)
        other.assembler_ = copy.copy(reduced.assembler_)
        other.assembler_.history_length = reduced.assembler_.history_length + 1
        with pytest.raises(ValueError, match="history_length"):
            IncrementalScorer(full, other)


@st.composite
def _streams(draw, serve_readings):
    """Per-drive reading sequences with strictly increasing days, whole
    W/B/firmware dimensions dropped on random days, drives interleaved."""
    serials = sorted({r[0] for r in serve_readings})
    picked = draw(st.lists(st.sampled_from(serials), min_size=1, max_size=3, unique=True))
    queues = []
    for serial in picked:
        source = [r[2] for r in serve_readings if r[0] == serial]
        n = draw(st.integers(1, min(12, len(source))))
        gaps = draw(st.lists(st.integers(1, 4), min_size=n, max_size=n))
        day = draw(st.integers(0, 200))
        queue = []
        for reading, gap in zip(source, gaps):
            day += gap
            dropped = draw(st.sets(st.sampled_from(sorted(DROPPABLE))))
            columns = {c for name in dropped for c in DROPPABLE[name]}
            queue.append(
                (serial, day, {k: v for k, v in reading.items() if k not in columns})
            )
        queues.append(queue)
    order = draw(
        st.permutations([i for i, queue in enumerate(queues) for _ in queue])
    )
    stream = []
    for i in order:
        stream.append(queues[i].pop(0))
    return stream


def _oracle_rows(models, stream):
    """Two independent impute-mode predictors, each fed every reading."""
    predictors = [ClientPredictor.from_model(m, on_missing="impute") for m in models]
    rows = [[p.ingest(*reading) for reading in stream] for p in predictors]
    return predictors, [np.vstack(r) for r in rows]


class TestSharedStateProperties:
    @pytest.mark.parametrize("swap", [False, True], ids=["full-reduced", "swapped"])
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_equals_two_independent_predictors(
        self, serve_models, serve_readings, swap, data
    ):
        """Property 1: the shared scorer's rows and probabilities for
        both models equal those of two predictors each fed every
        reading. ``swap`` puts the larger model in the reduced slot, so
        the union of columns differs from the full model's."""
        models = serve_models[::-1] if swap else serve_models
        stream = data.draw(_streams(serve_readings))
        scorer = IncrementalScorer(*models)
        X = np.vstack([scorer.stage(*reading) for reading in stream])
        (full, reduced), (full_X, reduced_X) = _oracle_rows(models, stream)
        np.testing.assert_array_equal(scorer.full_rows(X), full_X)
        np.testing.assert_array_equal(scorer.reduced_rows(X), reduced_X)
        np.testing.assert_array_equal(
            scorer.predict_full(X), full.predict_matrix(full_X)
        )
        np.testing.assert_array_equal(
            scorer.predict_reduced(X), reduced.predict_matrix(reduced_X)
        )

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_snapshot_restore_at_any_offset(self, serve_models, serve_readings, data):
        """Property 2: snapshot → JSON → restore at an arbitrary offset
        continues exactly like an uninterrupted run."""
        stream = data.draw(_streams(serve_readings))
        offset = data.draw(st.integers(0, len(stream)))
        uninterrupted = IncrementalScorer(*serve_models)
        expected = [uninterrupted.stage(*reading) for reading in stream]

        before = IncrementalScorer(*serve_models)
        for reading in stream[:offset]:
            before.stage(*reading)
        after = IncrementalScorer(*serve_models)
        after.restore(json.loads(json.dumps(before.snapshot())))
        for reading, row in zip(stream[offset:], expected[offset:]):
            np.testing.assert_array_equal(after.stage(*reading), row)
        assert after.snapshot() == uninterrupted.snapshot()


class TestDimensionFreshness:
    W = {"w161_fs_io_error": 1.0}
    FULL = {
        "s2_temperature": 40.0,
        "w161_fs_io_error": 1.0,
        "b1_unexpected_power_off": 0.0,
        "firmware": "FW1",
    }

    def test_fresh_until_threshold(self):
        freshness = DimensionFreshness(stale_after=3)
        for _ in range(2):
            freshness.observe({"s2_temperature": 40.0})
        assert freshness.stale_dimensions() == ()
        freshness.observe({"s2_temperature": 40.0})
        assert "W" in freshness.stale_dimensions()

    def test_reappearance_resets_streak(self):
        freshness = DimensionFreshness(stale_after=2)
        freshness.observe({"s2_temperature": 40.0})
        freshness.observe(self.FULL)  # W reappears
        freshness.observe({"s2_temperature": 40.0})
        assert "W" not in freshness.stale_dimensions()

    def test_all_dimensions_tracked_independently(self):
        freshness = DimensionFreshness(stale_after=1)
        freshness.observe({"w161_fs_io_error": 1.0})
        stale = freshness.stale_dimensions()
        assert "W" not in stale
        assert "B" in stale and "firmware" in stale

    def test_snapshot_roundtrip(self):
        freshness = DimensionFreshness(stale_after=5)
        for _ in range(3):
            freshness.observe({"s2_temperature": 40.0})
        restored = DimensionFreshness(stale_after=5)
        restored.restore(freshness.snapshot())
        for _ in range(2):
            restored.observe({"s2_temperature": 40.0})
        assert "W" in restored.stale_dimensions()

    def test_invalid_construction(self):
        with pytest.raises(ValueError):
            DimensionFreshness(stale_after=0)

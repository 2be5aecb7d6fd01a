"""Unit tests for degraded-mode (missing-dimension) scoring."""

import numpy as np
import pytest

from repro.core import MFPA, MFPAConfig
from repro.core.client import ClientPredictor
from repro.core.deployment import FleetMonitor
from repro.robustness.degraded import (
    DegradedScorer,
    adapt_for_missing_dimensions,
    fit_reduced_model,
    missing_dimensions,
    reduced_group_name,
)
from repro.robustness.faults import MissingDimension, inject
from repro.telemetry import FleetConfig, VendorMix, simulate_fleet
from repro.telemetry.dataset import B_COLUMNS, W_COLUMNS
from repro.telemetry.smart import SMART_COLUMNS


@pytest.fixture(scope="module")
def fitted(small_fleet):
    model = MFPA(MFPAConfig())
    model.fit(small_fleet, train_end_day=240)
    return model


@pytest.fixture(scope="module")
def reduced(small_fleet):
    return fit_reduced_model(small_fleet, 240)


def _full_reading(model, serial, index):
    rows = model.dataset_.drive_rows(serial)
    reading = {"firmware": rows["firmware"][index]}
    for column in (*SMART_COLUMNS, *W_COLUMNS, *B_COLUMNS):
        reading[column] = float(rows[column][index])
    return int(rows["day"][index]), reading


class TestMissingDimensions:
    def test_complete_dataset_has_none(self, small_fleet):
        assert missing_dimensions(small_fleet) == ()

    def test_detects_removed_dimension(self, small_fleet):
        corrupted = inject(small_fleet, [MissingDimension("B")], seed=0)
        assert missing_dimensions(corrupted) == ("B",)

    def test_reduced_group_names(self):
        assert reduced_group_name("SFWB", ("W",)) == "SFB"
        assert reduced_group_name("SFWB", ("W", "B")) == "SF"
        assert reduced_group_name("SFWB", ("W", "B", "firmware")) == "S"
        assert reduced_group_name("SF", ()) == "SF"

    def test_no_usable_reduction(self):
        with pytest.raises(ValueError, match="no usable reduction"):
            reduced_group_name("W", ("W",))


class TestAdaptation:
    def test_identity_when_complete(self, small_fleet):
        dataset, config, missing = adapt_for_missing_dimensions(
            small_fleet, MFPAConfig()
        )
        assert dataset is small_fleet
        assert missing == ()

    def test_zero_fills_and_reduces(self, small_fleet):
        corrupted = inject(small_fleet, [MissingDimension("W")], seed=0)
        dataset, config, missing = adapt_for_missing_dimensions(
            corrupted, MFPAConfig()
        )
        assert missing == ("W",)
        assert config.feature_group_name == "SFB"
        for column in W_COLUMNS:
            assert np.all(dataset.columns[column] == 0.0)

    def test_degraded_monitor_trains_and_scores(self, small_fleet):
        corrupted = inject(small_fleet, [MissingDimension("W")], seed=0)
        monitor = FleetMonitor(allow_degraded=True)
        monitor.start(corrupted, train_end_day=240)
        assert monitor.degraded_dimensions_ == ("W",)
        assert monitor.config.feature_group_name == "SFB"
        window = monitor.score_window(240, 300)
        assert window.n_drives_scored > 0

    def test_strict_monitor_still_rejects(self, small_fleet):
        corrupted = inject(small_fleet, [MissingDimension("W")], seed=0)
        monitor = FleetMonitor()
        with pytest.raises(KeyError):
            monitor.start(corrupted, train_end_day=240)


class TestImputingPredictor:
    def test_missing_smart_imputes_last_known(self, fitted):
        predictor = ClientPredictor.from_model(fitted, on_missing="impute")
        serial = int(fitted.dataset_.serials[0])
        day0, reading0 = _full_reading(fitted, serial, 0)
        predictor.observe(serial, day0, reading0)
        assert not predictor.last_prediction_degraded

        day1, reading1 = _full_reading(fitted, serial, 1)
        partial = dict(reading1)
        del partial["s2_temperature"]
        predictor.observe(serial, day1, partial)
        assert predictor.last_prediction_degraded
        assert "s2_temperature" in predictor.last_missing_columns
        assert predictor.n_degraded_predictions(serial) == 1

    def test_cold_start_missing_everything_scores_zeroes(self, fitted):
        predictor = ClientPredictor.from_model(fitted, on_missing="impute")
        probability = predictor.observe(1, 0, {})
        assert 0.0 <= probability <= 1.0
        assert predictor.last_prediction_degraded

    def test_invalid_policy_rejected(self, fitted):
        with pytest.raises(ValueError, match="on_missing"):
            ClientPredictor.from_model(fitted, on_missing="explode")


class TestDegradedScorer:
    def test_complete_reading_not_degraded(self, fitted, reduced):
        scorer = DegradedScorer.from_models(fitted, reduced)
        serial = int(fitted.dataset_.serials[0])
        day, reading = _full_reading(fitted, serial, 0)
        prediction = scorer.observe(serial, day, reading)
        assert not prediction.degraded
        assert not prediction.used_reduced_model

    def test_missing_dimension_routes_to_reduced(self, fitted, reduced):
        scorer = DegradedScorer.from_models(fitted, reduced)
        serial = int(fitted.dataset_.serials[0])
        day, reading = _full_reading(fitted, serial, 0)
        partial = {
            k: v for k, v in reading.items()
            if k not in W_COLUMNS and k not in B_COLUMNS
        }
        prediction = scorer.observe(serial, day, partial)
        assert prediction.degraded
        assert prediction.used_reduced_model
        assert set(prediction.missing) == {"W", "B"}

    def test_reduced_matches_standalone_sf_model(self, fitted, reduced):
        """Routing must produce exactly the reduced model's probability."""
        scorer = DegradedScorer.from_models(fitted, reduced)
        standalone = ClientPredictor.from_model(reduced, on_missing="impute")
        serial = int(fitted.dataset_.failed_serials()[0])
        day, reading = _full_reading(fitted, serial, 0)
        partial = {
            k: v for k, v in reading.items()
            if k not in W_COLUMNS and k not in B_COLUMNS
        }
        prediction = scorer.observe(serial, day, partial)
        assert prediction.probability == standalone.observe(serial, day, partial)

    def test_without_reduced_model_imputes(self, fitted):
        scorer = DegradedScorer.from_models(fitted)
        serial = int(fitted.dataset_.serials[0])
        day, reading = _full_reading(fitted, serial, 0)
        partial = {
            k: v for k, v in reading.items()
            if k not in W_COLUMNS and k not in B_COLUMNS
        }
        prediction = scorer.observe(serial, day, partial)
        assert prediction.degraded
        assert not prediction.used_reduced_model

    def test_alarm_uses_full_threshold(self, fitted, reduced):
        scorer = DegradedScorer.from_models(fitted, reduced)
        serial = int(fitted.dataset_.serials[0])
        day, reading = _full_reading(fitted, serial, 0)
        alarmed, prediction = scorer.alarm(serial, day, reading)
        assert alarmed == (prediction.probability >= scorer.threshold)


class TestDegradedScorerSharedState:
    """Both models see every reading, whichever one scores it."""

    @pytest.fixture(scope="class")
    def models(self):
        fleet = simulate_fleet(
            FleetConfig(mix=VendorMix({"I": 150}), horizon_days=300, seed=3)
        )
        full = MFPA(MFPAConfig())
        full.fit(fleet, train_end_day=200)
        return full, fit_reduced_model(fleet, 200, base_config=full.config)

    def test_firmware_dropout_imputes_last_known_firmware(self, models):
        """A firmware dropout on a drive's 16th reading routes to the
        reduced model, which must impute the drive's last-known firmware
        (as a reduced predictor fed every reading does), not code 0 from
        a state that only saw the routed readings."""
        full, reduced = models
        checked, diverged = 0, []
        for serial in map(int, full.dataset_.serials):
            if len(full.dataset_.drive_rows(serial)["day"]) < 16:
                continue
            day, reading = _full_reading(full, serial, 15)
            if full.firmware_encoder_.transform([reading["firmware"]])[0] == 0:
                continue
            scorer = DegradedScorer.from_models(full, reduced)
            oracle = ClientPredictor.from_model(reduced, on_missing="impute")
            for index in range(15):
                day, reading = _full_reading(full, serial, index)
                scorer.observe(serial, day, reading)
                oracle.observe(serial, day, reading)
            day, reading = _full_reading(full, serial, 15)
            del reading["firmware"]
            prediction = scorer.observe(serial, day, reading)
            assert prediction.used_reduced_model
            if prediction.probability != oracle.observe(serial, day, reading):
                diverged.append(serial)
            checked += 1
        assert checked > 0
        assert diverged == [], f"{len(diverged)} of {checked} drives diverged"

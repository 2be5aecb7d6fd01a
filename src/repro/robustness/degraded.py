"""Degraded-mode scoring: predict with feature dimensions missing.

Consumer collectors routinely fail to deliver a whole dimension —
WindowsEvent counters need an event-log subscription, BSOD minidumps
may be disabled, firmware strings can be unreadable. The paper's
Table 5 ablation shows the model still carries most of its skill on
reduced groups (SF, S), so rather than refusing to score, we:

* impute missing per-reading values (last-known, else zero) inside
  :class:`~repro.core.client.ClientPredictor` (``on_missing="impute"``),
* optionally route readings missing an entire dimension to a pre-fitted
  reduced-dimension model that shares the full model's per-drive state
  (:class:`DegradedScorer`), and
* let :class:`~repro.core.deployment.FleetMonitor` fall back to the
  largest feature group a dataset actually supports
  (:func:`adapt_for_missing_dimensions`).

Every degraded prediction is flagged so operators can track how much of
the fleet is being scored at reduced fidelity.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from repro.core.client import IncrementalScorer
from repro.core.features import FEATURE_GROUPS, feature_group
from repro.core.pipeline import MFPA, MFPAConfig
from repro.telemetry.dataset import B_COLUMNS, TelemetryDataset, W_COLUMNS
from repro.telemetry.smart import SMART_COLUMNS

#: Raw dataset columns per feature dimension.
DIMENSION_COLUMNS: dict[str, tuple[str, ...]] = {
    "S": SMART_COLUMNS,
    "firmware": ("firmware",),
    "W": W_COLUMNS,
    "B": B_COLUMNS,
}


def missing_dimensions(dataset: TelemetryDataset) -> tuple[str, ...]:
    """Feature dimensions with at least one raw column absent."""
    return tuple(
        dim
        for dim, columns in DIMENSION_COLUMNS.items()
        if any(column not in dataset.columns for column in columns)
    )


def reduced_group_name(name: str, missing: tuple[str, ...]) -> str:
    """The Table-V group left after removing the missing dimensions.

    Raises ``ValueError`` when nothing usable remains (e.g. group "W"
    with the W dimension missing).
    """
    group = feature_group(name)
    flags = (
        group.smart and "S" not in missing,
        group.firmware and "firmware" not in missing,
        group.windows_events and "W" not in missing,
        group.bsod and "B" not in missing,
    )
    for candidate in FEATURE_GROUPS.values():
        if (
            candidate.smart,
            candidate.firmware,
            candidate.windows_events,
            candidate.bsod,
        ) == flags:
            return candidate.name
    raise ValueError(
        f"feature group {name!r} has no usable reduction without {missing}"
    )


def adapt_for_missing_dimensions(
    dataset: TelemetryDataset, config: MFPAConfig
) -> tuple[TelemetryDataset, MFPAConfig, tuple[str, ...]]:
    """Make a dimension-incomplete dataset trainable.

    Zero-fills the absent raw columns (preprocessing indexes them
    unconditionally) and shrinks the configured feature group to the
    dimensions actually delivered — the paper's Table-5 reduced groups.
    Returns ``(dataset, config, missing_dimensions)`` unchanged when
    nothing is missing.
    """
    missing = missing_dimensions(dataset)
    if not missing:
        return dataset, config, ()
    n = dataset.n_records
    columns = dict(dataset.columns)
    for dim in missing:
        for column in DIMENSION_COLUMNS[dim]:
            if column in columns:
                continue
            if column == "firmware":
                columns[column] = np.array(["unknown"] * n, dtype=object)
            else:
                columns[column] = np.zeros(n)
    config = replace(
        config,
        feature_group_name=reduced_group_name(config.feature_group_name, missing),
        feature_columns=None,
    )
    filled = TelemetryDataset(columns, dataset.drives, dataset.tickets)
    return filled, config, missing


def fit_reduced_model(
    dataset: TelemetryDataset,
    train_end_day: int,
    base_config: MFPAConfig | None = None,
    feature_group_name: str = "SF",
) -> MFPA:
    """Pre-fit the reduced-dimension fallback model (default SF)."""
    config = replace(
        base_config or MFPAConfig(),
        feature_group_name=feature_group_name,
        feature_columns=None,
    )
    model = MFPA(config)
    model.fit(dataset, train_end_day=train_end_day)
    return model


@dataclass(frozen=True)
class DegradedPrediction:
    """One scored reading, annotated with its fidelity."""

    probability: float
    degraded: bool
    missing: tuple[str, ...]
    used_reduced_model: bool


class DegradedScorer:
    """Client-side scorer that survives missing feature dimensions.

    A routing rule over :class:`~repro.core.client.IncrementalScorer`:
    every reading updates the one per-drive state the full and reduced
    models share. A reading missing an entire W/B/firmware dimension is
    then scored by the reduced model when there is one — mirroring the
    paper's feature-group ablation — while partially missing readings
    are imputed in place and scored by the full model. Since both models
    see every reading, either imputes from the drive's real last-known
    values. Every prediction carries a ``degraded`` flag.
    """

    def __init__(self, scorer: IncrementalScorer):
        self._scorer = scorer

    @classmethod
    def from_models(cls, full: MFPA, reduced: MFPA | None = None) -> "DegradedScorer":
        return cls(IncrementalScorer(full, reduced))

    @property
    def threshold(self) -> float:
        return self._scorer.predictor.threshold

    def _missing_dimensions(self, reading: dict) -> tuple[str, ...]:
        missing = []
        for dim, columns in DIMENSION_COLUMNS.items():
            if not any(column in reading for column in columns):
                missing.append(dim)
        return tuple(missing)

    def observe(self, serial: int, day: int, reading: dict) -> DegradedPrediction:
        missing = self._missing_dimensions(reading)
        row = self._scorer.stage(serial, day, reading)
        routable = set(missing) & {"W", "B", "firmware"}
        if routable and "S" not in missing and self._scorer.has_reduced:
            return DegradedPrediction(
                probability=float(self._scorer.predict_reduced(row)[0]),
                degraded=True,
                missing=missing,
                used_reduced_model=True,
            )
        return DegradedPrediction(
            probability=float(self._scorer.predict_full(row)[0]),
            degraded=bool(missing) or self._scorer.predictor.last_prediction_degraded,
            missing=missing,
            used_reduced_model=False,
        )

    def alarm(self, serial: int, day: int, reading: dict) -> tuple[bool, DegradedPrediction]:
        prediction = self.observe(serial, day, reading)
        return prediction.probability >= self.threshold, prediction

"""Client-side streaming prediction (§IV Fig 20's deployment story).

The paper pushes the trained model to consumer machines, where it must
score each day's fresh telemetry in microseconds without the batch
pipeline's columnar dataset. :class:`ClientPredictor` packages a fitted
MFPA for that setting: it keeps per-drive incremental state (cumulative
W/B counters, encoded firmware) and turns one day's raw readings into
the same feature vector the batch pipeline would assemble — verified
equivalent in the test suite.

``observe`` is exception-safe: a rejected reading (out-of-order day,
missing column in strict mode) leaves the drive's state untouched, so
the caller can correct the reading and retry. With
``on_missing="impute"`` a reading with absent columns is scored anyway
— last-known value, else zero — and flagged degraded (see
:mod:`repro.robustness.degraded` for dimension-level fallback).

:class:`IncrementalScorer` pairs the full model with the reduced
fallback model over one shared per-drive state; the serve daemon and
:class:`~repro.robustness.degraded.DegradedScorer` both score through
it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.features import FIRMWARE_CODE_COLUMN
from repro.core.pipeline import MFPA
from repro.telemetry.dataset import B_COLUMNS, W_COLUMNS

_EVENT_COLUMNS = (*W_COLUMNS, *B_COLUMNS)


@dataclass
class _DriveState:
    """Incremental per-drive accumulators."""

    cumulative_events: dict[str, float] = field(default_factory=dict)
    history: list[np.ndarray] = field(default_factory=list)
    last_day: int | None = None
    last_raw: dict[str, float] = field(default_factory=dict)
    last_firmware: str | None = None
    n_degraded: int = 0


class ClientPredictor:
    """Streaming scorer built from a fitted :class:`MFPA`.

    Usage::

        predictor = ClientPredictor.from_model(fitted_mfpa)
        probability = predictor.observe(serial=7, day=120, reading={...})

    ``reading`` maps raw telemetry names (SMART columns, daily W/B
    counts, ``firmware``) to values — exactly what a client collector
    produces. The predictor accumulates the W/B counters itself and
    maintains the trailing-history window when the model was trained
    with ``history_length > 1``.

    ``on_missing`` selects the missing-column policy: ``"raise"``
    (default, reject the reading with ``KeyError``) or ``"impute"``
    (fill from the drive's last-known value, else zero, and record the
    prediction as degraded in ``last_prediction_degraded`` /
    ``last_missing_columns``).
    """

    def __init__(
        self,
        model,
        columns,
        history_length,
        firmware_encoder,
        threshold,
        on_missing: str = "raise",
    ):
        if on_missing not in ("raise", "impute"):
            raise ValueError("on_missing must be 'raise' or 'impute'")
        self._model = model
        self._columns = tuple(columns)
        self._history_length = history_length
        self._encoder = firmware_encoder
        self.threshold = threshold
        self.on_missing = on_missing
        self._states: dict[int, _DriveState] = {}
        self.last_prediction_degraded = False
        self.last_missing_columns: tuple[str, ...] = ()

    @classmethod
    def from_model(cls, fitted: MFPA, on_missing: str = "raise") -> "ClientPredictor":
        """Package a fitted pipeline for client deployment."""
        fitted._check_fitted()
        return cls(
            model=fitted.model_,
            columns=fitted.assembler_.columns,
            history_length=fitted.assembler_.history_length,
            firmware_encoder=fitted.firmware_encoder_,
            threshold=fitted.config.decision_threshold,
            on_missing=on_missing,
        )

    @property
    def n_tracked_drives(self) -> int:
        return len(self._states)

    def _feature_vector(
        self,
        state: _DriveState,
        reading: dict,
        cumulative: dict[str, float],
    ) -> tuple[np.ndarray, list[str]]:
        """Assemble the vector without touching ``state``.

        Returns ``(vector, missing_columns)``; raises ``KeyError`` in
        strict mode instead of imputing.
        """
        values = []
        missing: list[str] = []
        for column in self._columns:
            if column == FIRMWARE_CODE_COLUMN:
                firmware = reading.get("firmware")
                if firmware is None:
                    if self.on_missing == "raise":
                        raise KeyError("reading is missing 'firmware'")
                    missing.append("firmware")
                    firmware = state.last_firmware
                    if firmware is None:
                        values.append(0.0)
                        continue
                values.append(float(self._encoder.transform([firmware])[0]))
            elif column.startswith("cum_"):
                values.append(cumulative.get(column, 0.0))
            else:
                if column not in reading:
                    if self.on_missing == "raise":
                        raise KeyError(f"reading is missing {column!r}")
                    missing.append(column)
                    values.append(state.last_raw.get(column, 0.0))
                else:
                    values.append(float(reading[column]))
        return np.asarray(values), missing

    def ingest(self, serial: int, day: int, reading: dict) -> np.ndarray:
        """Commit one day's telemetry; return the model-input row.

        This is :meth:`observe` without the model call — the streaming
        state update (cumulative counters, trailing history, last-known
        values) plus feature assembly. The serve daemon uses it to
        assemble rows incrementally and batch the predictions; pass the
        returned row(s) to :meth:`predict_matrix`.

        Readings must arrive in chronological order per drive; the daily
        W/B counts in ``reading`` are added to the drive's running
        cumulative counters *before* assembly, matching the batch
        pipeline's accumulate-then-assemble order. All validation runs
        before any state mutation — a raised reading is retryable.
        """
        state = self._states.setdefault(int(serial), _DriveState())
        if state.last_day is not None and day <= state.last_day:
            raise ValueError(
                f"out-of-order reading for drive {serial}: "
                f"day {day} after day {state.last_day}"
            )

        # Stage the cumulative update on a copy so a validation failure
        # below leaves the drive's counters untouched.
        cumulative = dict(state.cumulative_events)
        for column in _EVENT_COLUMNS:
            if column in reading:
                cum_column = f"cum_{column}"
                cumulative[cum_column] = (
                    cumulative.get(cum_column, 0.0) + float(reading[column])
                )

        vector, missing = self._feature_vector(state, reading, cumulative)

        # ---- validation passed: commit ----
        state.last_day = int(day)
        state.cumulative_events = cumulative
        for column in self._columns:
            if column in reading:
                state.last_raw[column] = float(reading[column])
        if reading.get("firmware") is not None:
            state.last_firmware = reading["firmware"]
        self.last_missing_columns = tuple(missing)
        self.last_prediction_degraded = bool(missing)
        if missing:
            state.n_degraded += 1

        state.history.append(vector)
        if len(state.history) > self._history_length:
            state.history.pop(0)

        if self._history_length == 1:
            return vector
        # Pad with the earliest available vector, earliest-first —
        # the same clamping FeatureAssembler applies.
        padded = [state.history[0]] * (
            self._history_length - len(state.history)
        ) + state.history
        return np.concatenate(padded)

    def predict_matrix(self, X: np.ndarray) -> np.ndarray:
        """Positive-class probabilities for stacked :meth:`ingest` rows."""
        X = np.atleast_2d(np.asarray(X, dtype=float))
        return self._model.predict_proba(X)[:, 1]

    def observe(self, serial: int, day: int, reading: dict) -> float:
        """Ingest one day's telemetry and return the failure probability.

        Equivalent to ``predict_matrix(ingest(...))[0]`` — see
        :meth:`ingest` for the ordering and retry contract.
        """
        row = self.ingest(serial, day, reading)
        return float(self.predict_matrix(row[None, :])[0])

    def alarm(self, serial: int, day: int, reading: dict) -> tuple[bool, float]:
        """Convenience: ``(raises_alarm, probability)`` for one reading."""
        probability = self.observe(serial, day, reading)
        return probability >= self.threshold, probability

    def n_degraded_predictions(self, serial: int) -> int:
        """How many of a drive's predictions used imputed values."""
        state = self._states.get(int(serial))
        return state.n_degraded if state is not None else 0

    def forget(self, serial: int) -> None:
        """Drop a drive's state (it was replaced or decommissioned)."""
        self._states.pop(int(serial), None)

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """JSON-serializable copy of every drive's streaming state.

        Finite floats round-trip exactly through JSON, so a predictor
        restored from a snapshot scores future readings bit-identically
        to one that never stopped — the serve daemon's resume contract.
        """
        return {
            "drives": {
                str(serial): {
                    "cumulative_events": dict(state.cumulative_events),
                    "history": [vector.tolist() for vector in state.history],
                    "last_day": state.last_day,
                    "last_raw": dict(state.last_raw),
                    "last_firmware": state.last_firmware,
                    "n_degraded": state.n_degraded,
                }
                for serial, state in self._states.items()
            }
        }

    def restore(self, snapshot: dict) -> None:
        """Replace all per-drive state with a :meth:`snapshot`."""
        states: dict[int, _DriveState] = {}
        for serial, entry in snapshot["drives"].items():
            states[int(serial)] = _DriveState(
                cumulative_events=dict(entry["cumulative_events"]),
                history=[
                    np.asarray(vector, dtype=float)
                    for vector in entry["history"]
                ],
                last_day=entry["last_day"],
                last_raw=dict(entry["last_raw"]),
                last_firmware=entry["last_firmware"],
                n_degraded=entry["n_degraded"],
            )
        self._states = states


def _slot_index(columns: tuple[str, ...], subset, history_length: int) -> np.ndarray:
    """Positions of ``subset`` within every history slot of a row laid
    out as ``history_length`` consecutive blocks of ``columns``."""
    offsets = np.array([columns.index(column) for column in subset], dtype=np.intp)
    return np.concatenate(
        [slot * len(columns) + offsets for slot in range(history_length)]
    )


class IncrementalScorer:
    """A full and an optional reduced model over one per-drive state.

    Both models read the same drive history, so it is kept once: an
    impute-mode :class:`ClientPredictor` over the union of their columns
    (the full model's, then any only the reduced model uses).
    :meth:`stage` ingests a reading once and returns that union row;
    :meth:`predict_full` and :meth:`predict_reduced` score column slices
    of stacked rows, so the caller can pick either model per batch and
    both always see every reading.

    The shared row holds one firmware code per history slot, so the two
    models must agree on ``history_length`` and on the firmware encoder's
    classes; a mismatched pair raises ``ValueError``.
    """

    def __init__(self, full: MFPA, reduced: MFPA | None = None):
        full._check_fitted()
        full_columns = tuple(full.assembler_.columns)
        history_length = full.assembler_.history_length
        columns = full_columns
        if reduced is not None:
            reduced._check_fitted()
            if reduced.assembler_.history_length != history_length:
                raise ValueError(
                    "full and reduced models need the same history_length, "
                    f"got {history_length} and "
                    f"{reduced.assembler_.history_length}"
                )
            if list(reduced.firmware_encoder_.classes_) != list(
                full.firmware_encoder_.classes_
            ):
                raise ValueError(
                    "full and reduced models need the same firmware encoder classes"
                )
            columns += tuple(
                column
                for column in reduced.assembler_.columns
                if column not in full_columns
            )
        self.predictor = ClientPredictor(
            model=full.model_,
            columns=columns,
            history_length=history_length,
            firmware_encoder=full.firmware_encoder_,
            threshold=full.config.decision_threshold,
            on_missing="impute",
        )
        self.reduced_model = reduced.model_ if reduced is not None else None
        self._full_index = _slot_index(columns, full_columns, history_length)
        self._reduced_index = (
            _slot_index(columns, reduced.assembler_.columns, history_length)
            if reduced is not None
            else None
        )

    @property
    def has_reduced(self) -> bool:
        return self.reduced_model is not None

    def stage(self, serial: int, day: int, reading: dict) -> np.ndarray:
        """Commit one reading; return its row for both models.

        Raises whatever :meth:`ClientPredictor.ingest` raises (unseen
        firmware label, for one) and, like it, leaves the state
        untouched when it does.
        """
        return self.predictor.ingest(serial, day, reading)

    def full_rows(self, X: np.ndarray) -> np.ndarray:
        """The full model's columns of staged rows."""
        return np.atleast_2d(X)[:, self._full_index]

    def reduced_rows(self, X: np.ndarray) -> np.ndarray:
        """The reduced model's columns of staged rows."""
        if self._reduced_index is None:
            raise RuntimeError("no reduced-feature fallback model was fitted")
        return np.atleast_2d(X)[:, self._reduced_index]

    def predict_full(self, X: np.ndarray) -> np.ndarray:
        return self.predictor.predict_matrix(self.full_rows(X))

    def predict_reduced(self, X: np.ndarray) -> np.ndarray:
        rows = self.reduced_rows(X)  # raises first when there is no model
        return self.reduced_model.predict_proba(rows)[:, 1]

    # -- checkpointing --------------------------------------------------
    def snapshot(self) -> dict:
        return self.predictor.snapshot()

    def restore(self, snapshot: dict) -> None:
        self.predictor.restore(snapshot)

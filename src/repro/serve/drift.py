"""Live drift monitoring for the serve daemon.

The paper's Figs 12/16 show FPR creeping as feature distributions move
away from what MFPA learned; :mod:`repro.core.drift` quantifies that
offline with PSI. This module closes the operational loop for the
always-on daemon:

* :class:`ReferenceProfile` — the training-time artifact: per-feature
  quantile bin edges + expected shares (from
  :func:`repro.core.drift.reference_bins`) and the same sketch of the
  model's training-era score distribution. Built once at bootstrap,
  pickled into the serve checkpoint and exportable as JSON beside the
  run manifest, so a monitor restarted months later still compares
  against the exact training population.
* :class:`DriftMonitor` — per window, computes PSI for every feature
  column and for the score distribution via
  :func:`repro.core.drift.psi_against_reference` (the *same* function
  the offline report uses, so values are bit-identical on the same
  windows), exports them as ``serve_drift_psi{feature=...}`` gauges
  plus a ``serve_drift_state`` gauge, and fires a rate-budgeted drift
  event (log + ``serve_drift_events_total``) when any PSI crosses the
  "severe" threshold.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from repro.commit import atomic_write
from repro.core.drift import psi_against_reference, reference_bins
from repro.obs import get_logger, inc_counter, set_gauge

__all__ = ["SCORE_FEATURE", "DriftMonitor", "ReferenceProfile"]

_LOG = get_logger("repro.serve.drift")

PROFILE_VERSION = 1

#: Label value under which the score-distribution PSI is exported —
#: reserved (dunder) so it can never collide with a feature column.
SCORE_FEATURE = "__score__"

#: Conventional PSI severity thresholds (see repro.core.drift).
DRIFTING_PSI = 0.1
SEVERE_PSI = 0.25

#: serve_drift_state gauge values.
STABLE, DRIFTING, SEVERE = 0, 1, 2
_STATE_NAMES = {STABLE: "stable", DRIFTING: "drifting", SEVERE: "severe"}

Bins = tuple[np.ndarray, "np.ndarray | None"]


class ReferenceProfile:
    """Training-era distribution sketch: quantile bins per feature + score.

    Stores exactly the reference-dependent half of the PSI computation
    (:func:`~repro.core.drift.reference_bins` output), not the raw
    sample — a few hundred floats regardless of fleet size.
    """

    def __init__(
        self,
        columns: tuple[str, ...],
        feature_bins: dict[str, Bins],
        score_bins: Bins | None,
        n_reference_rows: int,
        n_bins: int = 10,
        meta: dict | None = None,
    ):
        self.columns = tuple(columns)
        missing = [c for c in self.columns if c not in feature_bins]
        if missing:
            raise ValueError(f"profile is missing bins for columns {missing}")
        self.feature_bins = feature_bins
        self.score_bins = score_bins
        self.n_reference_rows = int(n_reference_rows)
        self.n_bins = int(n_bins)
        self.meta = dict(meta or {})

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_samples(
        cls,
        columns,
        X: np.ndarray,
        scores: np.ndarray | None = None,
        n_bins: int = 10,
        meta: dict | None = None,
    ) -> "ReferenceProfile":
        """Profile from an explicit reference matrix (one column per
        feature, current-day block only) and optional reference scores."""
        columns = tuple(columns)
        X = np.asarray(X, dtype=float)
        if X.ndim != 2 or X.shape[1] != len(columns):
            raise ValueError(
                f"reference matrix has {X.shape} but {len(columns)} columns "
                "were named"
            )
        feature_bins = {
            column: reference_bins(X[:, i], n_bins)
            for i, column in enumerate(columns)
        }
        score_bins = (
            reference_bins(np.asarray(scores, dtype=float), n_bins)
            if scores is not None
            else None
        )
        return cls(columns, feature_bins, score_bins, X.shape[0], n_bins, meta)

    @classmethod
    def from_model(
        cls,
        model,
        reference_window: tuple[int, int],
        n_bins: int = 10,
        max_rows: int = 20000,
        seed: int = 0,
    ) -> "ReferenceProfile":
        """Profile the training-era population of a fitted MFPA.

        Samples at most ``max_rows`` rows of the prepared dataset inside
        ``reference_window`` (same subsampling policy as
        :func:`repro.core.drift.feature_drift_report`), assembles them
        with the fitted feature assembler, and sketches both the
        per-feature marginals (current-day feature block) and the
        model's score distribution on those rows.
        """
        start, end = reference_window
        if end <= start:
            raise ValueError("reference window end must exceed start")
        prepared = model.dataset_
        day = prepared.columns["day"]
        rows = np.flatnonzero((day >= start) & (day < end))
        if rows.size == 0:
            raise ValueError(f"no rows in reference window {reference_window}")
        if rows.size > max_rows:
            rng = np.random.default_rng(seed)
            rows = rng.choice(rows, size=max_rows, replace=False)
        assembled = model.assembler_.assemble(prepared.columns, rows)
        scores = model.model_.predict_proba(assembled)[:, 1]
        columns = tuple(model.assembler_.columns)
        # The trailing block is the current-day feature vector whatever
        # the history length (earlier blocks are lagged copies).
        current = assembled[:, -len(columns):]
        return cls.from_samples(
            columns,
            current,
            scores,
            n_bins=n_bins,
            meta={
                "reference_window": [int(start), int(end)],
                "max_rows": int(max_rows),
                "seed": int(seed),
            },
        )

    # ------------------------------------------------------------------
    # PSI
    # ------------------------------------------------------------------
    def feature_psi(self, column: str, actual: np.ndarray) -> float:
        edges, share = self.feature_bins[column]
        return psi_against_reference(edges, share, actual)

    def score_psi(self, scores: np.ndarray) -> float | None:
        if self.score_bins is None:
            return None
        edges, share = self.score_bins
        return psi_against_reference(edges, share, scores)

    # ------------------------------------------------------------------
    # Serialization (JSON artifact beside the run manifest)
    # ------------------------------------------------------------------
    @staticmethod
    def _encode_bins(bins: Bins) -> dict:
        edges, share = bins
        # The ±inf end caps are structural; persist only the interior
        # edges so the file is strict JSON.
        inner = [float(e) for e in np.asarray(edges, dtype=float)[1:-1]]
        return {
            "inner_edges": inner,
            "expected_share": None if share is None else [float(s) for s in share],
        }

    @staticmethod
    def _decode_bins(payload: dict) -> Bins:
        edges = np.array(
            [-np.inf, *payload["inner_edges"], np.inf], dtype=float
        )
        share = payload["expected_share"]
        return edges, (None if share is None else np.asarray(share, dtype=float))

    def to_json(self) -> dict:
        return {
            "version": PROFILE_VERSION,
            "n_bins": self.n_bins,
            "n_reference_rows": self.n_reference_rows,
            "columns": list(self.columns),
            "features": {
                column: self._encode_bins(self.feature_bins[column])
                for column in self.columns
            },
            "score": (
                None
                if self.score_bins is None
                else self._encode_bins(self.score_bins)
            ),
            "meta": self.meta,
        }

    @classmethod
    def from_json(cls, payload: dict) -> "ReferenceProfile":
        version = payload.get("version")
        if version != PROFILE_VERSION:
            raise ValueError(f"unsupported reference-profile version {version!r}")
        columns = tuple(payload["columns"])
        return cls(
            columns,
            {c: cls._decode_bins(payload["features"][c]) for c in columns},
            None if payload["score"] is None else cls._decode_bins(payload["score"]),
            payload["n_reference_rows"],
            payload["n_bins"],
            payload.get("meta"),
        )

    def save(self, path: str | Path) -> Path:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = json.dumps(self.to_json(), sort_keys=True) + "\n"
        atomic_write(path, payload.encode())
        return path

    @classmethod
    def load(cls, path: str | Path) -> "ReferenceProfile":
        return cls.from_json(json.loads(Path(path).read_text()))


def _severity(psi: float) -> int:
    if psi < DRIFTING_PSI:
        return STABLE
    if psi < SEVERE_PSI:
        return DRIFTING
    return SEVERE


class DriftMonitor:
    """Per-window PSI against a :class:`ReferenceProfile`, with gauges
    and a rate-budgeted severe-drift event.

    ``event_budget_windows`` is the minimum number of observed windows
    between two drift events: a fleet that goes severely adrift stays
    adrift for many consecutive windows, and paging the operator every
    30 simulated days for the same condition is alarm fatigue — the
    suppressed firings are still counted
    (``serve_drift_events_suppressed_total``).
    """

    def __init__(
        self,
        profile: ReferenceProfile,
        drifting_threshold: float = DRIFTING_PSI,
        severe_threshold: float = SEVERE_PSI,
        event_budget_windows: int = 3,
    ):
        if event_budget_windows < 1:
            raise ValueError("event_budget_windows must be >= 1")
        if not 0 < drifting_threshold < severe_threshold:
            raise ValueError("need 0 < drifting_threshold < severe_threshold")
        self.profile = profile
        self.drifting_threshold = float(drifting_threshold)
        self.severe_threshold = float(severe_threshold)
        self.event_budget_windows = int(event_budget_windows)
        #: Windows observed since the last fired event (None = never fired).
        self._windows_since_event: int | None = None
        #: The most recent window's report (surfaced by /status).
        self.last: dict | None = None

    @property
    def n_columns(self) -> int:
        return len(self.profile.columns)

    def _state_of(self, psi: float) -> int:
        if psi < self.drifting_threshold:
            return STABLE
        if psi < self.severe_threshold:
            return DRIFTING
        return SEVERE

    def observe_window(
        self,
        X: np.ndarray,
        scores: np.ndarray | None = None,
        window_start: int | None = None,
    ) -> dict:
        """Score one flushed window's feature matrix (current-day block,
        one column per profile column) and its emitted probabilities.

        Returns (and stores in :attr:`last`) the per-feature PSI map,
        the score PSI, the aggregate state and whether an event fired.
        """
        X = np.asarray(X, dtype=float)
        if X.ndim != 2 or X.shape[1] != self.n_columns:
            raise ValueError(
                f"window matrix has shape {X.shape}; expected "
                f"(*, {self.n_columns})"
            )
        if X.shape[0] == 0:
            raise ValueError("cannot measure drift on an empty window")
        features: dict[str, float] = {}
        for i, column in enumerate(self.profile.columns):
            psi = self.profile.feature_psi(column, X[:, i])
            features[column] = psi
            set_gauge("serve_drift_psi", psi, feature=column)
        score_psi = None
        if scores is not None and len(np.atleast_1d(scores)):
            score_psi = self.profile.score_psi(np.atleast_1d(scores))
            if score_psi is not None:
                set_gauge("serve_drift_psi", score_psi, feature=SCORE_FEATURE)

        worst = max([*features.values(), *(
            [score_psi] if score_psi is not None else []
        )], default=0.0)
        state = self._state_of(worst)
        set_gauge("serve_drift_state", state)

        if self._windows_since_event is not None:
            self._windows_since_event += 1
        event = False
        if state == SEVERE:
            if (
                self._windows_since_event is None
                or self._windows_since_event >= self.event_budget_windows
            ):
                event = True
                self._windows_since_event = 0
                inc_counter("serve_drift_events_total")
                offenders = sorted(
                    features.items(), key=lambda item: item[1], reverse=True
                )[:5]
                _LOG.warning(
                    "severe feature drift",
                    window_start=window_start,
                    worst=round(worst, 4),
                    score_psi=(
                        None if score_psi is None else round(score_psi, 4)
                    ),
                    top=[[c, round(p, 4)] for c, p in offenders],
                )
            else:
                inc_counter("serve_drift_events_suppressed_total")

        self.last = {
            "window_start": window_start,
            "features": features,
            "score": score_psi,
            "worst": worst,
            "state": state,
            "state_name": _STATE_NAMES[state],
            "event": event,
        }
        return self.last

    # -- checkpointing --------------------------------------------------
    def snapshot(self) -> dict:
        return {
            "windows_since_event": self._windows_since_event,
            "last": self.last,
        }

    def restore(self, snapshot: dict) -> None:
        since = snapshot.get("windows_since_event")
        self._windows_since_event = None if since is None else int(since)
        self.last = snapshot.get("last")
        if self.last is not None:
            set_gauge("serve_drift_state", int(self.last.get("state", STABLE)))

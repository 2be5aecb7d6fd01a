"""Operating MFPA as a fleet-monitoring service.

The paper's deployment story (§IV): the model is trained on history,
pushed to clients, scores incoming telemetry continuously, and is
re-iterated every ~2 months because feature drift pushes the FPR up.
This module packages that loop:

* :class:`FleetMonitor` scores a fleet window by window, raises
  deduplicated per-drive :class:`Alarm`\\ s, and retrains itself on the
  accumulated history per its :class:`RetrainPolicy`;
* :func:`simulate_operation` replays a whole study horizon through a
  monitor and summarizes the operational metrics a storage team cares
  about — alarm precision and failure lead time (how many days of
  warning users get to back up their data).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.core.pipeline import MFPA, MFPAConfig
from repro.obs import inc_counter, observe_histogram, trace_span
from repro.telemetry.dataset import TelemetryDataset


@dataclass(frozen=True)
class Alarm:
    """One raised prediction: this drive is about to fail."""

    serial: int
    day: int
    probability: float


@dataclass(frozen=True)
class RetrainPolicy:
    """When the monitor refreshes its model.

    Parameters
    ----------
    interval_days:
        Retrain after this many days of operation (paper: ~60).
    min_new_failures:
        Skip a scheduled retrain unless at least this many new labeled
        failures arrived — retraining on an unchanged failure set only
        reshuffles noise.
    """

    interval_days: int = 60
    min_new_failures: int = 1

    def __post_init__(self) -> None:
        if self.interval_days < 1:
            raise ValueError("interval_days must be positive")
        if self.min_new_failures < 0:
            raise ValueError("min_new_failures must be non-negative")


@dataclass
class MonitoringWindow:
    """What happened during one scored window."""

    start_day: int
    end_day: int
    alarms: list[Alarm]
    n_drives_scored: int
    retrained: bool


@dataclass
class OperationSummary:
    """Aggregate operational metrics over a full monitored horizon."""

    windows: list[MonitoringWindow]
    true_alarms: int
    false_alarms: int
    missed_failures: int
    lead_times: list[int] = field(default_factory=list)
    unknown_serial_alarms: int = 0
    """Alarms for serials with no :class:`DriveMeta` in the grading
    dataset — a bookkeeping fault (quarantined drive, mismatched
    dataset), reported separately instead of polluting the FPR."""

    @property
    def n_alarms(self) -> int:
        return self.true_alarms + self.false_alarms

    def alarm_records(self) -> list[tuple[int, int, float]]:
        """Every alarm as sorted ``(serial, day, probability)`` tuples —
        the comparison key for batch-vs-streaming alarm parity."""
        return sorted(
            (alarm.serial, alarm.day, alarm.probability)
            for window in self.windows
            for alarm in window.alarms
        )

    @property
    def precision(self) -> float:
        if self.n_alarms == 0:
            return float("nan")
        return self.true_alarms / self.n_alarms

    @property
    def recall(self) -> float:
        caught = self.true_alarms
        total = caught + self.missed_failures
        if total == 0:
            return float("nan")
        return caught / total

    @property
    def has_lead_times(self) -> bool:
        """Whether any true alarm produced a lead-time measurement.

        Check this before formatting :attr:`median_lead_time` — an
        operation with no true alarms has no lead time, and callers
        should render that as "n/a" rather than ``nan``.
        """
        return bool(self.lead_times)

    @property
    def median_lead_time(self) -> float:
        """Median days of warning across true alarms.

        Explicitly NaN when no true alarm was raised (the empty-alarms
        case) — see :attr:`has_lead_times` for a printable guard;
        ``summarize_windows`` counts the underlying empty windows in
        the ``monitor_windows_empty_total`` metric.
        """
        if not self.lead_times:
            return float("nan")
        return float(np.median(self.lead_times))


def predict_rows_parallel(model: MFPA, row_indices: np.ndarray) -> np.ndarray:
    """Positive-class probabilities for prepared-dataset rows.

    Scores in-process: one batched arena pass per window is far cheaper
    than a worker pool's fork and result pipe (the sharded monitor fans
    out whole shards instead). It stays a named function as the
    window's one scoring call, so per-layer timing can attribute
    predict time to it.
    """
    return model.predict_proba_rows(row_indices)


def score_prepared_window(
    model: MFPA,
    alarmed: set[int],
    alarm_threshold: float,
    start_day: int,
    end_day: int,
) -> tuple[list[Alarm], int]:
    """Score one window of ``model.dataset_``; the monitor's core step.

    Scans every not-yet-alarmed drive's records in ``[start_day,
    end_day)``, batches one prediction pass, and raises an alarm at the
    *first* threshold crossing per drive — in a live deployment the
    user is notified the day the score crosses, and every day earlier
    is warning lead time. Newly alarmed serials are added to ``alarmed``
    in place. Returns ``(alarms, n_drives_scored)``.

    This is deliberately a function of ``(model, alarmed)`` rather than
    a monitor method: the sharded monitor calls it once per (shard,
    window) with a per-shard alarmed set, and because drives are scored
    independently the union of per-shard alarms equals the in-RAM
    monitor's window bit for bit.
    """
    prepared = model.dataset_
    row_slices = prepared._row_slices()
    scored_serials: list[int] = []
    scored_days: list[np.ndarray] = []
    scored_indices: list[np.ndarray] = []
    for serial in prepared.drives:
        if serial in alarmed:
            continue
        rows = prepared.drive_rows(serial)
        days = rows["day"]
        in_window = (days >= start_day) & (days < end_day)
        if not np.any(in_window):
            continue
        base = row_slices[serial].start
        scored_serials.append(int(serial))
        scored_days.append(days[in_window])
        scored_indices.append(base + np.flatnonzero(in_window))

    alarms: list[Alarm] = []
    n_scored = len(scored_serials)
    if n_scored:
        # One batched prediction pass across every scored drive.
        counts = np.array([indices.size for indices in scored_indices])
        all_probabilities = predict_rows_parallel(
            model, np.concatenate(scored_indices)
        )
        per_drive = np.split(all_probabilities, np.cumsum(counts)[:-1])
        for serial, days, probabilities in zip(
            scored_serials, scored_days, per_drive
        ):
            crossings = np.flatnonzero(probabilities >= alarm_threshold)
            if crossings.size:
                first = int(crossings[0])
                alarms.append(
                    Alarm(
                        serial=serial,
                        day=int(days[first]),
                        probability=float(probabilities[first]),
                    )
                )
                alarmed.add(serial)
    return alarms, n_scored


def plan_retrains(
    boundaries: list[int],
    policy: RetrainPolicy,
    failure_times: dict[int, int],
    train_end_day: int,
) -> list[bool]:
    """Which window boundaries the monitor will retrain at.

    ``FleetMonitor._maybe_retrain`` depends only on the boundary day,
    the policy, and the failure-time table — never on scoring results —
    and the failure-time table itself is a pure function of the full
    prepared dataset (identical after every refit). The whole retrain
    schedule is therefore known up front, which is what lets the
    sharded monitor run shard-outer/window-inner loops with each
    boundary's model trained once.
    """
    last_trained = train_end_day
    failures_at_training = sum(
        1 for day in failure_times.values() if day < train_end_day
    )
    plan: list[bool] = []
    for day in boundaries:
        if day - last_trained < policy.interval_days:
            plan.append(False)
            continue
        known = sum(1 for fd in failure_times.values() if fd < day)
        if known - failures_at_training < policy.min_new_failures:
            plan.append(False)
            continue
        plan.append(True)
        last_trained = day
        failures_at_training = known
    return plan


class FleetMonitor:
    """Windowed scoring loop with alarm deduplication and retraining.

    The monitor sees the same :class:`TelemetryDataset` the offline
    pipeline does but only *uses* records before the current day — the
    windowing discipline enforces that no future data leaks into either
    scoring or retraining.
    """

    def __init__(
        self,
        config: MFPAConfig | None = None,
        policy: RetrainPolicy | None = None,
        alarm_threshold: float | None = None,
        allow_degraded: bool = False,
    ):
        self.config = config or MFPAConfig()
        self.policy = policy or RetrainPolicy()
        self.alarm_threshold = (
            self.config.decision_threshold if alarm_threshold is None else alarm_threshold
        )
        if not 0 < self.alarm_threshold < 1:
            raise ValueError("alarm_threshold must be in (0, 1)")
        self.allow_degraded = allow_degraded
        self.degraded_dimensions_: tuple[str, ...] = ()
        self._alarmed: set[int] = set()
        self._last_trained_day: int | None = None
        self._failures_at_training = 0

    # ------------------------------------------------------------------
    def start(self, dataset: TelemetryDataset, train_end_day: int) -> None:
        """Train the initial model on history before ``train_end_day``.

        With ``allow_degraded=True`` a dataset missing whole feature
        dimensions (no W/B columns, no firmware) is still accepted: the
        monitor falls back to the largest feature group the data
        supports (the paper's Table-5 reduced groups) and records the
        missing dimensions in ``degraded_dimensions_``.
        """
        with trace_span("monitor.start"):
            if self.allow_degraded:
                from repro.robustness.degraded import adapt_for_missing_dimensions

                dataset, self.config, self.degraded_dimensions_ = (
                    adapt_for_missing_dimensions(dataset, self.config)
                )
            self.dataset = dataset
            self.model = MFPA(self.config)
            self.model.fit(dataset, train_end_day=train_end_day)
        self._last_trained_day = train_end_day
        self._failures_at_training = sum(
            1 for day in self.model.failure_times_.values() if day < train_end_day
        )

    def start_with_model(
        self,
        model: MFPA,
        dataset: TelemetryDataset,
        train_end_day: int,
    ) -> None:
        """Adopt an already-fitted pipeline instead of training one.

        The artifact-loaded fast path: ``repro monitor --model-artifact``
        reaches its first scored window with zero ``fit()`` calls. The
        monitor takes the model's own config (so a later scheduled
        retrain reproduces the artifact's training recipe) and binds the
        fleet dataset through :meth:`MFPA.bind_dataset` when the loaded
        pipeline does not carry one.
        """
        with trace_span("monitor.start"):
            model._check_fitted()
            self.config = model.config
            self.dataset = dataset
            self.model = model
            if not hasattr(model, "dataset_"):
                model.bind_dataset(dataset)
        self._last_trained_day = train_end_day
        self._failures_at_training = sum(
            1 for day in self.model.failure_times_.values() if day < train_end_day
        )

    def _check_started(self) -> None:
        if self._last_trained_day is None:
            raise RuntimeError("FleetMonitor.start() must be called first")

    def _maybe_retrain(self, day: int) -> bool:
        if day - self._last_trained_day < self.policy.interval_days:
            return False
        known_failures = sum(
            1 for failure_day in self.model.failure_times_.values() if failure_day < day
        )
        if known_failures - self._failures_at_training < self.policy.min_new_failures:
            return False
        with trace_span("monitor.retrain"):
            self.model = MFPA(self.config)
            self.model.fit(self.dataset, train_end_day=day)
        inc_counter("monitor_retrains_total")
        self._last_trained_day = day
        self._failures_at_training = known_failures
        return True

    def score_window(self, start_day: int, end_day: int) -> MonitoringWindow:
        """Score every drive's records in ``[start_day, end_day)``.

        Raises at most one alarm per drive over the monitor's lifetime
        (an alarmed drive is assumed pulled for backup/replacement).
        Retraining, when due, happens *before* scoring using only data
        prior to ``start_day``.

        Every call emits a ``window_score_seconds`` observation plus
        window/drive/alarm counters, and runs inside a
        ``monitor.score_window`` span.
        """
        self._check_started()
        if end_day <= start_day:
            raise ValueError("end_day must exceed start_day")
        started = time.perf_counter()
        with trace_span("monitor.score_window"):
            window = self._score_window(start_day, end_day)
        observe_histogram("window_score_seconds", time.perf_counter() - started)
        inc_counter("monitor_windows_scored_total")
        inc_counter("monitor_drives_scored_total", window.n_drives_scored)
        inc_counter("monitor_alarms_raised_total", len(window.alarms))
        return window

    def _score_window(self, start_day: int, end_day: int) -> MonitoringWindow:
        retrained = self._maybe_retrain(start_day)
        alarms, n_scored = score_prepared_window(
            self.model,
            self._alarmed,
            self.alarm_threshold,
            start_day,
            end_day,
        )
        return MonitoringWindow(
            start_day=start_day,
            end_day=end_day,
            alarms=alarms,
            n_drives_scored=n_scored,
            retrained=retrained,
        )


def summarize_windows(
    windows: list[MonitoringWindow],
    dataset: TelemetryDataset,
    start_day: int,
    end_day: int,
) -> OperationSummary:
    """Grade scored windows against ground truth.

    An alarm is *true* if the drive actually fails within the study and
    the alarm precedes (or coincides with) the failure; its lead time
    is ``failure_day - alarm_day``. A failure in the monitored period
    with no preceding alarm is *missed*. Alarms for serials absent from
    ``dataset.drives`` are counted as ``unknown_serial_alarms`` rather
    than folded into the false alarms.

    Grading emits the ``monitor_alarms_total{kind=tp|fp|unknown_serial}``
    counters, a ``monitor_lead_time_days`` observation per true alarm,
    and ``monitor_windows_empty_total`` for every alarm-free window —
    the explicit signal for "no alarms, hence no lead time" replacing a
    silently NaN median.
    """
    true_alarms = 0
    false_alarms = 0
    unknown = 0
    lead_times = []
    alarmed_serials = set()
    for window in windows:
        if not window.alarms:
            inc_counter("monitor_windows_empty_total")
    for alarm in (alarm for window in windows for alarm in window.alarms):
        meta = dataset.drives.get(alarm.serial)
        alarmed_serials.add(alarm.serial)
        if meta is None:
            unknown += 1
            inc_counter("monitor_alarms_total", kind="unknown_serial")
        elif meta.failed and meta.failure_day >= alarm.day:
            true_alarms += 1
            lead_time = int(meta.failure_day - alarm.day)
            lead_times.append(lead_time)
            inc_counter("monitor_alarms_total", kind="tp")
            observe_histogram("monitor_lead_time_days", lead_time)
        else:
            false_alarms += 1
            inc_counter("monitor_alarms_total", kind="fp")
    missed = sum(
        1
        for meta in dataset.drives.values()
        if meta.failed
        and start_day <= meta.failure_day < end_day
        and meta.serial not in alarmed_serials
    )
    inc_counter("monitor_missed_failures_total", missed)
    return OperationSummary(
        windows=windows,
        true_alarms=true_alarms,
        false_alarms=false_alarms,
        missed_failures=missed,
        lead_times=lead_times,
        unknown_serial_alarms=unknown,
    )


def simulate_operation(
    dataset: TelemetryDataset,
    config: MFPAConfig | None = None,
    policy: RetrainPolicy | None = None,
    start_day: int = 240,
    end_day: int = 540,
    window_days: int = 30,
    alarm_threshold: float | None = None,
    allow_degraded: bool = False,
    checkpoint_dir: str | None = None,
    resume: bool = False,
    max_windows: int | None = None,
    initial_model: MFPA | None = None,
) -> OperationSummary:
    """Replay a monitored operation and grade it against ground truth.

    With ``checkpoint_dir`` set, monitor state is checkpointed after
    every scored window; ``resume=True`` continues from an existing
    checkpoint instead of retraining from scratch, producing the same
    summary an uninterrupted run would. ``max_windows`` stops the
    replay early (a controlled "crash") after that many total windows,
    returning a partial summary. ``initial_model`` (an artifact-loaded
    fitted :class:`MFPA`) skips the initial training entirely — the
    first window is scored without a ``fit()`` call.
    """
    boundaries = list(range(start_day, end_day, window_days))
    windows: list[MonitoringWindow] = []
    monitor = None
    if checkpoint_dir is not None and resume:
        from repro.robustness.checkpoint import has_checkpoint, load_checkpoint

        if has_checkpoint(checkpoint_dir):
            restore_dataset = dataset
            if allow_degraded:
                # Rebind the restored monitor to the same dimension-filled
                # dataset a fresh degraded start would use, so a retrain
                # after resume sees identical inputs.
                from repro.robustness.degraded import adapt_for_missing_dimensions

                restore_dataset, _, _ = adapt_for_missing_dimensions(
                    dataset, config or MFPAConfig()
                )
            monitor, windows = load_checkpoint(checkpoint_dir, restore_dataset)
    if monitor is None:
        monitor = FleetMonitor(
            config=config,
            policy=policy,
            alarm_threshold=alarm_threshold,
            allow_degraded=allow_degraded,
        )
        if initial_model is not None:
            monitor.start_with_model(
                initial_model, dataset, train_end_day=start_day
            )
        else:
            monitor.start(dataset, train_end_day=start_day)

    for window_start in boundaries[len(windows):]:
        if max_windows is not None and len(windows) >= max_windows:
            break
        windows.append(
            monitor.score_window(window_start, min(window_start + window_days, end_day))
        )
        if checkpoint_dir is not None:
            from repro.robustness.checkpoint import save_checkpoint

            save_checkpoint(monitor, windows, checkpoint_dir)

    return summarize_windows(windows, dataset, start_day, end_day)

"""Counters, gauges and fixed-bucket histograms for the MFPA runtime.

A process-global :class:`MetricsRegistry` holds metric *families* (one
name, one type, one help string) with one sample per label combination —
the Prometheus data model, scaled down to what a single pipeline run
needs. Collection is always on (an increment is a dict lookup and a
float add, cheap enough for per-window/per-fit call sites); the
``--metrics-out`` / ``--run-dir`` CLI flags only control *export*.

Exports:

* :meth:`MetricsRegistry.to_jsonl` — one JSON event per sample, for
  machine diffing and the run manifest;
* :meth:`MetricsRegistry.to_prometheus` — Prometheus text exposition
  format (v0.0.4), scrapeable by pushing to a textfile collector.

Process safety mirrors the tracer: fork workers reset their inherited
registry per task, ship a :meth:`dump` back with the task result, and
the parent :meth:`merge`\\ s it — counters and histogram buckets add,
gauges take the worker's last write. Shipping only happens while
capture is enabled (see :func:`set_capture`), so the default path pays
nothing.

The well-known families of the instrumentation (the metric catalog in
``docs/observability.md``) are pre-declared at registry construction so
every run manifest records them — a counter that stayed at zero is
evidence, not absence.
"""

from __future__ import annotations

import bisect
import json
import time
from typing import Iterator, Mapping, Sequence

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "capture_enabled",
    "get_registry",
    "inc_counter",
    "observe_histogram",
    "set_capture",
    "set_gauge",
]

LabelItems = tuple[tuple[str, str], ...]

#: Latency buckets (seconds) — sub-millisecond scoring up to multi-minute fits.
SECONDS_BUCKETS = (
    0.001, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
    30.0, 60.0, 120.0, 300.0,
)
#: Lead-time buckets (days) for warning-time histograms.
DAYS_BUCKETS = (1, 2, 5, 10, 20, 30, 60, 90, 120, 180)


def _label_items(labels: Mapping[str, object]) -> LabelItems:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class Counter:
    """Monotonically increasing count."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only go up; use a gauge for decrements")
        self.value += amount


class Gauge:
    """Last-write-wins instantaneous value."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)


class Histogram:
    """Fixed-bucket histogram: per-bucket counts, sum and count.

    ``bounds`` are inclusive upper bounds; an implicit ``+Inf`` overflow
    bucket catches the rest. Bucket counts are stored per bucket (not
    cumulative); the Prometheus exposition cumulates on the way out.
    """

    __slots__ = ("bounds", "bucket_counts", "sum", "count")

    def __init__(self, bounds: Sequence[float] = SECONDS_BUCKETS):
        self.bounds = tuple(sorted(float(b) for b in bounds))
        if not self.bounds:
            raise ValueError("histogram needs at least one bucket bound")
        self.bucket_counts = [0] * (len(self.bounds) + 1)
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        value = float(value)
        self.bucket_counts[bisect.bisect_left(self.bounds, value)] += 1
        self.sum += value
        self.count += 1

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0


class _Family:
    """One metric name: its type, help text and per-label samples."""

    __slots__ = ("name", "type", "help", "bounds", "samples")

    def __init__(self, name: str, kind: str, help: str, bounds=None):
        self.name = name
        self.type = kind
        self.help = help
        self.bounds = bounds
        self.samples: dict[LabelItems, Counter | Gauge | Histogram] = {}

    def sample(self, labels: LabelItems):
        existing = self.samples.get(labels)
        if existing is None:
            if self.type == "counter":
                existing = Counter()
            elif self.type == "gauge":
                existing = Gauge()
            else:
                existing = Histogram(self.bounds or SECONDS_BUCKETS)
            self.samples[labels] = existing
        return existing


#: (name, type, help, histogram bounds or None, eagerly create the
#: unlabeled sample at zero). Labeled families stay empty until used.
CATALOG: tuple[tuple[str, str, str, tuple | None, bool], ...] = (
    ("mfpa_grid_search_fits_total", "counter",
     "(candidate, fold) estimator fits performed by GridSearchCV", None, True),
    ("mfpa_grid_search_candidates_total", "counter",
     "hyperparameter combinations evaluated by GridSearchCV", None, True),
    ("mfpa_selection_rounds_total", "counter",
     "greedy rounds run by SequentialForwardSelector", None, True),
    ("mfpa_selection_candidate_fits_total", "counter",
     "candidate feature subsets cross-validated during forward selection",
     None, True),
    ("forest_trees_fitted_total", "counter",
     "decision trees grown by the random forests", None, True),
    ("gbdt_boosting_rounds_total", "counter",
     "boosting rounds run by GradientBoostingClassifier", None, True),
    ("tree_hist_nodes_total", "counter",
     "tree nodes split-searched by the histogram backend", None, True),
    ("tree_bin_cache_hits_total", "counter",
     "BinnedDataset lookups served from the fingerprint cache", None, True),
    ("tree_bin_cache_misses_total", "counter",
     "BinnedDataset lookups that had to quantile-bin from scratch", None, True),
    ("monitor_windows_scored_total", "counter",
     "fleet windows scored by FleetMonitor", None, True),
    ("monitor_windows_empty_total", "counter",
     "scored windows that raised no alarms", None, True),
    ("monitor_drives_scored_total", "counter",
     "per-window drives scored by FleetMonitor", None, True),
    ("monitor_alarms_raised_total", "counter",
     "alarms raised by FleetMonitor.score_window", None, True),
    ("monitor_retrains_total", "counter",
     "model refreshes triggered by the retrain policy", None, True),
    ("monitor_missed_failures_total", "counter",
     "monitored-period failures with no preceding alarm", None, True),
    ("monitor_alarms_total", "counter",
     "graded alarms by kind (tp | fp | unknown_serial)", None, False),
    ("faults_injected_total", "counter",
     "chaos fault injectors applied, by fault name", None, False),
    ("parallel_tasks_total", "counter",
     "tasks submitted to ParallelExecutor.starmap", None, True),
    ("parallel_pool_forks_total", "counter",
     "worker pools forked by ParallelExecutor", None, True),
    ("parallel_pool_workers", "gauge",
     "workers in the open pool (0 = no pool)", None, True),
    ("window_score_seconds", "histogram",
     "wall-clock per FleetMonitor.score_window call", SECONDS_BUCKETS, True),
    ("cv_fold_fit_seconds", "histogram",
     "wall-clock per (candidate, fold) fit-and-score", SECONDS_BUCKETS, True),
    ("selection_candidate_seconds", "histogram",
     "wall-clock per forward-selection candidate evaluation",
     SECONDS_BUCKETS, True),
    ("monitor_lead_time_days", "histogram",
     "days of warning before each truly-failing alarmed drive failed",
     DAYS_BUCKETS, True),
    ("parallel_starmap_seconds", "histogram",
     "wall-clock per ParallelExecutor.starmap call", SECONDS_BUCKETS, True),
    ("tree_bin_build_seconds", "histogram",
     "wall-clock per BinnedDataset quantile-binning build", SECONDS_BUCKETS,
     True),
    # ---- serve daemon (repro.serve) ----
    ("serve_readings_ingested_total", "counter",
     "readings admitted by the ingest gate into the scoring queue", None, True),
    ("serve_readings_quarantined_total", "counter",
     "readings rejected by the ingest gate, by rule", None, False),
    ("serve_readings_repaired_total", "counter",
     "readings admitted after in-place repair, by rule", None, False),
    ("serve_readings_shed_total", "counter",
     "queued readings shed under backpressure (oldest non-alarmed first)",
     None, True),
    ("serve_readings_skipped_alarmed_total", "counter",
     "readings skipped because their drive already alarmed", None, True),
    ("serve_queue_depth", "gauge",
     "readings currently waiting in the bounded ingest queue", None, True),
    ("serve_batches_scored_total", "counter",
     "scoring batches completed by the serve loop", None, True),
    ("serve_windows_scored_total", "counter",
     "monitoring windows flushed by the serve loop", None, True),
    ("serve_stage_retries_total", "counter",
     "retried stage attempts in the serve loop, by stage", None, False),
    ("serve_stage_timeouts_total", "counter",
     "stage attempts abandoned for exceeding their timeout budget",
     None, True),
    ("serve_breaker_state", "gauge",
     "scoring circuit breaker state (0 closed, 1 half-open, 2 open)",
     None, True),
    ("serve_breaker_opens_total", "counter",
     "circuit breaker trips from closed/half-open to open", None, True),
    ("serve_degraded_mode", "gauge",
     "1 while the daemon scores with the reduced-feature model", None, True),
    ("serve_degraded_entries_total", "counter",
     "transitions into degraded (reduced-feature) scoring", None, True),
    ("serve_degraded_exits_total", "counter",
     "transitions back to full-feature scoring", None, True),
    ("serve_alarms_emitted_total", "counter",
     "alarms appended to the alarm sink", None, True),
    ("serve_alarms_suppressed_total", "counter",
     "alarms withheld by the fleet-wide per-window rate budget", None, True),
    ("serve_alarms_deduped_total", "counter",
     "alarm candidates dropped because the drive already alarmed",
     None, True),
    ("serve_checkpoints_total", "counter",
     "window-boundary checkpoints committed by the daemon", None, True),
    ("serve_resumes_total", "counter",
     "daemon starts that restored state from a checkpoint", None, True),
    ("serve_heartbeat_timestamp", "gauge",
     "unix time of the watchdog's last completed tick", None, True),
    ("serve_ticks_total", "counter",
     "pump ticks completed by the serve loop", None, True),
    ("serve_slow_ticks_total", "counter",
     "pump ticks exceeding the watchdog's slow-tick threshold", None, True),
    ("serve_e2e_latency_seconds", "histogram",
     "ingest-to-alarm latency of emitted alarms (daemon clock)",
     SECONDS_BUCKETS, True),
    # ---- live drift monitoring (repro.serve.drift) ----
    ("serve_drift_psi", "gauge",
     "per-window population stability index vs the training-time "
     "ReferenceProfile, by feature (__score__ = score distribution)",
     None, False),
    ("serve_drift_state", "gauge",
     "worst drift severity last window (0 stable, 1 drifting, 2 severe)",
     None, True),
    ("serve_drift_events_total", "counter",
     "rate-budgeted severe-drift events fired by the drift monitor",
     None, True),
    ("serve_drift_events_suppressed_total", "counter",
     "severe-drift windows withheld by the drift event budget", None, True),
    # ---- live observability plane (repro.obs.server) ----
    ("obs_scrapes_total", "counter",
     "HTTP requests served by the observability endpoint, by path",
     None, False),
    ("obs_textfile_writes_total", "counter",
     ".prom textfile exports written by the periodic exporter", None, True),
    # ---- out-of-core sharded execution (repro.scale) ----
    ("tree_bin_cache_evictions_total", "counter",
     "BinnedDataset entries dropped by the bounded LRU", None, True),
    ("scale_shards_written_total", "counter",
     "telemetry shards written to sharded dataset stores", None, True),
    ("scale_shards_read_total", "counter",
     "telemetry shards loaded from sharded dataset stores", None, True),
    ("scale_shards_scored_total", "counter",
     "(shard, window) scoring passes completed by ShardedFleetMonitor",
     None, True),
    ("scale_drives_generated_total", "counter",
     "drives simulated by SSDFleet.generate_shards", None, True),
    ("scale_memory_ceiling_exceeded_total", "counter",
     "memory-ceiling checks that found peak RSS over budget", None, True),
    ("scale_peak_rss_mb", "gauge",
     "process-lifetime peak resident set size in MiB", None, True),
    ("scale_shard_write_seconds", "histogram",
     "wall-clock per shard simulated, assembled and written",
     SECONDS_BUCKETS, True),
    ("scale_shard_score_seconds", "histogram",
     "wall-clock per (shard, window) ShardedFleetMonitor scoring pass",
     SECONDS_BUCKETS, True),
    # ---- inference fast path (repro.ml.arena / repro.ml.artifact) ----
    ("predict_requests_total", "counter",
     "prediction batches served by the forest arena, by engine "
     "(float | binned)", None, False),
    ("predict_rows_total", "counter",
     "rows scored by the forest arena, by engine (float | binned)",
     None, False),
    ("model_artifacts_saved_total", "counter",
     "versioned model artifacts written by save_model", None, True),
    ("model_artifacts_loaded_total", "counter",
     "versioned model artifacts loaded (and sha256-verified) by "
     "load_model", None, True),
    ("predict_batch_seconds", "histogram",
     "wall-clock per arena predict call (descent + aggregation)",
     SECONDS_BUCKETS, True),
    ("predict_encode_seconds", "histogram",
     "wall-clock per integer-code encode of an inference batch against "
     "the refined per-feature code tables", SECONDS_BUCKETS, True),
)


class MetricsRegistry:
    """Process-global collection of metric families."""

    def __init__(self, declare_catalog: bool = True):
        self._families: dict[str, _Family] = {}
        if declare_catalog:
            self._declare_catalog()

    def _declare_catalog(self) -> None:
        for name, kind, help, bounds, eager in CATALOG:
            family = self._family(name, kind, help, bounds)
            if eager:
                family.sample(())

    def _family(self, name: str, kind: str, help: str = "", bounds=None) -> _Family:
        family = self._families.get(name)
        if family is None:
            family = self._families[name] = _Family(name, kind, help, bounds)
        elif family.type != kind:
            raise ValueError(
                f"metric {name!r} already registered as {family.type}, not {kind}"
            )
        else:
            if help and not family.help:
                family.help = help
        return family

    # ------------------------------------------------------------------
    # Instruments
    # ------------------------------------------------------------------
    def counter(self, name: str, help: str = "", **labels) -> Counter:
        return self._family(name, "counter", help).sample(_label_items(labels))

    def gauge(self, name: str, help: str = "", **labels) -> Gauge:
        return self._family(name, "gauge", help).sample(_label_items(labels))

    def histogram(
        self, name: str, help: str = "", buckets: Sequence[float] | None = None,
        **labels,
    ) -> Histogram:
        family = self._family(name, "histogram", help, buckets)
        return family.sample(_label_items(labels))

    # ------------------------------------------------------------------
    # Lifecycle / merging
    # ------------------------------------------------------------------
    def reset(self) -> None:
        """Zero every family, keeping the catalog declarations."""
        self._families.clear()
        self._declare_catalog()

    def dump(self) -> list[dict]:
        """Picklable/JSON-ready snapshot of every family and sample."""
        out = []
        for name in sorted(self._families):
            family = self._families[name]
            samples = []
            for labels, sample in sorted(family.samples.items()):
                record: dict = {"labels": dict(labels)}
                if isinstance(sample, Histogram):
                    record.update(
                        bounds=list(sample.bounds),
                        bucket_counts=list(sample.bucket_counts),
                        sum=sample.sum,
                        count=sample.count,
                    )
                else:
                    record["value"] = sample.value
                samples.append(record)
            out.append(
                {"name": name, "type": family.type, "help": family.help,
                 "samples": samples}
            )
        return out

    def merge(self, dumped: list[dict]) -> None:
        """Fold a :meth:`dump` from another process into this registry."""
        for entry in dumped:
            family = self._family(
                entry["name"], entry["type"], entry.get("help", "")
            )
            for record in entry["samples"]:
                labels = _label_items(record.get("labels", {}))
                if family.type == "histogram":
                    sample = family.samples.get(labels)
                    if sample is None:
                        sample = family.samples[labels] = Histogram(
                            record["bounds"]
                        )
                    if tuple(sample.bounds) != tuple(record["bounds"]):
                        raise ValueError(
                            f"bucket mismatch merging histogram {family.name!r}"
                        )
                    for i, bucket_count in enumerate(record["bucket_counts"]):
                        sample.bucket_counts[i] += bucket_count
                    sample.sum += record["sum"]
                    sample.count += record["count"]
                elif family.type == "counter":
                    family.sample(labels).inc(record["value"])
                else:
                    family.sample(labels).set(record["value"])

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------
    def to_jsonl(self) -> str:
        """One JSON event per sample (timestamped at export time)."""
        now = time.time()
        lines = []
        for entry in self.dump():
            for record in entry["samples"]:
                event = {
                    "ts": now,
                    "name": entry["name"],
                    "type": entry["type"],
                    "labels": record["labels"],
                }
                if entry["type"] == "histogram":
                    event.update(
                        count=record["count"],
                        sum=record["sum"],
                        bounds=record["bounds"],
                        bucket_counts=record["bucket_counts"],
                    )
                else:
                    event["value"] = record["value"]
                lines.append(json.dumps(event, sort_keys=True))
        return "\n".join(lines) + "\n" if lines else ""

    def to_prometheus(self) -> str:
        """Prometheus text exposition format (v0.0.4)."""

        def escape_label_value(value: str) -> str:
            # Exposition-format escaping: backslash first, then quote and
            # newline, so already-inserted backslashes are not re-escaped.
            return (
                str(value)
                .replace("\\", r"\\")
                .replace('"', r"\"")
                .replace("\n", r"\n")
            )

        def fmt_labels(labels: dict, extra: tuple[str, str] | None = None) -> str:
            items = list(labels.items())
            if extra is not None:
                items.append(extra)
            if not items:
                return ""
            inner = ",".join(
                f'{k}="{escape_label_value(v)}"' for k, v in items
            )
            return "{" + inner + "}"

        def fmt_value(value: float) -> str:
            as_int = int(value)
            return str(as_int) if value == as_int else repr(value)

        lines: list[str] = []
        for entry in self.dump():
            name = entry["name"]
            if entry.get("help"):
                lines.append(f"# HELP {name} {entry['help']}")
            lines.append(f"# TYPE {name} {entry['type']}")
            for record in entry["samples"]:
                labels = record["labels"]
                if entry["type"] == "histogram":
                    cumulative = 0
                    for bound, bucket_count in zip(
                        record["bounds"], record["bucket_counts"]
                    ):
                        cumulative += bucket_count
                        lines.append(
                            f"{name}_bucket"
                            f"{fmt_labels(labels, ('le', fmt_value(bound)))} "
                            f"{cumulative}"
                        )
                    cumulative += record["bucket_counts"][-1]
                    lines.append(
                        f"{name}_bucket{fmt_labels(labels, ('le', '+Inf'))} "
                        f"{cumulative}"
                    )
                    lines.append(
                        f"{name}_sum{fmt_labels(labels)} {fmt_value(record['sum'])}"
                    )
                    lines.append(
                        f"{name}_count{fmt_labels(labels)} {record['count']}"
                    )
                else:
                    lines.append(
                        f"{name}{fmt_labels(labels)} {fmt_value(record['value'])}"
                    )
        return "\n".join(lines) + "\n"


#: The process-global registry the instrumentation records into.
_GLOBAL = MetricsRegistry()

#: When True, ParallelExecutor ships worker-side registry deltas back to
#: the parent so cross-process totals are complete.
_CAPTURE = False


def get_registry() -> MetricsRegistry:
    """The process-global metrics registry."""
    return _GLOBAL


def set_capture(enabled: bool) -> None:
    """Turn cross-process metric shipping on/off (off also resets)."""
    global _CAPTURE
    _CAPTURE = bool(enabled)
    if not enabled:
        _GLOBAL.reset()


def capture_enabled() -> bool:
    return _CAPTURE


# ----------------------------------------------------------------------
# Call-site conveniences
# ----------------------------------------------------------------------
def inc_counter(name: str, amount: float = 1.0, **labels) -> None:
    _GLOBAL.counter(name, **labels).inc(amount)


def set_gauge(name: str, value: float, **labels) -> None:
    _GLOBAL.gauge(name, **labels).set(value)


def observe_histogram(
    name: str, value: float, buckets: Sequence[float] | None = None, **labels
) -> None:
    _GLOBAL.histogram(name, buckets=buckets, **labels).observe(value)

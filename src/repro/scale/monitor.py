"""Partitioned fleet monitoring over a sharded store.

:class:`ShardedFleetMonitor` replays the same windowed scoring loop as
:class:`~repro.core.deployment.FleetMonitor` without ever holding the
fleet in RAM, and produces a **bit-identical**
:class:`~repro.core.deployment.OperationSummary` on the same fleet.
Three structural facts make that possible:

* the retrain schedule depends only on window boundaries, the policy
  and the failure-time table (:func:`~repro.core.deployment.
  plan_retrains`), so every boundary's model can be stream-trained up
  front with :func:`~repro.scale.trainer.fit_sharded` — itself
  bit-identical to the in-RAM refit;
* drives are scored independently and alarm deduplication is per
  drive, so a (shard, window) pass with
  :func:`~repro.core.deployment.score_prepared_window` over the
  shard's prepared rows raises exactly the alarms the in-RAM pass
  raises for those serials — the loop inverts to shard-outer /
  window-inner, loading each shard once;
* shards partition drives in ascending serial order, so concatenating
  per-shard alarm lists in shard order reproduces the in-RAM window's
  alarm order, and per-window drive counts add.

Grading needs drive metadata, not telemetry: a :class:`GradingView`
carries only the failed drives' metas plus the alarmed drives' metas
(a sliver of the fleet) and duck-types as the dataset for the real
:func:`~repro.core.deployment.summarize_windows`.

Scoring can fan shards out over :class:`~repro.parallel.
ParallelExecutor` workers (``n_jobs``), one pool held for the whole
run across checkpoint groups; serial partitions are disjoint so
per-worker alarm sets never interact, and results merge in shard
order — deterministic at every ``n_jobs``.
"""

from __future__ import annotations

import copy
import json
import pickle
import time
from pathlib import Path

from repro.core.deployment import (
    MonitoringWindow,
    OperationSummary,
    RetrainPolicy,
    plan_retrains,
    score_prepared_window,
    summarize_windows,
)
from repro.core.pipeline import MFPA, MFPAConfig
from repro.obs import inc_counter, observe_histogram, trace_span
from repro.parallel import ParallelExecutor, SharedPayload, share
from repro.scale.memory import MemoryCeiling
from repro.scale.store import ShardedDataset
from repro.scale.trainer import fit_sharded, prepare_shard
from repro.robustness.checkpoint import (
    CheckpointCorruptError,
    atomic_write,
    commit_checkpoint,
    has_checkpoint_files,
    load_committed,
    verify_manifest,
)
from repro.telemetry.dataset import DriveMeta

__all__ = ["GradingView", "SHARD_MONITOR_FILES", "ShardedFleetMonitor"]

#: The file pair a ShardedFleetMonitor checkpoint consists of:
#: ``monitor.pkl`` (window models + retrain plan, written once per run)
#: and ``progress.pkl`` (scored shards so far, rewritten per boundary).
SHARD_MONITOR_FILES = ("monitor.pkl", "progress.pkl")


class GradingView:
    """Duck-typed stand-in for a dataset in ``summarize_windows``.

    Holds only the drive metas grading actually touches: every failed
    drive (true-alarm and missed-failure accounting) and every alarmed
    drive (false-alarm vs unknown-serial attribution). At fleet scale
    this is thousands of metas instead of millions.
    """

    def __init__(self, drives: dict[int, DriveMeta]):
        self.drives = drives


def _score_shard(
    context: SharedPayload, shard_index: int
) -> tuple[list[tuple[list, int]], dict[int, DriveMeta]]:
    """Score every window of one shard; the unit of parallel fan-out.

    ``context`` shares ``(store, models, boundaries, alarm_threshold,
    sanitize)`` with the workers. Returns per-window ``(alarms,
    n_drives_scored)`` plus the shard's grading metas. ``models[w]`` is
    the (pre-trained) model in force for window ``w``; the per-shard
    alarmed set carries first-alarm deduplication across windows
    exactly like the in-RAM monitor's fleet-wide set restricted to this
    shard's serials.
    """
    store, models, boundaries, alarm_threshold, sanitize = context.get()
    raw = store.load_shard(shard_index)
    grading = {
        serial: meta
        for serial, meta in raw.drives.items()
        if meta.failed
    }
    config = models[0].config
    prepared, _, _, _ = prepare_shard(
        raw, config, models[0].firmware_encoder_, sanitize=sanitize
    )
    alarmed: set[int] = set()
    results: list[tuple[list, int]] = []
    for (start_day, end_day), model in zip(boundaries, models):
        started = time.perf_counter()
        with trace_span("scale.score_shard_window"):
            view = copy.copy(model)
            view.dataset_ = prepared
            alarms, n_scored = score_prepared_window(
                view, alarmed, alarm_threshold, start_day, end_day
            )
        observe_histogram(
            "scale_shard_score_seconds", time.perf_counter() - started
        )
        inc_counter("scale_shards_scored_total")
        results.append((alarms, n_scored))
    for serial in alarmed:
        if serial not in grading:
            grading[serial] = raw.drives[serial]
    return results, grading


class ShardedFleetMonitor:
    """Windowed monitoring over a shard store on a fixed memory budget.

    Parameters mirror :class:`~repro.core.deployment.FleetMonitor`
    (config, retrain policy, alarm threshold, ``n_jobs``) plus the
    store and an optional ``sanitize`` gate matching ``--sanitize``
    loading. The memory ceiling comes from
    ``config.memory_ceiling_mb`` and is checked after every model
    trained and every shard scored.
    """

    def __init__(
        self,
        store: ShardedDataset,
        config: MFPAConfig | None = None,
        policy: RetrainPolicy | None = None,
        alarm_threshold: float | None = None,
        sanitize: bool = False,
        n_jobs: int = 1,
    ):
        self.store = store
        self.config = config or MFPAConfig()
        self.policy = policy or RetrainPolicy()
        self.alarm_threshold = (
            self.config.decision_threshold
            if alarm_threshold is None
            else alarm_threshold
        )
        if not 0 < self.alarm_threshold < 1:
            raise ValueError("alarm_threshold must be in (0, 1)")
        self.sanitize = sanitize
        self.n_jobs = n_jobs
        self.ceiling = MemoryCeiling(self.config.memory_ceiling_mb)
        self.model: MFPA | None = None

    def start(self, train_end_day: int) -> None:
        """Stream-train the initial model on history before the day."""
        with trace_span("scale.monitor.start"):
            self.model = fit_sharded(
                self.store,
                self.config,
                train_end_day=train_end_day,
                sanitize=self.sanitize,
                ceiling=self.ceiling,
            )
        self._train_end_day = train_end_day

    def use_model(self, model: MFPA, train_end_day: int) -> None:
        """Adopt an already-fitted pipeline (``repro model load``) as the
        initial model — :meth:`run` then reaches its first scored window
        without a single ``fit()``. The monitor takes the model's own
        config so any later scheduled retrain reproduces its training
        recipe."""
        model._check_fitted()
        self.model = model
        self.config = model.config
        self.ceiling = MemoryCeiling(self.config.memory_ceiling_mb)
        self._train_end_day = train_end_day

    def _window_models(
        self, boundaries: list[tuple[int, int]]
    ) -> tuple[list[MFPA], list[bool]]:
        """One model reference per window, retrains stream-trained.

        The whole schedule is known up front (see
        :func:`~repro.core.deployment.plan_retrains`), which is what
        lets scoring run shard-outer / window-inner with every model
        trained exactly once.
        """
        plan = plan_retrains(
            [start for start, _ in boundaries],
            self.policy,
            self.model.failure_times_,
            self._train_end_day,
        )
        models: list[MFPA] = []
        current = self.model
        for (start_day, _), retrain in zip(boundaries, plan):
            if retrain:
                with trace_span("monitor.retrain"):
                    current = fit_sharded(
                        self.store,
                        self.config,
                        train_end_day=start_day,
                        sanitize=self.sanitize,
                        ceiling=self.ceiling,
                    )
                inc_counter("monitor_retrains_total")
            models.append(current)
        return models, plan

    # -- checkpointing at shard boundaries ----------------------------
    def _run_params(
        self, start_day: int, end_day: int, window_days: int
    ) -> dict:
        """The identity a checkpoint is only valid for."""
        return {
            "fingerprint": self.store.fleet_fingerprint,
            "n_shards": self.store.n_shards,
            "start_day": start_day,
            "end_day": end_day,
            "window_days": window_days,
            "alarm_threshold": self.alarm_threshold,
            "sanitize": self.sanitize,
        }

    def _save_models(
        self, directory: Path, params: dict, models: list[MFPA], plan: list[bool]
    ) -> None:
        """Persist the window models as versioned artifacts.

        Each *unique* boundary model (windows between retrains share one
        instance) is saved once via :func:`repro.ml.artifact.save_model`
        into ``models/boundary_<k>/``; ``monitor.pkl`` records only the
        per-window directory names. Compared to pickling the models
        in-line this drops the prepared dataset from the checkpoint and
        makes every boundary model independently loadable/inspectable
        with ``repro model inspect``.
        """
        from repro.ml.artifact import save_model

        directory.mkdir(parents=True, exist_ok=True)
        model_dirs: list[str] = []
        saved: dict[int, str] = {}
        for index, model in enumerate(models):
            name = saved.get(id(model))
            if name is None:
                name = f"models/boundary_{index:03d}"
                save_model(model, directory / name)
                saved[id(model)] = name
            model_dirs.append(name)
        atomic_write(
            directory / "monitor.pkl",
            pickle.dumps(
                {"params": params, "model_dirs": model_dirs, "plan": plan}
            ),
        )

    def _save_progress(
        self,
        directory: Path,
        per_shard: list,
        grading: dict[int, DriveMeta],
    ) -> None:
        """Commit scored-shard progress: rewrite ``progress.pkl``, then
        the manifest (the commit record, covering both files)."""
        atomic_write(
            directory / "progress.pkl",
            pickle.dumps({"per_shard": per_shard, "grading": grading}),
        )
        commit_checkpoint(directory, SHARD_MONITOR_FILES)

    def _load_resume(self, directory: Path, params: dict) -> tuple | None:
        """Restore (models, plan, per_shard, grading) or None if there
        is no usable checkpoint. A checkpoint for a different store or
        run shape is an error, not a silent restart."""
        from repro.ml.artifact import load_model

        if not has_checkpoint_files(directory, SHARD_MONITOR_FILES):
            return None
        verify_manifest(directory, SHARD_MONITOR_FILES, error=CheckpointCorruptError)
        meta = load_committed(directory / "monitor.pkl", CheckpointCorruptError)
        if meta["params"] != params:
            raise ValueError(
                "sharded-monitor checkpoint does not match this run: "
                f"checkpointed {json.dumps(meta['params'], sort_keys=True, default=str)} "
                f"vs requested {json.dumps(params, sort_keys=True, default=str)}"
            )
        progress = load_committed(directory / "progress.pkl", CheckpointCorruptError)
        loaded: dict[str, MFPA] = {}
        models = []
        for name in meta["model_dirs"]:
            if name not in loaded:
                loaded[name] = load_model(directory / name)
            models.append(loaded[name])
        return (
            models, meta["plan"],
            progress["per_shard"], progress["grading"],
        )

    def run(
        self,
        start_day: int,
        end_day: int,
        window_days: int = 30,
        checkpoint_dir: str | Path | None = None,
        resume: bool = False,
        max_shards: int | None = None,
    ) -> OperationSummary:
        """Replay the monitored horizon; grade against ground truth.

        Equivalent to ``simulate_operation(...)`` on the concatenated
        fleet: same windows, same alarms (bit for bit), same summary
        counts and lead times.

        With ``checkpoint_dir`` set, progress is committed at **shard
        boundaries** (after every shard serially, after every
        ``n_jobs``-sized shard group in parallel) with the same
        atomic-write + sha256-manifest discipline as the in-RAM
        monitor's checkpoints; ``resume=True`` continues from an
        existing checkpoint — already-scored shards are not rescored —
        and produces the same summary an uninterrupted run would.
        ``max_shards`` stops the replay early (a controlled "crash")
        after that many total shards, returning a partial summary.
        """
        boundaries = [
            (day, min(day + window_days, end_day))
            for day in range(start_day, end_day, window_days)
        ]
        directory = Path(checkpoint_dir) if checkpoint_dir is not None else None
        params = self._run_params(start_day, end_day, window_days)
        restored = None
        if directory is not None and resume:
            restored = self._load_resume(directory, params)

        with trace_span("scale.monitor.run"):
            per_shard: list[list[tuple[list, int]]] = []
            grading: dict[int, DriveMeta] = {}
            if restored is not None:
                models, plan, per_shard, grading = restored
                self.model = models[0]
            else:
                if self.model is None:
                    self.start(start_day)
                models, plan = self._window_models(boundaries)
                if directory is not None:
                    self._save_models(directory, params, models, plan)
                    self._save_progress(directory, per_shard, grading)
            self.ceiling.check("scale.monitor.models")

            stop_at = self.store.n_shards
            if max_shards is not None:
                stop_at = min(stop_at, max_shards)
            executor = ParallelExecutor(self.n_jobs)
            # One pool for the whole run. Each group ends with a memory
            # check and, when checkpointing, a commit: a serial run does
            # both after every shard, a parallel one after every
            # n_jobs-sized group, or once when it has nothing to commit.
            if not executor.is_parallel:
                group = 1
            elif directory is not None:
                group = executor.n_jobs
            else:
                group = stop_at
            context = (
                self.store, models, boundaries,
                self.alarm_threshold, self.sanitize,
            )
            with share(context) as shared, executor:
                while len(per_shard) < stop_at:
                    batch = range(
                        len(per_shard), min(len(per_shard) + group, stop_at)
                    )
                    outcomes = executor.starmap(
                        _score_shard, [(shared, i) for i in batch]
                    )
                    for results, metas in outcomes:
                        per_shard.append(results)
                        grading.update(metas)
                    if directory is not None:
                        self._save_progress(directory, per_shard, grading)
                    self.ceiling.check("scale.monitor.score")

            windows: list[MonitoringWindow] = []
            for w, (window_start, window_end) in enumerate(boundaries):
                alarms = [
                    alarm
                    for results in per_shard
                    for alarm in results[w][0]
                ]
                n_scored = sum(results[w][1] for results in per_shard)
                windows.append(
                    MonitoringWindow(
                        start_day=window_start,
                        end_day=window_end,
                        alarms=alarms,
                        n_drives_scored=n_scored,
                        retrained=plan[w],
                    )
                )
                inc_counter("monitor_windows_scored_total")
                inc_counter("monitor_drives_scored_total", n_scored)
                inc_counter("monitor_alarms_raised_total", len(alarms))

            summary = summarize_windows(
                windows, GradingView(grading), start_day, end_day
            )
        self.ceiling.check("scale.monitor.summary")
        return summary

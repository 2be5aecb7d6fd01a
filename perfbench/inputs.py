"""Seed-built benchmark inputs and the outputs they produce.

Everything a repetition reads is built here once per (shape, seed) by
``child.py prepare``; ``run.py`` keys its cache on this file and the
program's sources, so inputs built by other code are never reused.
The outputs computed here (``reference.json``) come from the program
being measured; the correctness gate trusts them only for seeds that
``expected.json`` does not pin (see ``run.expected_outputs``).
"""

from __future__ import annotations

import json
from pathlib import Path

# Workload shapes. The fleet shape is shared by train, monitor and
# sharded-monitor; serve replays a smaller fleet so one repetition stays
# a few seconds on a 2-core host. Training cost follows the number of
# drives that fail before the training horizon (they set the size of
# the undersampled training set), so the fleet is drawn from twice as
# many simulated drives with exactly ``early_failures`` of them: train
# throughput then measures the program, not the seed's failure count.
FLEET = {"vendor": "I", "drives": 400, "early_failures": 40,
         "horizon_days": 420, "failure_boost": 25.0}
SERVE_FLEET = {"vendor": "I", "drives": 100, "horizon_days": 420, "failure_boost": 25.0}
SHAPES = {"fleet": FLEET, "serve": SERVE_FLEET}
TRAIN_END, END, WINDOW, N_SHARDS = 240, 420, 30, 8
SHAPE_OF = {
    "train": "fleet",
    "monitor": "fleet",
    "sharded-monitor": "fleet",
    "serve": "serve",
}


def never_retrain():
    from repro.core.deployment import RetrainPolicy

    # The serve daemon never retrains, so neither does any monitor here.
    return RetrainPolicy(interval_days=10**9, min_new_failures=10**9)


def alarm_rows(records) -> list[list]:
    return [[int(s), int(d), float(p)] for s, d, p in records]


def summary_fields(summary) -> dict:
    return {
        "true_alarms": summary.true_alarms,
        "false_alarms": summary.false_alarms,
        "missed_failures": summary.missed_failures,
        "lead_times": [int(t) for t in summary.lead_times],
        "drives_scored": [w.n_drives_scored for w in summary.windows],
    }


def simulate(params: dict, seed: int):
    """The seed's fleet of ``params["drives"]`` drives."""
    import numpy as np

    from repro.telemetry import FleetConfig, VendorMix, simulate_fleet

    early = params.get("early_failures")
    drives = params["drives"] * (2 if early else 1)
    dataset = simulate_fleet(
        FleetConfig(
            mix=VendorMix({params["vendor"]: drives}),
            horizon_days=params["horizon_days"],
            failure_boost=params["failure_boost"],
            seed=seed,
        )
    )
    if not early:
        return dataset
    serials = sorted(dataset.drives)
    failing = [
        s for s in serials
        if dataset.drives[s].failed and dataset.drives[s].failure_day < TRAIN_END
    ]
    if len(failing) < early:
        raise ValueError(
            f"seed {seed} simulated {len(failing)} drives failing before "
            f"day {TRAIN_END}; the fleet shape needs {early}"
        )
    chosen = set(failing[:early])
    rest = [s for s in serials if s not in set(failing)]
    chosen.update(rest[: params["drives"] - early])
    return dataset.select_rows(np.isin(dataset.columns["serial"], sorted(chosen)))


def prepare(shape: str, seed: int, out: Path) -> None:
    """Build every input of ``shape`` for ``seed`` into ``out``, plus
    ``reference.json``: the outputs of the seed's reference fit,
    evaluation and never-retrain monitor, computed here once so no
    repetition pays for them. Scoring runs the exact per-tree loops,
    not the forest arena the repetitions use."""
    from repro.ml.arena import set_inference_mode

    previous = set_inference_mode("exact")
    try:
        _prepare(shape, seed, out)
    finally:
        set_inference_mode(previous)


def _prepare(shape: str, seed: int, out: Path) -> None:
    from repro.core.deployment import simulate_operation
    from repro.core.pipeline import MFPA, MFPAConfig
    from repro.ml.artifact import artifact_hash, load_model, save_model
    from repro.obs.manifest import dataset_fingerprint

    dataset = simulate(SHAPES[shape], seed)
    model = MFPA(MFPAConfig())
    model.fit(dataset, train_end_day=TRAIN_END)
    reference = {
        "shape": shape,
        "seed": seed,
        "dataset_fingerprint": dataset_fingerprint(dataset),
    }
    if shape == "fleet":
        from repro.scale.store import write_dataset_sharded
        from repro.telemetry.io import save_dataset

        result = model.evaluate(TRAIN_END, END)
        reference["train"] = {
            "drive_tpr": result.drive_report.tpr,
            "drive_fpr": result.drive_report.fpr,
            "record_auc": result.record_report.auc,
            "prepared_rows": model.dataset_.n_records,
        }
        save_dataset(dataset, out / "fleet")
        save_model(model, out / "model", dataset=dataset)
        write_dataset_sharded(dataset, out / "shards", N_SHARDS)
    else:
        from repro.robustness.degraded import fit_reduced_model
        from repro.serve.drift import ReferenceProfile
        from repro.serve.replay import dataset_to_readings, write_stream

        profile = ReferenceProfile.from_model(model, (0, TRAIN_END))
        save_model(model, out / "model", dataset=dataset, reference_profile=profile)
        reduced = fit_reduced_model(dataset, TRAIN_END, base_config=model.config)
        save_model(reduced, out / "model" / "reduced", dataset=dataset)
        readings = dataset_to_readings(dataset, end_day=END)
        write_stream(out / "stream.jsonl", readings, end_day=END)
        reference["n_readings"] = len(readings)
    summary = simulate_operation(
        dataset,
        policy=never_retrain(),
        start_day=TRAIN_END,
        end_day=END,
        window_days=WINDOW,
        initial_model=load_model(out / "model"),
    )
    reference["alarms"] = alarm_rows(summary.alarm_records())
    reference["summary"] = summary_fields(summary)
    # Drive-level quality of the monitored alarms: TPR over the failures
    # in the monitored period, FPR as false alarms over healthy drives.
    n_healthy = sum(1 for meta in dataset.drives.values() if not meta.failed)
    reference["quality"] = {
        "drive_tpr": summary.recall,
        "drive_fpr": summary.false_alarms / n_healthy,
    }
    reference["artifact_hash"] = artifact_hash(out / "model")
    (out / "reference.json").write_text(json.dumps(reference))

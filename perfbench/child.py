"""One benchmark process: build a seed's inputs, or run one repetition.

``run.py`` starts a fresh interpreter on this file for every input
build and every repetition, so each repetition starts with an empty
metrics registry, no arena caches and its own peak RSS.

    python3 perfbench/child.py prepare --shape fleet --seed 7 --out DIR
    python3 perfbench/child.py rep --workload serve --inputs DIR \
        --spawned <time.monotonic() before spawn> --trace 0 --record FILE

A repetition writes one JSON record: set-up and work time, items done,
peak RSS, the outputs the correctness gate compares, and (traced) the
per-layer tallies.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from inputs import (  # noqa: E402
    END,
    SHAPES,
    TRAIN_END,
    WINDOW,
    alarm_rows,
    never_retrain,
    prepare,
    summary_fields,
)
from layers import PARSE_LAYER, LayerTracer  # noqa: E402


def _peak_rss_mb() -> float:
    """This process's resident-set high-water mark (``VmHWM``)."""
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


# ----------------------------------------------------------------------
# Workloads: set-up loads the inputs and returns the work, a closure
# that does the measured pass and returns ``(items, outputs)``.
# ----------------------------------------------------------------------
def setup_train(inputs: Path, tracer, scratch: Path):
    from repro.core.pipeline import MFPA, MFPAConfig
    from repro.telemetry.io import load_dataset

    dataset = load_dataset(str(inputs / "fleet"))

    def work():
        model = MFPA(MFPAConfig())
        model.fit(dataset, train_end_day=TRAIN_END)
        result = model.evaluate(TRAIN_END, END)
        return model.dataset_.n_records, {
            "drive_tpr": result.drive_report.tpr,
            "drive_fpr": result.drive_report.fpr,
            "record_auc": result.record_report.auc,
            "prepared_rows": model.dataset_.n_records,
        }

    return work


def _monitor_result(summary):
    items = sum(w.n_drives_scored for w in summary.windows)
    return items, {
        "alarms": alarm_rows(summary.alarm_records()),
        "summary": summary_fields(summary),
    }


def setup_monitor(inputs: Path, tracer, scratch: Path):
    from repro.core.deployment import simulate_operation
    from repro.ml.artifact import load_model
    from repro.telemetry.io import load_dataset

    dataset = load_dataset(str(inputs / "fleet"))
    model = load_model(inputs / "model")
    model.bind_dataset(dataset)

    def work():
        return _monitor_result(
            simulate_operation(
                dataset,
                policy=never_retrain(),
                start_day=TRAIN_END,
                end_day=END,
                window_days=WINDOW,
                initial_model=model,
            )
        )

    return work


def setup_sharded_monitor(inputs: Path, tracer, scratch: Path):
    from repro.ml.artifact import load_model
    from repro.scale import ShardedDataset, ShardedFleetMonitor

    store = ShardedDataset(inputs / "shards")
    model = load_model(inputs / "model")

    def work():
        monitor = ShardedFleetMonitor(store, policy=never_retrain())
        monitor.use_model(model, TRAIN_END)
        return _monitor_result(monitor.run(TRAIN_END, END, window_days=WINDOW))

    return work


def _counter_total(name: str) -> float:
    from repro.obs import get_registry

    for family in get_registry().dump():
        if family["name"] == name:
            return sum(sample["value"] for sample in family["samples"])
    return 0.0


def setup_serve(inputs: Path, tracer, scratch: Path):
    """The ``repro serve --model-artifact`` loop, closed-loop at full
    speed: parse → submit → pump once per simulated day → finish."""
    from repro.ml.artifact import artifact_hash, load_model, load_reference_profile
    from repro.serve.daemon import ServeConfig, ServeDaemon
    from repro.serve.replay import iter_stream

    model_dir = inputs / "model"
    config = ServeConfig(serve_start_day=TRAIN_END, window_days=WINDOW, end_day=END)
    daemon = ServeDaemon.from_models(
        load_model(model_dir),
        load_model(model_dir / "reduced"),
        config,
        drift=load_reference_profile(model_dir),
        checkpoint_dir=scratch / "checkpoint",
        sink_path=scratch / "alarms.jsonl",
        model_hash=artifact_hash(model_dir),
    )

    def work():
        clock = time.perf_counter
        events = iter_stream(inputs / "stream.jsonl")
        if tracer is not None:
            events = tracer.iterate(PARSE_LAYER, events)
        end_day = config.end_day
        current_day = None
        n_readings = 0
        # One tick per simulated day: from the end of the previous
        # pump() to the end of this day's pump(), so ticks partition
        # the loop and a window flush falls inside its tick.
        ticks: list[float] = []
        tick_started = clock()
        for event in events:
            if event["kind"] == "end":
                if event.get("day") is not None:
                    end_day = event["day"]
                break
            day = event["day"]
            if current_day is not None and day != current_day:
                daemon.pump()
                now = clock()
                ticks.append(now - tick_started)
                tick_started = now
            current_day = day
            daemon.submit(event["serial"], day, event["reading"])
            n_readings += 1
        daemon.finish(end_day)
        ticks.append(clock() - tick_started)
        shed = _counter_total("serve_readings_shed_total")
        quarantined = _counter_total("serve_readings_quarantined_total")
        return n_readings, {
            "alarms": alarm_rows(daemon.alarm_records()),
            "n_readings": n_readings,
            # Readings the daemon's gate let through or skipped because
            # their drive had already alarmed: every reading it handled
            # without shedding or quarantining it.
            "handled": int(
                _counter_total("serve_readings_ingested_total")
                + _counter_total("serve_readings_skipped_alarmed_total")
            ),
            "shed": int(shed),
            "failed_readings": int(shed + quarantined),
            "ticks_ms": [t * 1000.0 for t in ticks],
        }

    return work


SETUPS = {
    "train": setup_train,
    "monitor": setup_monitor,
    "sharded-monitor": setup_sharded_monitor,
    "serve": setup_serve,
}


def _import_program() -> None:
    """Load every module the tracer patches before installing it, so a
    function imported by name elsewhere is replaced there too."""
    import repro.core.deployment  # noqa: F401
    import repro.ml.artifact  # noqa: F401
    import repro.scale  # noqa: F401
    import repro.serve.daemon  # noqa: F401
    import repro.serve.replay  # noqa: F401
    import repro.telemetry.io  # noqa: F401


def run_rep(workload: str, inputs: Path, spawned: float, traced: bool) -> dict:
    tracer = None
    if traced:
        _import_program()
        tracer = LayerTracer()
    scratch = Path(tempfile.mkdtemp(prefix="rep-", dir=inputs.parent))
    try:
        if tracer is not None:
            tracer.install()
            tracer.start()
        work = SETUPS[workload](inputs, tracer, scratch)
        ready = time.monotonic()
        started = time.perf_counter()
        items, outputs = work()
        work_s = time.perf_counter() - started
    finally:
        if tracer is not None:
            tracer.stop()
            tracer.uninstall()
        shutil.rmtree(scratch, ignore_errors=True)
    import numpy

    record = {
        "workload": workload,
        "numpy": numpy.__version__,
        "setup_s": ready - spawned,
        "work_s": work_s,
        "items": items,
        "peak_rss_mb": _peak_rss_mb(),
        "outputs": outputs,
    }
    if tracer is not None:
        record["trace"] = {
            "wall_s": tracer.wall_s,
            "unattributed_s": tracer.unattributed(),
            "self_s": dict(tracer.self_s),
            "calls": dict(tracer.calls),
            "items": dict(tracer.items),
        }
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    build = sub.add_parser("prepare")
    build.add_argument("--shape", choices=sorted(SHAPES), required=True)
    build.add_argument("--seed", type=int, required=True)
    build.add_argument("--out", type=Path, required=True)
    rep = sub.add_parser("rep")
    rep.add_argument("--workload", choices=sorted(SETUPS), required=True)
    rep.add_argument("--inputs", type=Path, required=True)
    rep.add_argument("--spawned", type=float, required=True)
    rep.add_argument("--trace", type=int, choices=(0, 1), default=0)
    rep.add_argument("--record", type=Path, required=True)
    args = parser.parse_args(argv)

    if args.command == "prepare":
        args.out.mkdir(parents=True)
        prepare(args.shape, args.seed, args.out)
        return 0
    record = run_rep(args.workload, args.inputs, args.spawned, bool(args.trace))
    tmp = args.record.with_suffix(".tmp")
    tmp.write_text(json.dumps(record))
    os.replace(tmp, args.record)
    return 0


if __name__ == "__main__":
    sys.exit(main())

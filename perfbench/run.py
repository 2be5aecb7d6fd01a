"""The repository's benchmark: one command, four workloads, every metric.

    python3 perfbench/run.py --workload serve --seed 3 --seconds 15 --trace 0

Builds the seed's inputs once into ``.perfbench_cache/`` (outside git),
then starts a fresh process per repetition until ``--seconds`` have
passed, checks every repetition's outputs against the correctness gate,
and prints each metric by name with its unit. The last line of stdout is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``
— the end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``. A failed gate prints ``correct: false`` with no metrics
and exits 1. A full record of every run is kept in
``.perfbench_results/``. See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
import time
from pathlib import Path

import stats
from inputs import SHAPE_OF
from layers import LAYERS, PARSE_LAYER, per_layer_spec

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CACHE = ROOT / ".perfbench_cache"
RESULTS = ROOT / ".perfbench_results"
CHILD = HERE / "child.py"
#: The gate's expected outputs for the pinned seeds (see ``pin.py``).
EXPECTED = HERE / "expected.json"

WORKLOADS = tuple(SHAPE_OF)
#: What one work item is on each workload (the ``items_per_s`` unit).
ITEM_OF = {"train": "rows", "monitor": "drive-windows",
           "sharded-monitor": "drive-windows", "serve": "readings"}
#: The workload-specific name of the throughput metric, for printing.
ALIAS_OF = {"train": "train_rows_per_s",
            "monitor": "monitor_drive_windows_per_s",
            "sharded-monitor": "monitor_drive_windows_per_s",
            "serve": "serve_readings_per_s"}

END_TO_END_UNITS = {
    "setup_s": "s",
    "items_per_s": "items/s",
    "peak_rss_mb": "MiB",
}
#: Repetitions per run at least, whatever ``--seconds`` says.
MIN_REPS = {0: 3, 1: 2}
#: Stop starting repetitions after this long, to exit well within 180 s.
MAX_RUN_S = 120.0
#: Seed input sets kept in the cache (oldest evicted first).
CACHE_ENTRIES = 48
PROBABILITY_TOLERANCE = 1e-9


class GateFailure(Exception):
    """A repetition's outputs differ from the expected ones."""


def source_hash() -> str:
    """Digest of the program and ``inputs.py``: a cache entry built from
    other code is never reused."""
    digest = hashlib.sha256()
    files = sorted((ROOT / "src").rglob("*.py")) + [HERE / "inputs.py"]
    for path in files:
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def git_sha() -> str | None:
    """The checkout's commit, or None outside a git work tree (the
    benchmark may run from an exported copy)."""
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None if out.returncode == 0 else None


def _child(args: list[str], log: Path, timeout: float) -> None:
    with open(log, "w") as handle:
        proc = subprocess.run(
            [sys.executable, str(CHILD), *args],
            stdout=handle, stderr=subprocess.STDOUT, timeout=timeout, cwd=ROOT,
        )
    if proc.returncode != 0:
        tail = log.read_text()[-2000:]
        raise RuntimeError(f"child {args[0]} exited {proc.returncode}:\n{tail}")


def ensure_inputs(shape: str, seed: int, code: str) -> Path:
    """The seed's input directory, built on first use."""
    CACHE.mkdir(exist_ok=True)
    entry = CACHE / f"{shape}-s{seed}-{code}"
    if not (entry / "reference.json").is_file():
        tmp = CACHE / f".build-{entry.name}-{os.getpid()}"
        shutil.rmtree(tmp, ignore_errors=True)
        started = time.monotonic()
        _child(["prepare", "--shape", shape, "--seed", str(seed),
                "--out", str(tmp)], CACHE / f"{tmp.name}.log", timeout=600)
        shutil.rmtree(entry, ignore_errors=True)
        os.replace(tmp, entry)
        (CACHE / f"{tmp.name}.log").unlink(missing_ok=True)
        print(f"built {shape} inputs for seed {seed} in "
              f"{time.monotonic() - started:.1f} s", file=sys.stderr)
    os.utime(entry)
    entries = sorted(
        (p for p in CACHE.iterdir() if p.is_dir() and not p.name.startswith(".")),
        key=lambda p: p.stat().st_mtime,
    )
    for stale in entries[:-CACHE_ENTRIES]:
        shutil.rmtree(stale, ignore_errors=True)
    return entry


def run_rep(workload: str, inputs: Path, traced: bool) -> dict:
    record_path = CACHE / f".rep-{os.getpid()}.json"
    record_path.unlink(missing_ok=True)
    spawned = time.monotonic()
    _child(["rep", "--workload", workload, "--inputs", str(inputs),
            "--spawned", repr(spawned), "--trace", str(int(traced)),
            "--record", str(record_path)],
           CACHE / f".rep-{os.getpid()}.log", timeout=170)
    record = json.loads(record_path.read_text())
    record_path.unlink()
    (CACHE / f".rep-{os.getpid()}.log").unlink(missing_ok=True)
    return record


# ----------------------------------------------------------------------
# Correctness gate
# ----------------------------------------------------------------------
def expected_outputs(shape: str, seed: int, reference: dict,
                     pinned: dict) -> tuple[dict, str]:
    """The outputs a seed's repetitions must reproduce, and where they
    come from. A pinned seed's come from ``expected.json``, recorded
    when the benchmark was written, so no change to the program can move
    them; its inputs must then be the pinned ones. Any other seed falls
    back to ``reference`` — outputs of the program under test, scored
    with the exact per-tree loops."""
    entry = pinned.get(shape, {}).get(str(seed))
    if entry is None:
        return reference, "built"
    if entry["dataset_fingerprint"] != reference["dataset_fingerprint"]:
        raise GateFailure(
            f"{shape} seed {seed} inputs are not the pinned ones: dataset "
            f"fingerprint {reference['dataset_fingerprint']} != "
            f"{entry['dataset_fingerprint']}"
        )
    return entry, "pinned"


def _same_alarms(actual, expected) -> bool:
    if [(s, d) for s, d, _ in actual] != [(s, d) for s, d, _ in expected]:
        return False
    return all(abs(a[2] - e[2]) <= PROBABILITY_TOLERANCE
               for a, e in zip(actual, expected))


def check(workload: str, outputs: dict, expected: dict) -> None:
    """Raise :class:`GateFailure` unless ``outputs`` are the expected
    ones. train must reproduce its seed's evaluation exactly; monitor and
    sharded-monitor must both reproduce the never-retrain monitor's
    alarms and summary; serve's alarms must equal that monitor's on the
    serve fleet, and its daemon must have handled every reading of the
    stream (none shed or quarantined)."""
    if workload == "train":
        if outputs != expected["train"]:
            raise GateFailure(f"train evaluation {outputs} != {expected['train']}")
        return
    if not _same_alarms(outputs["alarms"], expected["alarms"]):
        raise GateFailure(
            f"{workload} alarms differ from the expected monitor's: "
            f"{len(outputs['alarms'])} vs {len(expected['alarms'])}"
        )
    if workload == "serve":
        if outputs["handled"] != expected["n_readings"]:
            raise GateFailure(
                f"serve daemon handled {outputs['handled']} readings of "
                f"{expected['n_readings']}"
            )
    elif outputs["summary"] != expected["summary"]:
        raise GateFailure(
            f"{workload} summary {outputs['summary']} != {expected['summary']}"
        )


# ----------------------------------------------------------------------
# Aggregation
# ----------------------------------------------------------------------
def _rate(record: dict) -> float:
    return record["items"] / record["work_s"]


def _tick_percentiles(records: list[dict]) -> tuple[float, float, int]:
    """Median over repetitions of each repetition's p50 and p95 tick
    latency; p95 is refused below ten samples beyond it."""
    p50 = [stats.percentile(r["outputs"]["ticks_ms"], 50) for r in records]
    p95 = [stats.tail_percentile(r["outputs"]["ticks_ms"], 95) for r in records]
    n = min(len(r["outputs"]["ticks_ms"]) for r in records)
    return stats.median(p50), stats.median(p95), n


def quality(workload: str, expected: dict) -> dict:
    """Drive-level TPR and FPR: of ``evaluate`` on train, of the
    never-retrain monitor's alarms elsewhere. The gate pins the outputs
    they come from, so they are recorded with every result rather than
    bounded."""
    source = expected["train"] if workload == "train" else expected["quality"]
    return {"drive_tpr": source["drive_tpr"], "drive_fpr": source["drive_fpr"]}


def end_to_end(untraced: list[dict]) -> dict:
    return {
        "setup_s": stats.median([r["setup_s"] for r in untraced]),
        "items_per_s": stats.median([_rate(r) for r in untraced]),
        "peak_rss_mb": stats.median([r["peak_rss_mb"] for r in untraced]),
    }


def _layer_values(record: dict, n_readings: int) -> dict:
    trace = record["trace"]
    self_s, calls, items = trace["self_s"], trace["calls"], trace["items"]
    values = {f"{layer}.s": self_s.get(layer, 0.0)
              for layer in (*LAYERS, PARSE_LAYER)}
    values.update({
        "serve.replay.parse.items": n_readings,
        "serve.ingest.admitted_ratio": stats.ratio(
            items.get("serve.ingest.admit.admitted", 0.0),
            calls.get("serve.ingest.admit", 0)),
        "core.client.ingest.calls_per_reading": stats.ratio(
            calls.get("core.client.ingest", 0), n_readings),
        "obs.metrics.calls_per_reading": stats.ratio(
            calls.get("obs.metrics", 0), n_readings),
        "obs.metrics.calls": calls.get("obs.metrics", 0),
        "robustness.checkpoint.bytes": items.get(
            "robustness.checkpoint.write.bytes", 0.0),
        "core.features.assemble.rows_used_ratio": stats.ratio(
            items.get("core.features.assemble.rows", 0.0),
            items.get("core.features.assemble.rows_available", 0.0)),
        "ml.arena.predict.calls": calls.get("ml.arena.predict", 0),
        "ml.arena.rows_per_call": stats.ratio(
            items.get("ml.arena.predict.rows", 0.0),
            calls.get("ml.arena.predict", 0)),
        "scale.store.bytes_read": items.get(
            "scale.store.load_shard.bytes_read", 0.0),
        "ml.tree.fit.calls": calls.get("ml.tree.fit", 0),
        "ml.tree.nodes": items.get("ml.tree.fit.nodes", 0.0),
        "unattributed.s": trace["unattributed_s"],
    })
    return values


def per_layer(workload: str, untraced: list[dict], traced: list[dict]) -> dict:
    per_rep = [_layer_values(r, r["outputs"].get("n_readings", 0))
               for r in traced]
    metrics = {name: stats.median([v[name] for v in per_rep])
               for name in per_rep[0]}
    metrics["serve.ingest.shed"] = stats.median(
        [r["outputs"].get("shed", 0) for r in traced])
    if workload == "serve":
        p50, p95, _ = _tick_percentiles(untraced)
    else:
        p50 = p95 = 0.0
    metrics["serve.tick.p50_ms"] = p50
    metrics["serve.tick.p95_ms"] = p95
    metrics["trace_overhead_ratio"] = (
        stats.median([_rate(r) for r in traced])
        / stats.median([_rate(r) for r in untraced])
    )
    return metrics


def metric_units(trace: int) -> dict:
    if not trace:
        return dict(END_TO_END_UNITS)
    return {m["name"]: m["unit"] for m in per_layer_spec()}


def counts(workload: str, records: list[dict], crashed: int) -> tuple[int, int]:
    """``(attempted, failed)``: readings submitted and readings shed or
    quarantined on serve, repetitions elsewhere; a repetition that
    raised counts as one failed attempt."""
    if workload == "serve":
        attempted = sum(r["outputs"]["n_readings"] for r in records)
        failed = sum(r["outputs"]["failed_readings"] for r in records)
    else:
        attempted, failed = len(records), 0
    return attempted + crashed, failed + crashed


# ----------------------------------------------------------------------
def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no program to benchmark: {ROOT / 'src' / 'repro'} is missing",
              file=sys.stderr)
        return 2
    run_started = time.monotonic()
    code = source_hash()
    inputs = ensure_inputs(SHAPE_OF[args.workload], args.seed, code)
    reference = json.loads((inputs / "reference.json").read_text())

    untraced: list[dict] = []
    traced: list[dict] = []
    crashed = 0
    gate_error = None
    try:
        expected, gate_source = expected_outputs(
            SHAPE_OF[args.workload], args.seed, reference,
            json.loads(EXPECTED.read_text()))
    except GateFailure as error:
        gate_error = f"GateFailure: {error}"
    measure_started = time.monotonic()
    while gate_error is None:
        want_trace = bool(args.trace) and len(traced) < len(untraced)
        try:
            record = run_rep(args.workload, inputs, want_trace)
            check(args.workload, record["outputs"], expected)
        except (RuntimeError, subprocess.TimeoutExpired, GateFailure) as error:
            crashed += not isinstance(error, GateFailure)
            gate_error = f"{type(error).__name__}: {error}"
            break
        (traced if want_trace else untraced).append(record)
        elapsed = time.monotonic() - measure_started
        per_rep = elapsed / (len(untraced) + len(traced))
        enough = min(len(untraced), len(traced) if args.trace else len(untraced))
        # Start no repetition expected to end past --seconds, so a run
        # measures for about that long once it has its minimum.
        if enough >= MIN_REPS[args.trace] and (
            elapsed + per_rep > args.seconds
            or time.monotonic() - run_started > MAX_RUN_S
        ):
            break

    records = untraced + traced
    attempted, failed = counts(args.workload, records, crashed)
    attempted = max(attempted, 1)
    if gate_error is not None:
        print(f"correctness gate failed on {args.workload} seed {args.seed}: "
              f"{gate_error}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": attempted,
                          "failed": failed, "metrics": {}}))
        return 1

    metrics = (per_layer(args.workload, untraced, traced) if args.trace
               else end_to_end(untraced))
    units = metric_units(args.trace)
    context = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "repetitions": {"untraced": len(untraced), "traced": len(traced)},
        "dataset_fingerprint": reference["dataset_fingerprint"],
        "artifact_hash": reference["artifact_hash"],
        "source_hash": code,
        "git_sha": git_sha(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": records[0]["numpy"],
        "failed_share": stats.failed_share(failed, attempted),
        "gate": gate_source,
        "quality": quality(args.workload, expected),
    }
    if args.workload == "serve":
        p50, p95, n_ticks = _tick_percentiles(untraced)
        context.update(tick_p50_ms=p50, tick_p95_ms=p95, ticks_per_rep=n_ticks)

    for key, value in context.items():
        print(f"# {key}: {value}")
    for name, value in metrics.items():
        unit = units[name]
        if name == "items_per_s":
            name = f"items_per_s ({ALIAS_OF[args.workload]})"
            unit = f"{ITEM_OF[args.workload]}/s"
        print(f"{name:<48} {value:>16.6g} {unit}")

    RESULTS.mkdir(exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S", time.gmtime())
    result = {**context, "metrics": metrics,
              "records": [{k: v for k, v in r.items() if k != "outputs"}
                          for r in records]}
    (RESULTS / f"{stamp}-{args.workload}-s{args.seed}-t{args.trace}-"
               f"{os.getpid()}.json").write_text(json.dumps(result, indent=1))

    print(json.dumps({
        "correct": True,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

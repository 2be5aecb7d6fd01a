"""Run manifests: one JSON record of everything a run was and did.

Every ``train`` / ``monitor`` / ``chaos`` invocation run with
``--run-dir DIR`` writes ``DIR/manifest.json`` stamping:

* identity — run id, command, CLI args, start time, duration, status;
* provenance — config hash (stable digest of the :class:`MFPAConfig`
  knobs including the estimator's parameters), dataset fingerprint
  (content digest of the loaded telemetry), seed, ``n_jobs``;
* behaviour — the aggregated span tree from the tracer and every
  metric family from the registry;
* outcome — the run's headline numbers (TPR/FPR, alarm precision, …).

Manifests answer "what exactly produced this number" months later: two
runs with equal config hash + dataset fingerprint + seed are the same
experiment, and their span trees show where any wall-clock difference
went. The checked-in schema (``manifest_schema.json``, validated by
:func:`validate_manifest` and the ``make obs-smoke`` target) keeps the
format honest across PRs.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from dataclasses import fields, is_dataclass
from pathlib import Path
from typing import Any, Mapping

import numpy as np

from repro.commit import atomic_write

__all__ = [
    "MANIFEST_VERSION",
    "RunContext",
    "config_hash",
    "dataset_fingerprint",
    "load_manifest",
    "load_schema",
    "start_run",
    "validate_manifest",
]

MANIFEST_VERSION = 1
SCHEMA_PATH = Path(__file__).with_name("manifest_schema.json")


# ----------------------------------------------------------------------
# Provenance digests
# ----------------------------------------------------------------------
def _describe(value: Any) -> Any:
    """Stable JSON-able description of a config value."""
    if is_dataclass(value) and not isinstance(value, type):
        return {
            field.name: _describe(getattr(value, field.name))
            for field in fields(value)
        }
    if hasattr(value, "get_params"):  # estimators
        return {
            "class": type(value).__name__,
            "params": {k: _describe(v) for k, v in sorted(value.get_params().items())},
        }
    if isinstance(value, Mapping):
        return {str(k): _describe(v) for k, v in sorted(value.items())}
    if isinstance(value, (list, tuple)):
        return [_describe(v) for v in value]
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return repr(value)


def config_hash(config: Any) -> str:
    """16-hex-char digest of a config object (dataclass or mapping).

    Stable across processes and sessions: two configs hash equal iff
    every knob — including nested estimator parameters — is equal.
    """
    payload = json.dumps(_describe(config), sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def dataset_fingerprint(dataset: Any) -> str:
    """16-hex-char content digest of a :class:`TelemetryDataset`.

    Hashes the shape (drive/record counts, column names), the drive
    metadata, and a NaN-safe per-column content digest (sum + a strided
    row sample), so any fault injection, sanitization pass or version
    drift changes the fingerprint without rehashing every byte.
    """
    digest = hashlib.sha256()
    digest.update(f"{dataset.n_drives}:{dataset.n_records}".encode())
    for serial in sorted(dataset.drives):
        meta = dataset.drives[serial]
        digest.update(
            f"{serial}:{meta.vendor}:{meta.failure_day}".encode()
        )
    for name in sorted(dataset.columns):
        values = dataset.columns[name]
        digest.update(name.encode())
        stride = max(1, values.size // 64)
        sample = values[::stride]
        if values.dtype.kind in "fiub":
            as_float = np.asarray(values, dtype=float)
            digest.update(repr(float(np.nansum(as_float))).encode())
            digest.update(np.nan_to_num(np.asarray(sample, dtype=float)).tobytes())
        else:
            digest.update("|".join(str(v) for v in sample).encode())
    return digest.hexdigest()[:16]


def _json_safe(value: Any) -> Any:
    """Recursively replace NaN/Inf with None so the manifest is strict JSON."""
    if isinstance(value, float) and not np.isfinite(value):
        return None
    if isinstance(value, dict):
        return {k: _json_safe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        return _json_safe(float(value))
    return value


# ----------------------------------------------------------------------
# Run context
# ----------------------------------------------------------------------
class RunContext:
    """Accumulates one run's identity, annotations and results, then
    writes the manifest."""

    def __init__(self, run_dir: str | Path, command: str, args: Mapping[str, Any]):
        self.run_dir = Path(run_dir)
        self.command = command
        self.args = {k: _describe(v) for k, v in sorted(dict(args).items())}
        self.started_unix = time.time()
        self._wall_start = time.perf_counter()
        self.run_id = (
            f"{command}-"
            f"{time.strftime('%Y%m%dT%H%M%S', time.gmtime(self.started_unix))}-"
            f"{os.getpid()}"
        )
        self.annotations: dict[str, Any] = {}
        self.results: dict[str, Any] = {}

    def annotate(self, **keys: Any) -> None:
        """Attach provenance keys (config hash, fingerprint, seed, …)."""
        self.annotations.update({k: _describe(v) for k, v in keys.items()})

    def record_result(self, key: str, value: Any) -> None:
        """Record one headline outcome number/structure."""
        self.results[key] = _describe(value)

    # ------------------------------------------------------------------
    def build(self, tracer, registry, status: str = "ok") -> dict:
        """Assemble the manifest dict (no I/O)."""
        return _json_safe(
            {
                "manifest_version": MANIFEST_VERSION,
                "run_id": self.run_id,
                "command": self.command,
                "status": status,
                "created_unix": round(self.started_unix, 3),
                "duration_seconds": round(
                    time.perf_counter() - self._wall_start, 6
                ),
                "args": self.args,
                "annotations": self.annotations,
                "spans": tracer.span_records(),
                "metrics": registry.dump(),
                "results": self.results,
            }
        )

    def finalize(self, tracer, registry, status: str = "ok") -> Path:
        """Write ``<run_dir>/manifest.json`` (plus the Prometheus text
        snapshot) atomically and durably; return the manifest path."""
        manifest = self.build(tracer, registry, status=status)
        self.run_dir.mkdir(parents=True, exist_ok=True)
        path = self.run_dir / "manifest.json"
        atomic_write(
            path, (json.dumps(manifest, indent=2, sort_keys=True) + "\n").encode()
        )
        atomic_write(self.run_dir / "metrics.prom", registry.to_prometheus().encode())
        return path


def start_run(run_dir: str | Path, command: str, args: Mapping[str, Any]) -> RunContext:
    """Open a run context writing into ``run_dir`` on finalize."""
    return RunContext(run_dir, command, args)


def load_manifest(run_dir: str | Path) -> dict:
    """Read ``<run_dir>/manifest.json``."""
    path = Path(run_dir) / "manifest.json"
    if not path.exists():
        raise FileNotFoundError(
            f"{path} not found — was the run started with --run-dir?"
        )
    return json.loads(path.read_text())


# ----------------------------------------------------------------------
# Schema validation (dependency-free subset of JSON Schema)
# ----------------------------------------------------------------------
def load_schema() -> dict:
    """The checked-in manifest schema."""
    return json.loads(SCHEMA_PATH.read_text())


_TYPES = {
    "object": dict,
    "array": list,
    "string": str,
    "boolean": bool,
    "null": type(None),
}


def _check(value: Any, schema: Mapping, where: str, errors: list[str]) -> None:
    expected = schema.get("type")
    if expected is not None:
        if expected == "number":
            ok = isinstance(value, (int, float)) and not isinstance(value, bool)
        elif expected == "integer":
            ok = isinstance(value, int) and not isinstance(value, bool)
        else:
            ok = isinstance(value, _TYPES[expected])
        if not ok:
            errors.append(
                f"{where}: expected {expected}, got {type(value).__name__}"
            )
            return
    if "enum" in schema and value not in schema["enum"]:
        errors.append(f"{where}: {value!r} not in {schema['enum']}")
    if "minimum" in schema and isinstance(value, (int, float)):
        if value < schema["minimum"]:
            errors.append(f"{where}: {value} < minimum {schema['minimum']}")
    if isinstance(value, dict):
        for key in schema.get("required", ()):
            if key not in value:
                errors.append(f"{where}: missing required key {key!r}")
        for key, sub in schema.get("properties", {}).items():
            if key in value:
                _check(value[key], sub, f"{where}.{key}", errors)
    if isinstance(value, list) and "items" in schema:
        for index, item in enumerate(value):
            _check(item, schema["items"], f"{where}[{index}]", errors)


def validate_manifest(manifest: Mapping, schema: Mapping | None = None) -> list[str]:
    """Validate a manifest against the schema; returns the error list
    (empty = valid)."""
    errors: list[str] = []
    _check(dict(manifest), schema or load_schema(), "manifest", errors)
    return errors

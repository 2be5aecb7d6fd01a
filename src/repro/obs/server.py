"""Live scrape surface: HTTP `/metrics`, `/health`, `/status`.

The batch pipeline exports metrics post-hoc (``--metrics-out``, run
manifests); a daemon that runs for months needs to be *scraped while it
works*. :class:`ObsServer` is a stdlib :class:`ThreadingHTTPServer` on a
daemon thread:

* ``GET /metrics`` — Prometheus text exposition v0.0.4 straight from
  the process-global :class:`~repro.obs.metrics.MetricsRegistry`;
* ``GET /health`` — liveness + readiness JSON (a load balancer or
  systemd watchdog decision: 200 when ready, 503 when not);
* ``GET /status`` — a full human/tooling JSON snapshot (what
  ``repro obs top`` renders).

The handlers never block the pump loop: they read the registry (plus
whatever snapshot callables the daemon registered) from the HTTP
thread. Registry reads race benignly with writer threads — ``dump()``
iterates dicts that a concurrent insert can resize — so reads go
through a short retry loop instead of a lock on the hot write path.

For scrape-less deployments :class:`TextfileExporter` periodically
writes the same exposition text to a node_exporter textfile, atomically
(:func:`repro.commit.atomic_write`) so the collector never reads a torn
file.
"""

from __future__ import annotations

import json
import math
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Callable, Mapping, Sequence

from repro.commit import atomic_write
from repro.obs.logs import get_logger
from repro.obs.metrics import MetricsRegistry, get_registry

__all__ = [
    "ObsServer",
    "TextfileExporter",
    "histogram_quantile",
    "registry_status",
]

_LOG = get_logger("repro.obs.server")

#: Content type promised by the Prometheus text exposition format.
PROMETHEUS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

_DUMP_RETRIES = 5


def _dump_with_retry(registry: MetricsRegistry) -> list[dict]:
    """Snapshot the registry, tolerating concurrent writer mutation.

    A writer thread creating a brand-new label combination can resize a
    dict mid-iteration (``RuntimeError: dictionary changed size``).
    That's rare and transient — retry a few times rather than lock every
    counter increment in the pump loop.
    """
    for attempt in range(_DUMP_RETRIES):
        try:
            return registry.dump()
        except RuntimeError:
            if attempt == _DUMP_RETRIES - 1:
                raise
    raise AssertionError("unreachable")


def _render_prometheus(registry: MetricsRegistry) -> str:
    for attempt in range(_DUMP_RETRIES):
        try:
            return registry.to_prometheus()
        except RuntimeError:
            if attempt == _DUMP_RETRIES - 1:
                raise
    raise AssertionError("unreachable")


def histogram_quantile(
    bounds: Sequence[float], bucket_counts: Sequence[int], q: float
) -> float:
    """Estimate a quantile from fixed-bucket histogram counts.

    Linear interpolation inside the selected bucket, Prometheus-style:
    the overflow bucket clamps to its lower bound (the largest finite
    bound) since ``+Inf`` cannot be interpolated.
    """
    if not 0 <= q <= 1:
        raise ValueError("quantile must be in [0, 1]")
    total = sum(bucket_counts)
    if total == 0:
        return 0.0
    rank = q * total
    cumulative = 0
    for i, count in enumerate(bucket_counts):
        cumulative += count
        if cumulative >= rank and count:
            lower = bounds[i - 1] if i > 0 else 0.0
            if i >= len(bounds):  # +Inf overflow bucket
                return float(bounds[-1])
            upper = bounds[i]
            fraction = (rank - (cumulative - count)) / count
            return float(lower + (upper - lower) * fraction)
    return float(bounds[-1])


def registry_status(registry: MetricsRegistry | None = None) -> dict:
    """JSON-ready summary of every non-zero sample in the registry.

    Histograms are condensed to count/sum/mean plus interpolated
    p50/p95/p99 — the per-stage latency summaries `/status` promises.
    """
    registry = registry if registry is not None else get_registry()
    out: dict[str, dict] = {}
    for entry in _dump_with_retry(registry):
        samples = []
        for record in entry["samples"]:
            if entry["type"] == "histogram":
                if not record["count"]:
                    continue
                samples.append({
                    "labels": record["labels"],
                    "count": record["count"],
                    "sum": record["sum"],
                    "mean": record["sum"] / record["count"],
                    "p50": histogram_quantile(
                        record["bounds"], record["bucket_counts"], 0.50),
                    "p95": histogram_quantile(
                        record["bounds"], record["bucket_counts"], 0.95),
                    "p99": histogram_quantile(
                        record["bounds"], record["bucket_counts"], 0.99),
                })
            else:
                if not record["value"]:
                    continue
                samples.append(
                    {"labels": record["labels"], "value": record["value"]}
                )
        if samples:
            out[entry["name"]] = {"type": entry["type"], "samples": samples}
    return out


def _jsonable(value):
    """Strict-JSON coercion: non-finite floats become null, unknown
    objects their string form — a scrape must never 500 on a NaN."""
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, float) and not math.isfinite(value):
        return None
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return str(value)


def _default_health() -> dict:
    return {"alive": True, "ready": True, "checks": {}}


class _Handler(BaseHTTPRequestHandler):
    # Set by ObsServer on the server instance; reached via self.server.
    server_version = "repro-obs/1"

    def _respond(self, code: int, body: bytes, content_type: str) -> None:
        self.send_response(code)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _respond_json(self, code: int, payload) -> None:
        body = json.dumps(
            _jsonable(payload), sort_keys=True, indent=2
        ).encode() + b"\n"
        self._respond(code, body, "application/json; charset=utf-8")

    def do_GET(self) -> None:  # noqa: N802 (stdlib handler contract)
        obs: "ObsServer" = self.server.obs  # type: ignore[attr-defined]
        path = self.path.split("?", 1)[0].rstrip("/") or "/"
        try:
            if path == "/metrics":
                obs.count_scrape("/metrics")
                body = _render_prometheus(obs.registry).encode()
                self._respond(200, body, PROMETHEUS_CONTENT_TYPE)
            elif path == "/health":
                obs.count_scrape("/health")
                health = obs.health_fn() if obs.health_fn else _default_health()
                code = 200 if health.get("ready", True) else 503
                self._respond_json(code, health)
            elif path == "/status":
                obs.count_scrape("/status")
                status = obs.status_fn() if obs.status_fn else {}
                status = dict(status)
                status.setdefault("metrics", registry_status(obs.registry))
                self._respond_json(200, status)
            else:
                self._respond_json(
                    404,
                    {"error": "not found",
                     "endpoints": ["/metrics", "/health", "/status"]},
                )
        except BrokenPipeError:
            pass  # client went away mid-write; nothing to salvage
        except Exception as exc:
            _LOG.warning(
                "observability handler failed", path=path, error=repr(exc)
            )
            try:
                self._respond_json(500, {"error": repr(exc)})
            except OSError:
                pass  # response already half-sent on a dead socket

    def log_message(self, format: str, *args) -> None:
        # BaseHTTPRequestHandler writes access logs to stderr; route
        # them through the leveled logger at debug instead.
        _LOG.debug("obs http " + format % args)


class ObsServer:
    """The live observability endpoint, on a daemon thread.

    ``status_fn`` / ``health_fn`` are zero-arg callables supplied by the
    host process (the serve daemon's ``status_snapshot`` /
    ``health_snapshot``); both are optional — a bare server still
    exposes `/metrics` and an always-ready `/health`.

    ``port=0`` binds an ephemeral port; read :attr:`port` after
    :meth:`start` for the bound value.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        registry: MetricsRegistry | None = None,
        status_fn: Callable[[], Mapping] | None = None,
        health_fn: Callable[[], Mapping] | None = None,
    ):
        self.host = host
        self.port = int(port)
        self.registry = registry if registry is not None else get_registry()
        self.status_fn = status_fn
        self.health_fn = health_fn
        self._httpd: ThreadingHTTPServer | None = None
        self._thread: threading.Thread | None = None

    def count_scrape(self, endpoint: str) -> None:
        self.registry.counter("obs_scrapes_total", endpoint=endpoint).inc()

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def start(self) -> "ObsServer":
        if self._httpd is not None:
            raise RuntimeError("observability server already started")
        httpd = ThreadingHTTPServer((self.host, self.port), _Handler)
        httpd.daemon_threads = True
        httpd.obs = self  # type: ignore[attr-defined]
        self.port = httpd.server_address[1]
        self._httpd = httpd
        self._thread = threading.Thread(
            target=httpd.serve_forever,
            name="repro-obs-server",
            daemon=True,
        )
        self._thread.start()
        _LOG.info(
            "observability endpoint listening", url=self.url,
            endpoints=["/metrics", "/health", "/status"],
        )
        return self

    def stop(self) -> None:
        if self._httpd is None:
            return
        self._httpd.shutdown()
        self._httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5)
        self._httpd = None
        self._thread = None

    def __enter__(self) -> "ObsServer":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()


class TextfileExporter:
    """Periodic atomic ``.prom`` writer for scrape-less deployments.

    Writes the registry's exposition text to ``path`` every
    ``interval`` seconds from a daemon thread, via
    :func:`repro.commit.atomic_write` so a node_exporter textfile
    collector never observes a torn file. :meth:`write_once` is also
    usable standalone (and is called a final time on :meth:`stop`, so
    the file reflects shutdown-instant truth).
    """

    def __init__(
        self,
        path: str | Path,
        interval: float = 15.0,
        registry: MetricsRegistry | None = None,
    ):
        if interval <= 0:
            raise ValueError("textfile interval must be positive")
        self.path = Path(path)
        self.interval = float(interval)
        self.registry = registry if registry is not None else get_registry()
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None

    def write_once(self) -> Path:
        self.path.parent.mkdir(parents=True, exist_ok=True)
        atomic_write(self.path, _render_prometheus(self.registry).encode())
        self.registry.counter("obs_textfile_writes_total").inc()
        return self.path

    def _loop(self) -> None:
        while not self._stop.wait(self.interval):
            try:
                self.write_once()
            except OSError as exc:
                _LOG.warning(
                    "textfile export failed", path=str(self.path),
                    error=repr(exc),
                )

    def start(self) -> "TextfileExporter":
        if self._thread is not None:
            raise RuntimeError("textfile exporter already started")
        self.write_once()
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._loop, name="repro-obs-textfile", daemon=True
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        if self._thread is None:
            return
        self._stop.set()
        self._thread.join(timeout=5)
        self._thread = None
        try:
            self.write_once()
        except OSError:
            pass  # final flush is best-effort on teardown

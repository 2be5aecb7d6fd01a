"""Always-on fleet scoring: the batch monitor as a supervised service.

The package turns :mod:`repro.core.deployment`'s batch loop into a
long-running daemon assembled from the robustness layer's parts:

* :mod:`repro.serve.ingest` — quarantine gate + bounded queue with
  explicit backpressure and load shedding;
* :mod:`repro.serve.state` — one per-drive incremental feature state
  shared by the full and reduced models
  (:class:`~repro.core.client.IncrementalScorer`);
* :mod:`repro.serve.retry` — jittered backoff, per-stage timeout
  budgets, and the degraded-mode circuit breaker;
* :mod:`repro.serve.alarms` — exactly-once alarm ledger and sink;
* :mod:`repro.serve.daemon` — the supervised loop, window flushing and
  window-boundary checkpoints with crash-resume;
* :mod:`repro.serve.replay` — recorded-dataset replay (``repro
  replay``) and stream (de)serialization;
* :mod:`repro.serve.chaos` — the chaos-under-serve harness driving the
  six fault injectors at a live daemon;
* :mod:`repro.serve.drift` — training-time :class:`ReferenceProfile`
  sketches and the per-window live PSI :class:`DriftMonitor`.
"""

from repro.serve.alarms import AlarmStream
from repro.serve.chaos import ChaosServeReport, run_chaos_one, run_chaos_under_serve
from repro.serve.daemon import SERVE_FILES, ServeConfig, ServeDaemon
from repro.serve.drift import DriftMonitor, ReferenceProfile
from repro.serve.ingest import BoundedReadingQueue, GatePolicy, ReadingGate
from repro.serve.replay import (
    dataset_to_readings,
    iter_stream,
    replay_into,
    write_stream,
)
from repro.serve.retry import (
    CircuitBreaker,
    RetryExhaustedError,
    RetryPolicy,
    retry_call,
)
from repro.serve.state import DimensionFreshness, IncrementalScorer

__all__ = [
    "AlarmStream",
    "BoundedReadingQueue",
    "ChaosServeReport",
    "CircuitBreaker",
    "DimensionFreshness",
    "DriftMonitor",
    "GatePolicy",
    "ReferenceProfile",
    "IncrementalScorer",
    "ReadingGate",
    "RetryExhaustedError",
    "RetryPolicy",
    "SERVE_FILES",
    "ServeConfig",
    "ServeDaemon",
    "dataset_to_readings",
    "iter_stream",
    "replay_into",
    "retry_call",
    "run_chaos_one",
    "run_chaos_under_serve",
    "write_stream",
]

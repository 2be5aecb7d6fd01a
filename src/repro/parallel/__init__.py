"""Parallel execution layer: a lexically scoped fork pool.

:mod:`repro.parallel.executor` holds the ordered ``starmap`` on a pool
that lives for one call or one ``with`` block; :mod:`repro.parallel.
shared` holds the copy-on-write payload registry. ``docs/performance.md``
documents the seeding that keeps every ``n_jobs`` bit-identical.
"""

from repro.parallel.executor import (
    ParallelExecutor,
    SharedPayload,
    StalePayloadError,
    effective_n_jobs,
    fork_available,
    share,
)

__all__ = [
    "ParallelExecutor", "SharedPayload", "StalePayloadError",
    "effective_n_jobs", "fork_available", "share",
]

"""Ordered fork-pool ``starmap`` for the coarse, embarrassingly parallel jobs.

Only coarse jobs repay a pool: forest tree fits, grid-search/CV fits,
forward-selection candidates and the sharded monitor's shards. Tasks
run in-process (``n_jobs=1``) or on a ``fork`` pool, always in task
order, so callers that pre-derive per-task seeds are bit-identical at
every ``n_jobs``. Large inputs reach workers through :func:`share`.

The pool's lifetime is lexical: a bare ``starmap`` forks one and tears
it down on return; inside ``with ParallelExecutor(n) as ex:`` it forks
at the first fanning-out ``starmap`` and lives until the block exits —
after the caller's ``share()`` contexts are open either way. Without
``fork``, or inside a worker (no nested forks), tasks run serially.
"""

from __future__ import annotations

import multiprocessing
import os
import time
from multiprocessing.pool import Pool
from typing import Any, Callable, Sequence

from repro.obs import (
    absorb_worker, annotate_run, capture_active, get_logger, inc_counter,
    observe_histogram, set_gauge, trace_span, worker_begin, worker_collect,
)
from repro.parallel.shared import (
    SharedPayload, StalePayloadError, in_worker, mark_worker, share,
)

__all__ = ["ParallelExecutor", "SharedPayload", "StalePayloadError",
           "effective_n_jobs", "fork_available", "share"]

_LOG = get_logger("repro.parallel")

#: (requested, cap) pairs already warned about: warn once, not per executor.
_WARNED_CLAMPS: set[tuple[int, int]] = set()


def fork_available() -> bool:
    """True when the ``fork`` start method exists on this platform."""
    return "fork" in multiprocessing.get_all_start_methods()


def effective_n_jobs(n_jobs: int | None) -> int:
    """Resolve ``n_jobs`` to a worker count: ``None``/1 serial, negative
    counts back from the cores (``-1`` = all), and requests above
    ``os.cpu_count()`` clamp to it with one warning per request."""
    if n_jobs is None:
        return 1
    n_jobs = int(n_jobs)
    if n_jobs == 0:
        raise ValueError("n_jobs must not be 0; use 1 for serial or -1 for all cores")
    cap = os.cpu_count() or 1
    if n_jobs < 0:
        return max(1, cap + 1 + n_jobs)
    if n_jobs > cap:
        if (n_jobs, cap) not in _WARNED_CLAMPS:
            _WARNED_CLAMPS.add((n_jobs, cap))
            _LOG.warning(
                f"n_jobs={n_jobs} exceeds os.cpu_count()={cap}; "
                f"clamping to {cap} worker{'s' if cap != 1 else ''}",
                requested=n_jobs, cpu_count=cap,
            )
        return cap
    return n_jobs


def _observed_call(task: Callable[..., Any], arguments: tuple) -> tuple[Any, dict]:
    """Worker-side wrapper while observability capture is on: run the
    task on a clean tracer/registry and ship that delta back with the
    (unchanged) result for the parent to absorb."""
    worker_begin()
    result = task(*arguments)
    return result, worker_collect()


class ParallelExecutor:
    """Ordered ``starmap`` over independent tasks, serial or forked; as a
    context manager it keeps one pool until the block exits."""

    def __init__(self, n_jobs: int | None = 1):
        self.n_jobs = effective_n_jobs(n_jobs)
        if isinstance(n_jobs, int) and n_jobs > 1 and self.n_jobs != n_jobs:
            annotate_run(parallel_requested_n_jobs=n_jobs,
                         parallel_effective_n_jobs=self.n_jobs)
        self._scoped = False
        self._pool: Pool | None = None

    def __enter__(self) -> "ParallelExecutor":
        self._scoped = True
        return self

    def __exit__(self, *exc_info) -> None:
        self._scoped = False
        self._close()

    @property
    def is_parallel(self) -> bool:
        """Whether ``starmap`` fans out here and now."""
        return self.n_jobs > 1 and fork_available() and not in_worker()

    def starmap(
        self, task: Callable[..., Any], argument_tuples: Sequence[tuple]
    ) -> list:
        """Apply ``task`` to every argument tuple, preserving order. Pool
        tasks ship their spans/metrics back while capture is active."""
        tasks = list(argument_tuples)
        started = time.perf_counter()
        with trace_span("parallel.starmap"):
            inc_counter("parallel_tasks_total", len(tasks))
            if len(tasks) <= 1 or not self.is_parallel:
                results = [task(*arguments) for arguments in tasks]
            else:
                try:
                    results = self._dispatch(task, tasks)
                finally:
                    if not self._scoped:
                        self._close()
            observe_histogram(
                "parallel_starmap_seconds", time.perf_counter() - started
            )
            return results

    def _dispatch(self, task: Callable[..., Any], tasks: list) -> list:
        if self._pool is None:
            context = multiprocessing.get_context("fork")
            self._pool = context.Pool(self.n_jobs, initializer=mark_worker)
            inc_counter("parallel_pool_forks_total")
            set_gauge("parallel_pool_workers", self.n_jobs)
        # Small chunks keep the pool busy when task durations are skewed
        # (deep trees next to stumps) without flooding the result pipe.
        chunksize = max(1, len(tasks) // (self.n_jobs * 4))
        if not capture_active():
            return self._pool.starmap(task, tasks, chunksize=chunksize)
        shipped = self._pool.starmap(
            _observed_call, [(task, arguments) for arguments in tasks], chunksize
        )
        for _, observations in shipped:
            absorb_worker(observations)
        return [result for result, _ in shipped]

    def _close(self) -> None:
        if self._pool is not None:
            self._pool.terminate()
            self._pool.join()
            self._pool = None
            set_gauge("parallel_pool_workers", 0)

"""Shared helpers for the benchmark suite.

Each benchmark regenerates one of the paper's tables/figures, renders it
as ASCII, prints it and saves it under ``benchmarks/results/`` so the
EXPERIMENTS.md evidence can be refreshed by re-running the suite.
"""

from __future__ import annotations

import statistics
import time
from pathlib import Path
from typing import Any, Callable

RESULTS_DIR = Path(__file__).parent / "results"

#: "Never slower" gate for the parallel layer: a parallel run may cost
#: at most this multiple of the serial run...
NEVER_SLOWER_RATIO = 1.10
#: ...plus this absolute slack, which absorbs timer noise on
#: sub-second workloads where a 10% margin is microseconds.
NEVER_SLOWER_SLACK_SECONDS = 0.05


def never_slower(
    serial_seconds: float,
    parallel_seconds: float,
    *,
    ratio: float = NEVER_SLOWER_RATIO,
    slack_seconds: float = NEVER_SLOWER_SLACK_SECONDS,
) -> bool:
    """Gate: did ``n_jobs > 1`` avoid losing to the serial loop?

    Shared by ``make bench-parallel`` (full size) and the smoke-level
    gate in ``tests/parallel/test_bench_gate.py`` (tiny size).
    """
    return parallel_seconds <= serial_seconds * ratio + slack_seconds


def paired_timings(
    configs: dict[str, Callable[[], Any]], *, rounds: int = 3, warmup: int = 1
) -> dict[str, dict[str, Any]]:
    """Time every configuration under one protocol.

    ``warmup`` untimed calls of each configuration first, then
    ``rounds`` paired rounds that each run every configuration once;
    the order rotates per round so no configuration always runs first
    (or always right after the slowest one). Returns, per name, the
    ``median`` and the ``q1``/``q3`` quartiles in seconds, the raw
    ``seconds`` and the last call's ``result`` (for equality checks).
    Every never-slower gate compares medians from this helper.
    """
    if rounds < 3:
        raise ValueError("paired_timings needs at least 3 rounds")
    names = list(configs)
    for _ in range(warmup):
        for name in names:
            configs[name]()
    seconds: dict[str, list[float]] = {name: [] for name in names}
    results: dict[str, Any] = {}
    for round_index in range(rounds):
        shift = round_index % len(names)
        for name in names[shift:] + names[:shift]:
            started = time.perf_counter()
            results[name] = configs[name]()
            seconds[name].append(time.perf_counter() - started)
    timings = {}
    for name in names:
        q1, median, q3 = statistics.quantiles(seconds[name], n=4, method="inclusive")
        timings[name] = {
            "median": median, "q1": q1, "q3": q3,
            "seconds": seconds[name], "result": results[name],
        }
    return timings


def cores_label(count: int | None) -> str:
    """``1 core`` / ``8 cores`` — report-title pluralization."""
    n = count or 1
    return f"{n} core" if n == 1 else f"{n} cores"


def save_exhibit(name: str, text: str) -> None:
    """Persist a rendered exhibit and echo it to stdout."""
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / f"{name}.txt"
    path.write_text(text + "\n")
    print(f"\n{text}\n[saved to {path}]")

"""The harness's own arithmetic: medians, tail percentiles and failure
shares.

Pure standard library, so the parent process that drives the benchmark
never imports numpy or the program under test.
"""

from __future__ import annotations

import math
import statistics

#: A tail percentile is reported only when at least this many samples
#: lie strictly beyond it; fewer and the value is one or two outliers.
MIN_TAIL_SAMPLES = 10


def percentile(samples, q: float) -> float:
    """The ``q``-th percentile (0..100) with linear interpolation
    between closest ranks — numpy's default ``linear`` method."""
    values = sorted(float(v) for v in samples)
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile {q} outside [0, 100]")
    position = (len(values) - 1) * q / 100.0
    low = math.floor(position)
    high = min(low + 1, len(values) - 1)
    return values[low] + (values[high] - values[low]) * (position - low)


def samples_beyond(n_samples: int, q: float) -> int:
    """How many of ``n_samples`` ranked samples lie above the ``q``-th
    percentile rank."""
    return n_samples - 1 - math.floor((n_samples - 1) * q / 100.0)


def tail_percentile(samples, q: float) -> float:
    """The ``q``-th percentile, refused when fewer than
    :data:`MIN_TAIL_SAMPLES` samples lie beyond it."""
    n = len(samples)
    beyond = samples_beyond(n, q)
    if beyond < MIN_TAIL_SAMPLES:
        raise ValueError(
            f"p{q:g} of {n} samples has {beyond} beyond it; "
            f"need at least {MIN_TAIL_SAMPLES}"
        )
    return percentile(samples, q)


def median(values) -> float:
    return float(statistics.median(values))


def failed_share(failed: int, attempted: int) -> float:
    """Failed ÷ attempted operations."""
    if attempted < 1:
        raise ValueError("failed_share needs at least one attempted operation")
    if not 0 <= failed <= attempted:
        raise ValueError(f"failed={failed} outside [0, attempted={attempted}]")
    return failed / attempted


def ratio(numerator: float, denominator: float) -> float:
    """``numerator / denominator``, 0 when nothing was attempted."""
    return numerator / denominator if denominator else 0.0

"""Per-drive incremental feature state for the serve loop.

:class:`IncrementalScorer` (defined in :mod:`repro.core.client`, which
:mod:`repro.robustness.degraded` also builds on) keeps one per-drive
streaming state for both the full-feature model and the reduced
(default SF) fallback. Every admitted reading is ingested once, so the
daemon can switch routes at any window boundary without a state
rebuild. Staging a reading returns its assembled row; the daemon
batches rows and scores each batch with one model call.

:class:`DimensionFreshness` watches for a feature dimension (W, B,
firmware) going *stale* — absent from ``stale_after`` consecutive
admitted readings, the signature of a collector losing a source — which
is one of the two triggers for degraded-mode routing (the other is the
scoring circuit breaker).
"""

from __future__ import annotations

from repro.core.client import IncrementalScorer
from repro.robustness.faults import DIMENSION_COLUMNS

__all__ = ["DimensionFreshness", "IncrementalScorer"]


class DimensionFreshness:
    """Consecutive-absence staleness detector per feature dimension."""

    def __init__(self, stale_after: int = 256):
        if stale_after < 1:
            raise ValueError("stale_after must be >= 1")
        self.stale_after = stale_after
        self._streaks: dict[str, int] = {name: 0 for name in DIMENSION_COLUMNS}

    def observe(self, reading: dict) -> None:
        for name, columns in DIMENSION_COLUMNS.items():
            if any(column in reading for column in columns):
                self._streaks[name] = 0
            else:
                self._streaks[name] += 1

    def stale_dimensions(self) -> tuple[str, ...]:
        return tuple(
            name
            for name, streak in sorted(self._streaks.items())
            if streak >= self.stale_after
        )

    # -- checkpointing --------------------------------------------------
    def snapshot(self) -> dict:
        return {"streaks": dict(self._streaks)}

    def restore(self, snapshot: dict) -> None:
        self._streaks = {name: 0 for name in DIMENSION_COLUMNS}
        self._streaks.update(
            {k: int(v) for k, v in snapshot["streaks"].items()}
        )

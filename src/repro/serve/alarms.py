"""Exactly-once alarm stream: dedup, rate budget, durable sink.

Alarms are once per drive *lifetime* (same contract as
:class:`~repro.core.deployment.FleetMonitor`), with an optional
fleet-wide per-window budget: when one bad window would page the
operator for half the fleet, alarms beyond ``max_per_window`` are
*suppressed* — counted, logged, and the drive left un-alarmed so it
re-alarms in the next window rather than silently never.

Exactly-once across crashes is achieved by ordering, not locking:

1. alarm decisions append to the in-memory **ledger**;
2. the ledger rides inside the window-boundary checkpoint (the commit
   point);
3. only after the checkpoint commits does :meth:`emit_pending` append
   the new lines to the JSONL **sink**.

A crash between (2) and (3) loses sink lines but not ledger entries, a
crash before (2) loses both — either way :meth:`reconcile_sink` on
resume atomically rewrites the sink *from* the restored ledger, so the
sink always converges to exactly one line per alarmed drive.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.obs import get_logger, inc_counter
from repro.commit import append_durable, atomic_write

__all__ = ["AlarmStream"]

_LOG = get_logger("repro.serve.alarms")


def _jsonl(records: list[dict]) -> bytes:
    return "".join(
        json.dumps(record, sort_keys=True) + "\n" for record in records
    ).encode()


class AlarmStream:
    def __init__(
        self,
        threshold: float = 0.5,
        sink_path: str | Path | None = None,
        max_per_window: int | None = None,
    ):
        self.threshold = threshold
        self.sink_path = Path(sink_path) if sink_path is not None else None
        self.max_per_window = max_per_window
        self.alarmed: set[int] = set()
        self.ledger: list[dict] = []
        self._pending: list[dict] = []
        self._window_alarms = 0

    def is_alarmed(self, serial: int) -> bool:
        return int(serial) in self.alarmed

    def open_window(self) -> None:
        """Reset the fleet-wide rate budget at a window boundary."""
        self._window_alarms = 0

    def decide(
        self,
        serial: int,
        day: int,
        probability: float,
        window_start: int,
        degraded: bool = False,
    ) -> bool:
        """Record (or reject) one above-threshold candidate. Returns
        whether the alarm was accepted into the ledger."""
        if probability < self.threshold:
            return False
        serial = int(serial)
        if serial in self.alarmed:
            inc_counter("serve_alarms_deduped_total")
            return False
        if (
            self.max_per_window is not None
            and self._window_alarms >= self.max_per_window
        ):
            # budget blown: suppress but do NOT mark alarmed — the drive
            # gets another chance next window instead of never alarming.
            inc_counter("serve_alarms_suppressed_total")
            _LOG.warning(
                "alarm suppressed by rate budget", serial=serial, day=day
            )
            return False
        self._window_alarms += 1
        self.alarmed.add(serial)
        record = {
            "serial": serial,
            "day": int(day),
            "probability": float(probability),
            "window_start": int(window_start),
            "degraded": bool(degraded),
        }
        self.ledger.append(record)
        self._pending.append(record)
        return True

    def emit_pending(self) -> int:
        """Append checkpoint-committed alarms to the sink. Call *after*
        the checkpoint write — see the module docstring's ordering."""
        pending, self._pending = self._pending, []
        if self.sink_path is not None and pending:
            self.sink_path.parent.mkdir(parents=True, exist_ok=True)
            append_durable(self.sink_path, _jsonl(pending))
        for _ in pending:
            inc_counter("serve_alarms_emitted_total")
        return len(pending)

    def reconcile_sink(self) -> None:
        """Atomically rewrite the sink from the ledger (resume path)."""
        if self.sink_path is None:
            return
        self.sink_path.parent.mkdir(parents=True, exist_ok=True)
        atomic_write(self.sink_path, _jsonl(self.ledger))

    # -- checkpointing --------------------------------------------------
    def snapshot(self) -> dict:
        # _pending is NOT persisted: everything pending is already in
        # the ledger, and reconcile_sink regenerates the sink from it.
        return {
            "threshold": self.threshold,
            "alarmed": sorted(self.alarmed),
            "ledger": list(self.ledger),
        }

    def restore(self, snapshot: dict) -> None:
        self.threshold = float(snapshot["threshold"])
        self.alarmed = set(int(s) for s in snapshot["alarmed"])
        self.ledger = [dict(record) for record in snapshot["ledger"]]
        self._pending = []
        self._window_alarms = 0

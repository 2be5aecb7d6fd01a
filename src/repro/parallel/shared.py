"""Copy-on-write payload registry behind :func:`share`.

Workers never receive large payloads (feature matrices, fitted models)
through the task pipe. The parent registers them here *before* the pool
forks, the workers inherit the registry through ``fork`` copy-on-write
memory, and tasks carry a pickle-cheap :class:`SharedPayload` token.
"""

from __future__ import annotations

import itertools
from contextlib import contextmanager
from typing import Any, Iterator

__all__ = ["SharedPayload", "StalePayloadError", "in_worker", "mark_worker", "share"]

#: token -> payload. Forked workers see a copy-on-write snapshot.
_REGISTRY: dict[int, Any] = {}
_TOKENS = itertools.count()
#: True inside pool workers (set by the pool initializer at fork).
_IN_WORKER = False


def mark_worker() -> None:
    global _IN_WORKER
    _IN_WORKER = True


def in_worker() -> bool:
    return _IN_WORKER


class StalePayloadError(RuntimeError):
    """A :class:`SharedPayload` handle used outside its ``share()``
    context, or in a pool that forked before the payload was shared."""

    def __init__(self, name: str):
        self.payload_name = name
        super().__init__(
            f"shared payload {name!r} is not registered in this process: "
            "it was released when its share() context exited, or the pool "
            "forked before it was shared"
        )

    def __reduce__(self):  # rebuilt from the name when a worker raises it
        return (StalePayloadError, (self.payload_name,))


class SharedPayload:
    """Pickle-cheap handle to data registered with :func:`share`; only
    the token and name cross process boundaries."""

    __slots__ = ("token", "name")

    def __init__(self, token: int, name: str = "payload"):
        self.token = token
        self.name = name

    def get(self) -> Any:
        try:
            return _REGISTRY[self.token]
        except KeyError:
            raise StalePayloadError(self.name) from None


@contextmanager
def share(payload: Any, name: str | None = None) -> Iterator[SharedPayload]:
    """Register ``payload`` for fork-inherited hand-off to workers.

    Open it before the pool forks — ``with share(x) as handle,
    ParallelExecutor(n) as executor:`` does — and keep the handle inside.
    """
    token = next(_TOKENS)
    _REGISTRY[token] = payload
    try:
        yield SharedPayload(token, name or type(payload).__name__)
    finally:
        del _REGISTRY[token]

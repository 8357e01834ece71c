"""Stream sinks: terminal consumers of acquired crowdsensed streams.

Sinks subscribe to a stream and either collect, count, or hand tuples to a
callback.  The fabricated MCDS a query receives is exposed to users through
a :class:`CollectingSink` (or the result buffers in :mod:`repro.storage`).
"""

from __future__ import annotations

from typing import Callable, List, Optional

from .stream import Stream
from .tuples import SensorTuple


class CollectingSink:
    """Collects every tuple pushed to it, preserving arrival order."""

    def __init__(self, name: str = "collector") -> None:
        self._name = name
        self._items: List[SensorTuple] = []

    @property
    def name(self) -> str:
        """The sink's name."""
        return self._name

    @property
    def items(self) -> List[SensorTuple]:
        """All collected tuples (arrival order)."""
        return list(self._items)

    def __len__(self) -> int:
        return len(self._items)

    def __call__(self, item: SensorTuple) -> None:
        self._items.append(item)

    def attach(self, stream: Stream) -> "CollectingSink":
        """Subscribe to a stream; returns self for chaining."""
        stream.subscribe(self)
        return self

    def clear(self) -> None:
        """Drop everything collected so far."""
        self._items.clear()


class CountingSink:
    """Counts tuples without retaining them (cheap, for benchmarks)."""

    def __init__(self, name: str = "counter") -> None:
        self._name = name
        self._count = 0
        self._last_timestamp: Optional[float] = None

    @property
    def count(self) -> int:
        """Number of tuples seen."""
        return self._count

    @property
    def last_timestamp(self) -> Optional[float]:
        """Timestamp of the most recent tuple, if any."""
        return self._last_timestamp

    def __call__(self, item: SensorTuple) -> None:
        self._count += 1
        self._last_timestamp = item.t

    def attach(self, stream: Stream) -> "CountingSink":
        """Subscribe to a stream; returns self for chaining."""
        stream.subscribe(self)
        return self


class CallbackSink:
    """Forwards every tuple to a user callback."""

    def __init__(self, callback: Callable[[SensorTuple], None], name: str = "callback") -> None:
        self._name = name
        self._callback = callback
        self._count = 0

    @property
    def count(self) -> int:
        """Number of tuples forwarded."""
        return self._count

    def __call__(self, item: SensorTuple) -> None:
        self._count += 1
        self._callback(item)

    def attach(self, stream: Stream) -> "CallbackSink":
        """Subscribe to a stream; returns self for chaining."""
        stream.subscribe(self)
        return self

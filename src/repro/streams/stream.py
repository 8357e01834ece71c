"""Streams: named edges of the execution topology.

A :class:`Stream` connects the output of one operator to the inputs of zero
or more downstream operators.  Streams are push-based: whoever produces a
tuple calls :meth:`Stream.push` and the stream forwards the tuple to every
subscriber synchronously.  Each stream keeps lightweight statistics
(tuple counts, last timestamp) used by metrics and benches.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional

from ..errors import StreamError
from .tuples import SensorTuple

Subscriber = Callable[[SensorTuple], None]


@dataclass
class StreamStats:
    """Running statistics of a stream."""

    tuples_pushed: int = 0
    last_timestamp: Optional[float] = None
    first_timestamp: Optional[float] = None

    def record(self, item: SensorTuple) -> None:
        """Update statistics for one pushed tuple."""
        self.tuples_pushed += 1
        if self.first_timestamp is None:
            self.first_timestamp = item.t
        self.last_timestamp = item.t


class Stream:
    """A named, push-based channel of :class:`SensorTuple` values."""

    def __init__(self, name: str) -> None:
        if not name:
            raise StreamError("a stream needs a non-empty name")
        self._name = name
        self._subscribers: List[Subscriber] = []
        self._stats = StreamStats()
        self._closed = False

    # ------------------------------------------------------------------
    @property
    def name(self) -> str:
        """The stream's name (used in topology descriptions)."""
        return self._name

    @property
    def stats(self) -> StreamStats:
        """Statistics accumulated so far."""
        return self._stats

    # ------------------------------------------------------------------
    def subscribe(self, subscriber: Subscriber) -> None:
        """Attach a subscriber that will receive every future tuple."""
        if self._closed:
            raise StreamError(f"cannot subscribe to closed stream '{self._name}'")
        self._subscribers.append(subscriber)

    def unsubscribe(self, subscriber: Subscriber) -> None:
        """Detach a previously attached subscriber."""
        try:
            self._subscribers.remove(subscriber)
        except ValueError:
            raise StreamError(
                f"subscriber not attached to stream '{self._name}'"
            ) from None

    def push(self, item: SensorTuple) -> None:
        """Push one tuple to every subscriber (synchronously, in order)."""
        if self._closed:
            raise StreamError(f"cannot push to closed stream '{self._name}'")
        self._stats.record(item)
        for subscriber in list(self._subscribers):
            subscriber(item)

    def push_many(self, items) -> int:
        """Push an iterable of tuples; returns how many were pushed."""
        count = 0
        for item in items:
            self.push(item)
            count += 1
        return count

    def close(self) -> None:
        """Close the stream; further pushes raise :class:`StreamError`."""
        self._closed = True
        self._subscribers.clear()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Stream({self._name!r}, pushed={self._stats.tuples_pushed})"

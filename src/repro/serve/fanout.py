"""Serialize-once fan-out of deliveries and view frames.

The engine side of the push path, deliberately free of asyncio so it
runs with thousands of queues and no sockets (``tests/serve/test_fanout.py``
does):

* :class:`SubscriberQueue` — one subscriber's bounded send queue with a
  declared backpressure policy: ``"skip"`` drops the oldest pending event
  to make room (the skipped count is reported on the next event the
  subscriber does receive), ``"disconnect"`` marks the queue overflowed
  so the transport layer can drop the client.  A queue that has an owner
  puts itself on the owner's *ready* deque when it turns non-empty, so
  the owner finds its next event without scanning its subscriptions.
* :class:`FrameFanout` — per-target *topics*.  A topic owns one shared
  frontier cursor over the target's buffer (a tail
  :class:`~repro.views.FrameCursor` for views, a tail
  :class:`~repro.storage.ResultCursor` for query deliveries);
  :meth:`FrameFanout.publish` fetches what is new since the last publish
  **once**, encodes each frame/batch **once** through
  :mod:`repro.streams.codec` and its header **once** as an
  :class:`~repro.serve.protocol.EventHeader`, and offers the same
  immutable header and ``bytes`` objects to every subscriber queue by
  reference.  Per-frame publish cost is therefore one encode + N queue
  appends — flat in N until the appends themselves dominate — and
  unsubscribing one queue or collecting the overflowed ones touches no
  other queue.

Because the whole serving layer is single-threaded, a subscriber that
joins with a resume token gets its backlog (token position up to the
topic frontier) drained into its own queue first and then sees exactly
the frontier events everyone else sees: every delivery/frame arrives
exactly once, no gaps, no duplicates — the reconnect contract.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, List, Optional, Tuple

from ..errors import ServeError
from ..streams.codec import encode_tuple_batch, encode_view_frame
from .protocol import EventHeader
from .tokens import (
    frame_cursor_from_token,
    frame_token_at,
    result_cursor_from_token,
    result_token,
)

__all__ = ["SubscriberQueue", "FrameFanout", "BACKPRESSURE_POLICIES"]

#: The declared backpressure policies a subscription can pick.
BACKPRESSURE_POLICIES = ("skip", "disconnect")

#: Default per-subscriber queue capacity (events, not bytes).
DEFAULT_QUEUE_EVENTS = 64


class SubscriberQueue:
    """One subscriber's bounded send queue.

    Events are ``(header, payload)`` pairs — a small dict plus a shared
    immutable ``bytes`` payload.  The queue never blocks a producer: at
    capacity the declared policy either drops the oldest pending event
    (``"skip"``, counting it) or flags the queue ``overflowed``
    (``"disconnect"``) so the transport drops the client.  ``tag`` is an
    opaque owner hook (the server stores its session/subscription id
    there; the benchmarks leave it ``None``).  ``ready`` is the owner's
    deque of non-empty queues: the queue appends itself when it goes from
    empty to non-empty, and the owner re-appends it after a :meth:`pop`
    that left events behind (no owner, no deque).
    """

    __slots__ = (
        "capacity", "policy", "tag", "ready", "skipped", "overflowed", "_events",
    )

    def __init__(
        self,
        *,
        capacity: int = DEFAULT_QUEUE_EVENTS,
        policy: str = "skip",
        tag=None,
        ready: Optional[deque] = None,
    ) -> None:
        if capacity <= 0:
            raise ServeError("a subscriber queue needs a positive capacity")
        if policy not in BACKPRESSURE_POLICIES:
            raise ServeError(
                f"unknown backpressure policy {policy!r}; pick one of "
                f"{'/'.join(BACKPRESSURE_POLICIES)}"
            )
        self.capacity = capacity
        self.policy = policy
        self.tag = tag
        self.ready = ready
        #: events dropped by the ``skip`` policy since the last delivery.
        self.skipped = 0
        #: set once by the ``disconnect`` policy; the queue stops accepting.
        self.overflowed = False
        self._events: deque = deque()

    def __len__(self) -> int:
        return len(self._events)

    def offer(self, header: dict, payload: bytes) -> bool:
        """Enqueue one event; ``False`` once the queue is overflowed."""
        if self.overflowed:
            return False
        events = self._events
        if not events:
            if self.ready is not None:
                self.ready.append(self)
        elif len(events) >= self.capacity:
            if self.policy == "skip":
                events.popleft()
                self.skipped += 1
            else:
                self.overflowed = True
                return False
        events.append((header, payload))
        return True

    def pop(self) -> Optional[Tuple[dict, bytes]]:
        """Dequeue the oldest pending event (``None`` when empty).

        Skipped-event counts accumulated since the last delivery are
        attached to the returned header (``"skipped"``) and reset, so a
        lagging ``skip`` subscriber always learns how much it lost.
        """
        if not self._events:
            return None
        header, payload = self._events.popleft()
        if self.skipped:
            if isinstance(header, EventHeader):
                header = header.with_skipped(self.skipped)
            else:
                header = dict(header, skipped=self.skipped)
            self.skipped = 0
        return header, payload

    def close(self) -> None:
        """Drop what is pending and leave the owner's ready deque.

        The deque may still hold this queue once; the owner discards it
        there when :meth:`pop` returns ``None``.
        """
        self._events.clear()
        self.ready = None


class _Topic:
    """Shared frontier state of one fan-out target."""

    __slots__ = ("kind", "buffer", "cursor", "queues")

    def __init__(self, kind: str, buffer, cursor) -> None:
        self.kind = kind  # "view" | "query"
        self.buffer = buffer
        self.cursor = cursor
        #: subscriber queues in subscription order (a dict as ordered set,
        #: so one queue leaves without a pass over the others).
        self.queues: Dict[SubscriberQueue, None] = {}


class FrameFanout:
    """Fan deliveries and closed view frames out to subscriber queues.

    Single-threaded by construction: :meth:`publish`, the subscribe
    methods and the queue drains must all run on the serving thread.
    """

    def __init__(self) -> None:
        self._topics: Dict[Tuple[str, object], _Topic] = {}
        #: queue -> key of the one topic it is attached to.
        self._topic_of: Dict[SubscriberQueue, Tuple[str, object]] = {}
        #: attached queues whose ``disconnect`` policy refused an offer.
        self._overflowed: Dict[SubscriberQueue, None] = {}

    # ------------------------------------------------------------------
    @property
    def subscriber_count(self) -> int:
        """Live subscriber queues across all topics."""
        return len(self._topic_of)

    def _topic(self, key: Tuple[str, object], buffer) -> _Topic:
        topic = self._topics.get(key)
        if topic is None:
            cursor = buffer.cursor(tail=True)
            topic = _Topic(key[0], buffer, cursor)
            self._topics[key] = topic
        return topic

    # ------------------------------------------------------------------
    def subscribe_view(
        self,
        name: str,
        buffer,
        queue: SubscriberQueue,
        *,
        token: Optional[str] = None,
    ) -> str:
        """Attach one queue to a view's frame stream.

        With ``token``, the backlog between the token position and the
        topic frontier is drained into this queue first (per-subscriber
        encodes — the steady-state fan-out stays serialize-once), so the
        subscriber resumes exactly once.  Returns the queue's current
        resume token.
        """
        key = ("view", name)
        topic = self._topic(key, buffer)
        # Catch the shared frontier up first so the backlog boundary is
        # exact even if frames closed since the last publish.
        self._publish_topic(key, topic)
        position = topic.cursor.position
        if token is not None:
            start = frame_cursor_from_token(buffer, token).position
            if start > buffer.frames_emitted:
                raise ServeError(
                    f"offset token points at frame {start}, but view {name!r} "
                    f"has only emitted {buffer.frames_emitted}"
                )
            for index in range(start, position):
                frame = buffer.frame(index)  # StorageError when evicted
                self._offer(queue, *_frame_event(name, frame))
        self._attach(key, topic, queue)
        return frame_token_after(position - 1)

    def subscribe_query(
        self,
        label: str,
        buffer,
        queue: SubscriberQueue,
        *,
        token: Optional[str] = None,
    ) -> str:
        """Attach one queue to a query's delivery stream (see above)."""
        key = ("query", label)
        topic = self._topic(key, buffer)
        self._publish_topic(key, topic)
        if token is not None:
            cursor = result_cursor_from_token(buffer, token)
            batch = cursor.fetch_batch()  # StorageError when evicted
            if len(batch):
                self._offer(queue, *_batch_event(label, batch, cursor))
        self._attach(key, topic, queue)
        return result_token(topic.cursor)

    def _offer(self, queue: SubscriberQueue, header: EventHeader, payload: bytes) -> None:
        """Offer one backlog event (the publish loops inline this)."""
        if not queue.offer(header, payload):
            self._overflowed[queue] = None

    def _attach(self, key: Tuple[str, object], topic: _Topic, queue: SubscriberQueue) -> None:
        topic.queues[queue] = None
        self._topic_of[queue] = key

    def unsubscribe(self, queue: SubscriberQueue) -> None:
        """Detach one queue and drop what it still holds.

        Touches the queue's own topic only; a topic left without
        subscribers is dismantled.
        """
        self._overflowed.pop(queue, None)
        key = self._topic_of.pop(queue, None)
        if key is None:
            return
        queue.close()
        topic = self._topics[key]
        del topic.queues[queue]
        if not topic.queues:
            del self._topics[key]

    # ------------------------------------------------------------------
    def _publish_topic(self, key: Tuple[str, object], topic: _Topic) -> int:
        """Fan one topic's new items out; returns events published."""
        events = 0
        overflowed = self._overflowed
        if topic.kind == "view":
            name = key[1]
            for frame in topic.cursor.fetch():
                header, payload = _frame_event(name, frame)  # encoded ONCE
                for queue in topic.queues:
                    if not queue.offer(header, payload):
                        overflowed[queue] = None
                events += 1
        else:
            label = key[1]
            batch = topic.cursor.fetch_batch()
            if len(batch):
                header, payload = _batch_event(label, batch, topic.cursor)  # ONCE
                for queue in topic.queues:
                    if not queue.offer(header, payload):
                        overflowed[queue] = None
                events += 1
        return events

    def publish(self) -> int:
        """Fan out everything new since the last publish (all topics).

        Called once per engine batch; the cost is one fetch + one encode
        per new frame/batch plus a queue append per subscriber.  Returns
        the number of events published (before per-queue skips).
        """
        events = 0
        for key, topic in list(self._topics.items()):
            events += self._publish_topic(key, topic)
        return events

    def overflowed_queues(self) -> List[SubscriberQueue]:
        """Attached queues the ``disconnect`` policy has flagged.

        Collected where an offer is refused, so this costs the number of
        overflowed queues, not the audience.
        """
        return list(self._overflowed)


def frame_token_after(frame_index: int) -> str:
    """The resume token for the position just past one frame."""
    return frame_token_at(frame_index + 1)


def _frame_event(name: str, frame) -> Tuple[EventHeader, bytes]:
    """One closed frame as a push event, header and payload encoded."""
    header = EventHeader(
        {
            "event": "frame",
            "view": name,
            "frame_index": frame.frame_index,
            "token": frame_token_after(frame.frame_index),
        }
    )
    return header, encode_view_frame(frame)


def _batch_event(label: str, batch, cursor) -> Tuple[EventHeader, bytes]:
    """One delivery batch as a push event; ``cursor`` sits just past it."""
    header = EventHeader(
        {
            "event": "batch",
            "query": label,
            "count": len(batch),
            "token": result_token(cursor),
        }
    )
    return header, encode_tuple_batch(batch)

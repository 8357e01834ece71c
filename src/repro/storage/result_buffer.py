"""Per-query result buffers and the session-consumption surface over them.

Each registered acquisitional query gets a :class:`QueryResultBuffer` that
accumulates its fabricated crowdsensed data stream, batch by batch, and
counts what arrived: tuples per batch and over a window of batches, from
which the query's handle computes the achieved rate against the query's
own requested rate and area (:class:`RateEstimate`).

The buffer ingests whole :class:`~repro.streams.TupleBatch` columns
(:meth:`QueryResultBuffer.extend_batch`) and stores each delivery as one
immutable chunk, its columns flagged read-only.  Individual
:class:`SensorTuple` objects are only materialised — as copies, storage is
never rewritten — when an object-level accessor such as
:meth:`QueryResultBuffer.items` or :meth:`ResultCursor.fetch` asks for
them.

Three consumption surfaces sit on top of the chunk list:

* :meth:`QueryResultBuffer.items` / :meth:`QueryResultBuffer.values` — the
  classic whole-history accessors (cost grows with retained history).
* :meth:`QueryResultBuffer.cursor` — a resumable :class:`ResultCursor` that
  reads only the chunks appended since its last read, in object *or*
  columnar form, so a polling consumer pays O(new tuples) per read.
* :meth:`QueryResultBuffer.subscribe` — push :class:`Subscription` callbacks
  invoked once per completed batch with the batch's delivered tuples as one
  :class:`~repro.streams.TupleBatch`.

With ``retention_batches`` set, chunks older than the retention window are
evicted at every batch end while the lifetime accounting
(:attr:`QueryResultBuffer.total_tuples`, the whole-history achieved rate)
stays exact through running totals; a cursor that lags behind the window
raises :class:`~repro.errors.StorageError` on its next read.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator, List, Optional, Tuple

from ..errors import StorageError
from ..streams import (
    SensorTuple,
    TupleBatch,
    pack_tuple_batches,
    unpack_tuple_batches,
)

#: Callback type of push subscriptions: receives one batch's deliveries.
SubscriberFn = Callable[[TupleBatch], None]


@dataclass(frozen=True)
class RateEstimate:
    """Achieved-rate summary over a span of batches."""

    tuples: int
    duration: float
    area: float
    achieved_rate: float
    requested_rate: float

    @property
    def relative_error(self) -> float:
        """``|achieved - requested| / requested``."""
        if self.requested_rate <= 0:
            return float("nan")
        return abs(self.achieved_rate - self.requested_rate) / self.requested_rate


def _freeze(batch: TupleBatch) -> None:
    """Make every column of a retained chunk read-only, in place (zero-copy).

    Reads hand out stored chunks themselves (a one-chunk fetch, every
    subscriber of a batch), so a consumer writing into one would rewrite
    retained history.
    """
    for column in (
        batch.t, batch.x, batch.y, batch.value, batch.sensor_id, batch.tuple_id,
        *batch.extra.values(),
    ):
        column.flags.writeable = False


def _materialise(chunks: List[TupleBatch]) -> List[SensorTuple]:
    """Fresh tuple objects for the rows of ``chunks``, in order."""
    items: List[SensorTuple] = []
    for chunk in chunks:
        items.extend(chunk.to_tuples())
    return items


class ResultCursor:
    """A resumable read position over one query's result buffer.

    A cursor remembers which chunk it has consumed up to; every read
    returns only what arrived since and advances the position.  Reads are
    backed by the buffer's chunk list directly, so their cost is
    proportional to the *new* tuples, independent of how much history the
    buffer retains.  Chunks are whole deliveries and never grow, so a read
    always ends past the last chunk and a position never points inside one.

    Two read forms share one position:

    * :meth:`fetch` — the new tuples as :class:`SensorTuple` objects (the
      cursor is also iterable: ``for item in cursor`` drains what is
      currently pending).
    * :meth:`fetch_batch` — the new tuples as one columnar
      :class:`TupleBatch`; no tuple object is materialised.

    When the buffer evicts chunks the cursor has not consumed yet
    (``retention_batches``), the next read raises :class:`StorageError`
    naming how far behind the cursor fell.
    """

    __slots__ = ("_buffer", "_chunk_seq", "_global")

    def __init__(self, buffer: "QueryResultBuffer", chunk_seq: int, global_index: int) -> None:
        self._buffer = buffer
        self._chunk_seq = chunk_seq
        self._global = global_index

    # ------------------------------------------------------------------
    @property
    def buffer(self) -> "QueryResultBuffer":
        """The buffer this cursor reads from."""
        return self._buffer

    @property
    def position(self) -> Tuple[int, int]:
        """The ``(chunk sequence, row)`` position the cursor has consumed up to.

        ``row`` is always 0 — reads consume whole chunks, so offset tokens
        carry the chunk sequence alone.
        """
        return (self._chunk_seq, 0)

    @property
    def consumed(self) -> int:
        """Tuples the cursor has consumed (including any skipped at creation)."""
        return self._global

    @property
    def pending(self) -> int:
        """Tuples delivered to the buffer but not yet read through this cursor."""
        return self._buffer.total_tuples - self._global

    # ------------------------------------------------------------------
    def fetch(self) -> List[SensorTuple]:
        """The tuples appended since the last read, as objects (advances)."""
        return _materialise(self._advance())

    def fetch_batch(self) -> TupleBatch:
        """The tuples appended since the last read, as one columnar batch.

        Returns an empty batch when nothing is pending.  A read of one
        chunk returns the stored chunk itself (read-only columns), without
        copying.
        """
        return TupleBatch.concatenate(self._advance())

    def __iter__(self) -> Iterator[SensorTuple]:
        """Drain the currently pending tuples as an object iterator."""
        return iter(self.fetch())

    # ------------------------------------------------------------------
    def _advance(self) -> List[TupleBatch]:
        """Collect the chunks past the position and advance past them."""
        chunks, self._chunk_seq = self._buffer._chunks_from(
            self._chunk_seq, consumed=self._global
        )
        self._global += sum(len(chunk) for chunk in chunks)
        return chunks


class Subscription:
    """A push subscription on a result buffer (see :meth:`QueryResultBuffer.subscribe`)."""

    __slots__ = ("_buffer", "_fn")

    def __init__(self, buffer: "QueryResultBuffer", fn: SubscriberFn) -> None:
        self._buffer = buffer
        self._fn = fn

    @property
    def active(self) -> bool:
        """Whether the subscription still receives callbacks."""
        return self._fn is not None and self._fn in self._buffer._subscribers

    def cancel(self) -> None:
        """Stop receiving callbacks (idempotent)."""
        if self._fn is not None:
            try:
                self._buffer._subscribers.remove(self._fn)
            except ValueError:
                pass
            self._fn = None


class QueryResultBuffer:
    """Accumulates the fabricated MCDS of one query.

    Parameters
    ----------
    query_id:
        Id of the owning query.
    retention_batches:
        Optional cap on retained *batches*: at every :meth:`end_batch` the
        chunks of batches older than the window are evicted wholesale (a
        chunk never spans a batch boundary).  Lifetime accounting survives
        eviction exactly (running totals); only windowed reads beyond the
        retained history raise :class:`StorageError`.
    """

    #: Runtime wiring __getstate__ deliberately drops from checkpoints;
    #: craqr-lint (CRQ302) checks this declaration against the exclusions.
    _DERIVED_STATE = ("_subscribers", "_notify_cursor")

    def __init__(
        self,
        query_id: int,
        *,
        retention_batches: Optional[int] = None,
    ) -> None:
        if retention_batches is not None and retention_batches <= 0:
            raise StorageError("retention_batches must be positive or None")
        self._query_id = query_id
        self._retention = retention_batches
        #: one immutable chunk per delivery; never grown, split or rewritten.
        self._chunks: List[TupleBatch] = []
        #: global sequence number of ``_chunks[0]`` (chunks ever created
        #: before it); lets cursor positions survive front eviction.
        self._chunk_base = 0
        #: retained per-batch counts (the newest ``retention_batches`` when
        #: retention is on, the whole history otherwise) ...
        self._per_batch_counts: List[int] = []
        #: ... with, per retained batch, the chunk sequence *after* it.
        self._batch_bounds: List[int] = []
        self._batches_completed = 0
        self._completed_total = 0
        self._current_batch = 0
        self._total = 0
        self._evicted = 0
        self._subscribers: List[SubscriberFn] = []
        self._notify_cursor: Optional[ResultCursor] = None

    def __getstate__(self):
        # Push subscribers are user callbacks that cannot — and must not —
        # survive a checkpoint: user code re-subscribes its own after a
        # restore (views are no subscribers; the engine folds them).  The
        # shared notify cursor is recreated at the tail lazily on the next
        # subscribe(); checkpoints are taken at batch boundaries, where the
        # tail cursor carries no pending tuples.  The retained chunks go
        # in as one columnar block per layout, not one reduce per chunk.
        state = dict(self.__dict__)
        state["_subscribers"] = []
        state["_notify_cursor"] = None
        state["_chunks"] = pack_tuple_batches(self._chunks)
        return state

    def __setstate__(self, state) -> None:
        self.__dict__.update(state)
        self._chunks = unpack_tuple_batches(state["_chunks"])
        for chunk in self._chunks:
            _freeze(chunk)

    # ------------------------------------------------------------------
    @property
    def query_id(self) -> int:
        """Id of the query this buffer belongs to."""
        return self._query_id

    @property
    def retention_batches(self) -> Optional[int]:
        """The retention window in batches (``None`` keeps everything)."""
        return self._retention

    @property
    def total_tuples(self) -> int:
        """All tuples delivered since registration (survives eviction)."""
        return self._total

    @property
    def evicted_tuples(self) -> int:
        """Tuples evicted by retention."""
        return self._evicted

    @property
    def batches_completed(self) -> int:
        """Completed batches since registration (survives eviction)."""
        return self._batches_completed

    @property
    def per_batch_counts(self) -> List[int]:
        """Tuples delivered in each *retained* completed batch."""
        return list(self._per_batch_counts)

    def __len__(self) -> int:
        return self._total - self._evicted

    # ------------------------------------------------------------------
    def extend_batch(self, batch: TupleBatch) -> None:
        """Deliver a whole columnar batch of the query's stream.

        The batch is retained as one chunk, its columns made read-only in
        place — no tuple objects are created until an object-level accessor
        asks for copies.
        """
        count = len(batch)
        if count == 0:
            return
        _freeze(batch)
        self._chunks.append(batch)
        self._total += count
        self._current_batch += count

    def end_batch(self) -> int:
        """Close the current batch; returns the number of tuples it delivered.

        Push subscriptions fire here (once per batch, with the batch's
        deliveries as one :class:`TupleBatch`), then chunks older than the
        retention window are evicted.
        """
        count = self._current_batch
        self._per_batch_counts.append(count)
        self._batch_bounds.append(self._chunk_base + len(self._chunks))
        self._batches_completed += 1
        self._completed_total += count
        self._current_batch = 0
        self._notify_subscribers()
        if self._retention is not None:
            while len(self._per_batch_counts) > self._retention:
                self._per_batch_counts.pop(0)
                bound = self._batch_bounds.pop(0)
                while self._chunk_base < bound and self._chunks:
                    self._evicted += len(self._chunks.pop(0))
                    self._chunk_base += 1
        return count

    # ------------------------------------------------------------------
    # Incremental consumption
    # ------------------------------------------------------------------
    def cursor(self, *, tail: bool = False) -> ResultCursor:
        """A resumable cursor over the buffer's stream.

        ``tail=False`` (default) starts at the beginning of the *retained*
        history, so the first read catches the consumer up; ``tail=True``
        starts past everything already delivered, so only future deliveries
        are returned.
        """
        if tail:
            return ResultCursor(self, self._chunk_base + len(self._chunks), self._total)
        return ResultCursor(self, self._chunk_base, self._evicted)

    def subscribe(self, fn: SubscriberFn) -> Subscription:
        """Register a push callback invoked once per completed batch.

        The callback receives the batch's deliveries as one
        :class:`TupleBatch` (empty batches do not fire), shared by every
        subscriber and, for a one-chunk batch, the stored chunk itself,
        whose columns are read-only.  Returns a
        :class:`Subscription` whose :meth:`~Subscription.cancel` detaches
        the callback.
        """
        if not callable(fn):
            raise StorageError("a subscriber must be callable")
        if self._notify_cursor is None:
            self._notify_cursor = self.cursor(tail=True)
        self._subscribers.append(fn)
        return Subscription(self, fn)

    def _notify_subscribers(self) -> None:
        cursor = self._notify_cursor
        if cursor is None:
            return
        if not self._subscribers:
            # Keep the shared cursor at the tail so it never falls behind
            # the retention window while nobody is subscribed.
            self._notify_cursor = self.cursor(tail=True)
            return
        batch = cursor.fetch_batch()
        if len(batch) == 0:
            return
        for fn in list(self._subscribers):
            fn(batch)

    def _chunks_from(
        self, chunk_seq: int, *, consumed: int
    ) -> Tuple[List[TupleBatch], int]:
        """The chunks from sequence ``chunk_seq`` on; used by cursors.

        Returns ``(chunks, next_chunk_seq)``.  Raises :class:`StorageError`
        when the position points below the retained history (the chunks
        were evicted before being read) or past the next chunk.
        ``consumed`` is the cursor's lifetime tuple count, reported in the
        eviction error.
        """
        next_seq = self._chunk_base + len(self._chunks)
        if chunk_seq < self._chunk_base:
            first_retained = self._batches_completed - len(self._per_batch_counts)
            raise StorageError(
                f"cursor position has been evicted: the cursor was at chunk "
                f"{chunk_seq}, but the buffer retains chunks from sequence "
                f"{self._chunk_base} onwards — batches "
                f"{first_retained}..{self._batches_completed - 1} "
                f"of {self._batches_completed} completed "
                f"(retention_batches={self._retention}, {self._evicted} of "
                f"{self._total} lifetime tuples evicted); the cursor is "
                f"{self._evicted - consumed} tuples behind the oldest retained "
                f"row; open a fresh cursor() to resume from the retained history"
            )
        if chunk_seq > next_seq:
            raise StorageError(
                f"cursor position (chunk {chunk_seq}) is ahead of the buffer "
                f"(next chunk is {next_seq})"
            )
        return self._chunks[chunk_seq - self._chunk_base:], next_seq

    # ------------------------------------------------------------------
    def items(self) -> List[SensorTuple]:
        """The retained tuples, oldest first, as fresh objects.

        Materialises the whole retained history from the columns on every
        call and leaves storage untouched; a polling consumer should read
        through :meth:`cursor` instead.
        """
        return _materialise(self._chunks)

    def values(self) -> List:
        """The sensed values of the retained tuples."""
        values: List = []
        for chunk in self._chunks:
            values.extend(chunk.value.tolist())
        return values

    def tuples_over_batches(self, last: Optional[int] = None) -> Tuple[int, int]:
        """``(tuples, batches)`` over the most recent ``last`` completed batches.

        ``last=None`` means the whole history; an explicit ``last`` must be
        positive (``last=0`` used to slice ``[-0:]``, silently reporting the
        lifetime count instead of an empty window).  The whole-history
        count stays exact under retention (running totals survive
        eviction); a windowed ``last`` larger than the retained window
        raises :class:`StorageError`.
        """
        if last is not None and last <= 0:
            raise StorageError("last must be positive (or None for the whole history)")
        if self._batches_completed == 0:
            raise StorageError("no completed batches yet")
        if last is None or last >= self._batches_completed:
            return self._completed_total, self._batches_completed
        if last > len(self._per_batch_counts):
            first_retained = self._batches_completed - len(self._per_batch_counts)
            raise StorageError(
                f"cannot window over the last {last} batches: only the last "
                f"{len(self._per_batch_counts)} batch counts are retained — "
                f"batches {first_retained}..{self._batches_completed - 1} of "
                f"{self._batches_completed} completed "
                f"(retention_batches={self._retention}); use last=None for "
                f"the exact lifetime rate"
            )
        return sum(self._per_batch_counts[-last:]), last

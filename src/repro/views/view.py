"""Incremental maintenance of continuous views over live query sessions.

A :class:`ContinuousView` attaches to one query's delivery stream through
the session subscription path (:meth:`QueryHandle.subscribe
<repro.core.engine.QueryHandle.subscribe>`): once per engine batch it
receives the batch's deliveries as one columnar
:class:`~repro.streams.TupleBatch` and folds them into per-group partial
aggregates — one ``lexsort`` buckets the batch by (pane, group), segment
boundaries come from one vectorised ``diff``, per-group tuple counts are
the segment lengths (``np.bincount`` over panes gives the same numbers),
and each group's value slice is reduced with the aggregate's ufunc
(``np.add.reduce`` / ``np.minimum.reduce`` / a sketch extend).  History is
never rescanned: the cost of maintaining a view is O(tuples in the new
batch + groups touched), independent of how many frames it has emitted.

Windows decompose into *panes* of one slide each (tumbling views have one
pane per window).  The engine advances the view's clock at every batch end
(:meth:`ContinuousView.advance_to`); each pane whose end time passes closes,
and once the trailing ``window/slide`` panes of a window have all closed
their partials merge into one immutable :class:`~repro.views.frames.ViewFrame`.
Because frame boundaries are aligned to batch boundaries and a tuple's
timestamp is never earlier than its batch's window start, a closed frame can
never receive late data.

Lifecycle notes:

* **pause/resume** — a paused query delivers nothing, but sim time keeps
  moving: windows covering the paused span close as empty frames (zero
  groups), so the frame sequence stays gap-free and timestamps stay
  truthful.
* **ALTER SET REGION / SET RATE** — groups are data-driven: cells vacated
  by an ALTER simply stop appearing in later frames, newly covered cells
  appear as soon as they deliver; a frame straddling the ALTER contains
  both.
* **retention** — the view's frame buffer keeps the frames that closed
  within the engine's ``retention_batches`` window (at least one); lifetime
  totals survive eviction exactly.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Optional

import numpy as np

from ..errors import ViewError
from ..streams import TupleBatch
from .aggregates import Aggregate, get_aggregate
from .frames import FrameCursor, ViewFrame, ViewFrameBuffer
from .spec import ViewSpec

#: Relative tolerance for pane-close clock comparisons.
_REL_TOL = 1e-9


class SharedSortCache:
    """One (pane, group) lexsort shared by every view on a query.

    All views on one query receive the *same* :class:`TupleBatch` object
    per engine batch (the result buffer fires one concatenated batch to
    every subscriber), so views that agree on ``(slide, group_by)`` compute
    identical ``pane_ids`` / group codes / sort orders.  The compiled plan
    path installs one cache per query; the first view with a given
    signature computes and stores the sorted arrays, later views reuse them
    (a byte-identical skip of the grid lookups and the lexsort).

    Entries are keyed by signature and validated against the batch by
    identity, so the cache never needs explicit per-batch invalidation.
    Runtime wiring only — it is nulled out of view checkpoints and
    reinstalled by the engine after restore.
    """

    def __init__(self) -> None:
        self._entries: Dict[tuple, tuple] = {}
        #: lifetime reuse counters (asserted by the plan equivalence tests)
        self.hits = 0
        self.misses = 0

    def lookup(self, signature: tuple, batch: TupleBatch):
        """The cached ``(order, pane_sorted, code_sorted)`` for this exact batch."""
        entry = self._entries.get(signature)
        if entry is not None and entry[0] is batch:
            self.hits += 1
            return entry[1]
        self.misses += 1
        return None

    def store(self, signature: tuple, batch: TupleBatch, arrays: tuple) -> None:
        """Remember one batch's sorted arrays under its signature."""
        self._entries[signature] = (batch, arrays)


@dataclass(frozen=True)
class ViewSessionInfo:
    """One row of :meth:`CraqrEngine.views` (the ``SHOW VIEWS`` output).

    ``active`` is ``False`` for a quarantined view — one whose fold raised
    and was detached by the engine — with ``error`` holding the message, so
    a dead view is visible in ``SHOW VIEWS`` rather than silently frozen.
    """

    name: str
    query_label: str
    query_id: int
    aggregate: str
    group_by: str
    window: float
    slide: float
    frames_emitted: int
    frames_retained: int
    tuples_total: int
    last_window_end: Optional[float]
    active: bool = True
    error: Optional[str] = None


class ContinuousView:
    """One continuously maintained windowed aggregate over a query stream."""

    #: Runtime wiring __getstate__ deliberately drops from checkpoints;
    #: craqr-lint (CRQ302) checks this declaration against the exclusions.
    _DERIVED_STATE = ("_subscription", "_shared_sort")

    def __init__(
        self,
        spec: ViewSpec,
        *,
        name: str,
        query_id: int,
        query_label: str,
        grid,
        batch_duration: float,
        retention_batches: Optional[int] = None,
        start_time: float = 0.0,
    ) -> None:
        slide_batches, _window_batches = spec.validate_alignment(batch_duration)
        self._spec = spec
        self._name = name
        self._query_id = query_id
        self._query_label = query_label
        self._grid = grid
        self._aggregate: Aggregate = get_aggregate(spec.aggregate)
        self._slide = spec.slide_duration
        self._panes_per_window = spec.panes_per_window
        retention_frames: Optional[int] = None
        if retention_batches is not None:
            # The frames that closed within the engine's retention window:
            # one frame closes per slide, so round up (never fewer than one).
            retention_frames = max(1, -(-retention_batches // slide_batches))
        self._buffer = ViewFrameBuffer(retention_frames=retention_frames)
        #: first pane fully covered since the view attached; earlier
        #: (partially observed) panes never contribute to a frame.
        self._first_pane = int(np.ceil(start_time / self._slide - _REL_TOL))
        self._next_pane = self._first_pane
        #: trailing closed panes of the window being assembled.
        self._recent_panes: Deque[Dict] = deque(maxlen=self._panes_per_window)
        #: open panes: pane index -> {group key: [partial state, count]}.
        self._open_panes: Dict[int, Dict] = {}
        self._subscription = None
        #: optional per-query shared lexsort cache (installed by the engine
        #: when compiled plans are on; plain runtime wiring otherwise).
        self._shared_sort: Optional[SharedSortCache] = None
        self._active = True
        self._error: Optional[Exception] = None

    # ------------------------------------------------------------------
    @property
    def spec(self) -> ViewSpec:
        """The view's declarative specification."""
        return self._spec

    @property
    def name(self) -> str:
        """The view's unique name (the ``CREATE VIEW <name>`` identifier)."""
        return self._name

    @property
    def query_id(self) -> int:
        """Id of the query the view consumes."""
        return self._query_id

    @property
    def query_label(self) -> str:
        """Label of the query the view consumes."""
        return self._query_label

    @property
    def buffer(self) -> ViewFrameBuffer:
        """The view's frame buffer (outlives DROP VIEW)."""
        return self._buffer

    @property
    def is_active(self) -> bool:
        """Whether the view is still being maintained."""
        return self._active

    # ------------------------------------------------------------------
    # Engine plumbing
    # ------------------------------------------------------------------
    def attach(self, subscription) -> None:
        """Remember the delivery subscription so DROP VIEW can cancel it."""
        self._subscription = subscription

    def accept(self, batch: TupleBatch) -> None:
        """The delivery-subscription callback: fold one batch, quarantined.

        Maintenance runs inside the engine's end-of-batch loop; a view
        whose fold raises (e.g. AVG over a non-numeric stream) is
        quarantined — detached with the error recorded — rather than
        aborting the batch for every other session.  A bound method so the
        engine re-attaches it identically after a checkpoint restore.
        """
        try:
            self.on_delivery(batch)
        except Exception as exc:  # noqa: BLE001 - quarantine any fold error
            self.fail(exc)

    def __getstate__(self):
        # The delivery subscription is runtime wiring into the query's
        # result buffer; checkpoint restore re-subscribes deterministically
        # (see CraqrEngine.restore), so it is never pickled.
        state = dict(self.__dict__)
        state["_subscription"] = None
        # The shared-sort cache is runtime wiring too (it holds live batch
        # references); the engine reinstalls it after restore.
        state["_shared_sort"] = None
        return state

    def detach(self) -> None:
        """Stop maintenance (frames stay readable); idempotent."""
        if self._subscription is not None:
            self._subscription.cancel()
            self._subscription = None
        self._active = False

    def fail(self, error: Exception) -> None:
        """Record a maintenance error and stop the view (frames stay readable).

        Maintenance runs inside the engine's batch loop; a view whose fold
        raises (e.g. a numeric aggregate over a stream with non-numeric
        values) must not abort the batch for every other query, so the
        engine quarantines it here instead of propagating.  The error is
        surfaced through :attr:`error` / :meth:`ViewHandle.error`.
        """
        self._error = error
        self.detach()

    @property
    def error(self) -> Optional[Exception]:
        """The maintenance error that stopped the view, if any."""
        return self._error

    # ------------------------------------------------------------------
    # Incremental maintenance
    # ------------------------------------------------------------------
    def on_delivery(self, batch: TupleBatch) -> None:
        """Fold one batch of delivered tuples into the open pane partials.

        This is the subscription callback: it runs once per engine batch
        with that batch's deliveries (batches that delivered nothing do not
        fire — pane and frame lifecycle is driven separately by
        :meth:`advance_to`, so quiet batches still close windows).
        """
        n = len(batch)
        if n == 0:
            return
        cache = getattr(self, "_shared_sort", None)
        signature = (self._slide, self._spec.group_by)
        if cache is not None:
            cached = cache.lookup(signature, batch)
            # Reuse is only sound when this view would neither filter
            # pre-origin tuples nor clamp any pane id — both hold exactly
            # when the earliest cached pane is at or past our next open
            # pane (pane_sorted is pane-major, so [0] is the minimum).
            if cached is not None and int(cached[1][0]) >= self._next_pane:
                order, pane_sorted, code_sorted = cached
                values_sorted = self._value_column(batch, order)
                self._fold_sorted(
                    batch, pane_sorted, code_sorted, values_sorted, n
                )
                return
        t = np.asarray(batch.t, dtype=np.float64)
        pane_ids = np.floor(t / self._slide + _REL_TOL).astype(np.int64)
        filtered = False
        if self._next_pane == self._first_pane:
            before = pane_ids < self._first_pane
            if before.any():
                # Tuples of the partially observed pane before the view's
                # origin: excluded so every emitted frame covers a fully
                # observed window.
                filtered = True
                keep = ~before
                batch = batch.select(keep)
                t = t[keep]
                pane_ids = pane_ids[keep]
                n = len(batch)
                if n == 0:
                    return
        # A tuple is never timestamped before its batch window, so panes
        # already closed cannot receive data; clamp defensively so a
        # malformed timestamp lands in the oldest open pane instead of
        # resurrecting a closed one.
        clamped = int(pane_ids.min()) < self._next_pane
        if clamped:
            np.maximum(pane_ids, self._next_pane, out=pane_ids)

        codes = self._group_codes(batch)
        order = np.lexsort((codes, pane_ids))
        pane_sorted = pane_ids[order]
        code_sorted = codes[order]
        values_sorted = self._value_column(batch, order)
        if cache is not None and not filtered and not clamped:
            cache.store(signature, batch, (order, pane_sorted, code_sorted))
        self._fold_sorted(batch, pane_sorted, code_sorted, values_sorted, n)

    def _fold_sorted(
        self,
        batch: TupleBatch,
        pane_sorted: np.ndarray,
        code_sorted: np.ndarray,
        values_sorted,
        n: int,
    ) -> None:
        """Fold one (pane, group)-sorted batch into the open pane partials."""
        if n == 1:
            boundaries = np.empty(0, dtype=np.int64)
        else:
            changed = (np.diff(pane_sorted) != 0) | (np.diff(code_sorted) != 0)
            boundaries = np.flatnonzero(changed) + 1
        starts = np.concatenate(([0], boundaries))
        ends = np.concatenate((boundaries, [n]))

        aggregate = self._aggregate
        for start, end in zip(starts, ends):  # craqr: ignore[CRQ402] - per (pane, group) run, rows folded vectorised
            pane = int(pane_sorted[start])
            key = self._key_for_code(int(code_sorted[start]), batch.attribute)
            states = self._open_panes.setdefault(pane, {})
            entry = states.get(key)
            if entry is None:
                entry = [aggregate.new_state(), 0]
                states[key] = entry
            count = int(end - start)
            values = (
                values_sorted[start:end]
                if values_sorted is not None
                else _EMPTY_VALUES
            )
            entry[0] = aggregate.fold(entry[0], values, count)
            entry[1] += count

    def advance_to(self, now: float) -> List[ViewFrame]:
        """Close every pane ending at or before ``now``; emit due frames.

        Called by the engine once per completed batch with the new sim
        time.  Returns the frames emitted by this call (usually zero or
        one; several after a long quiet stretch).
        """
        emitted: List[ViewFrame] = []
        tolerance = _REL_TOL * max(1.0, abs(now))
        while (self._next_pane + 1) * self._slide <= now + tolerance:
            pane_index = self._next_pane
            self._recent_panes.append(self._open_panes.pop(pane_index, {}))
            self._next_pane += 1
            window_start_pane = pane_index - self._panes_per_window + 1
            if window_start_pane >= self._first_pane:
                emitted.append(self._emit(pane_index))
        return emitted

    # ------------------------------------------------------------------
    def _emit(self, last_pane: int) -> ViewFrame:
        """Merge the trailing window's panes into one frame and retain it."""
        aggregate = self._aggregate
        merged: Dict = {}
        for pane in self._recent_panes:
            for key, (state, count) in pane.items():
                entry = merged.get(key)
                if entry is None:
                    # Merge into a fresh identity so shared pane partials
                    # (sliding windows reuse panes across frames) are never
                    # mutated.
                    merged[key] = [aggregate.merge(aggregate.new_state(), state), count]
                else:
                    entry[0] = aggregate.merge(entry[0], state)
                    entry[1] += count
        keys = sorted(merged)
        keys_column = np.empty(len(keys), dtype=object)
        keys_column[:] = keys
        window_end = (last_pane + 1) * self._slide
        frame = ViewFrame(
            frame_index=self._buffer.frames_emitted,
            window_start=window_end - self._spec.window,
            window_end=window_end,
            keys=keys_column,
            values=np.array(
                [aggregate.result(merged[key][0]) for key in keys], dtype=np.float64
            ),
            counts=np.array([merged[key][1] for key in keys], dtype=np.int64),
        )
        self._buffer.append(frame)
        return frame

    def _group_codes(self, batch: TupleBatch) -> np.ndarray:
        """Integer group code per tuple (cell code, or 0 for scalar groups)."""
        if self._spec.group_by == "cell":
            q, r = self._grid.cells_for_points(batch.x, batch.y)
            return (np.asarray(r, dtype=np.int64) * self._grid.side
                    + np.asarray(q, dtype=np.int64))
        return np.zeros(len(batch), dtype=np.int64)

    def _key_for_code(self, code: int, attribute: str):
        """Decode an integer group code back into the frame's group key."""
        if self._spec.group_by == "cell":
            side = self._grid.side
            return (code % side, code // side)
        if self._spec.group_by == "attribute":
            return attribute
        return "*"

    def _value_column(self, batch: TupleBatch, order: np.ndarray):
        """The sorted float64 value column (``None`` for COUNT-style aggregates)."""
        if not self._aggregate.needs_values:
            return None
        try:
            values = np.asarray(batch.value, dtype=np.float64)
        except (TypeError, ValueError) as exc:
            raise ViewError(
                f"view {self._name!r}: aggregate {self._spec.aggregate} needs "
                f"numeric values, but the {batch.attribute!r} stream's values "
                f"are not convertible to float ({exc})"
            ) from exc
        return values[order]

    # ------------------------------------------------------------------
    def info(self) -> ViewSessionInfo:
        """A :class:`ViewSessionInfo` snapshot (one SHOW VIEWS row)."""
        latest = self._buffer.latest()
        return ViewSessionInfo(
            name=self._name,
            query_label=self._query_label,
            query_id=self._query_id,
            aggregate=self._spec.aggregate.upper(),
            group_by=self._spec.group_by,
            window=self._spec.window,
            slide=self._spec.slide_duration,
            frames_emitted=self._buffer.frames_emitted,
            frames_retained=len(self._buffer),
            tuples_total=self._buffer.tuples_total,
            last_window_end=None if latest is None else latest.window_end,
            active=self._active,
            error=None if self._error is None else str(self._error),
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ContinuousView({self._name!r} ON {self._query_label!r}: "
            f"{self._spec.describe()})"
        )


#: Shared empty slice handed to value-less aggregates.
_EMPTY_VALUES = np.empty(0, dtype=np.float64)


class ViewHandle:
    """The user-facing handle to one continuous view.

    Obtained from :meth:`QueryHandle.view
    <repro.core.engine.QueryHandle.view>` or as the result of executing a
    ``CREATE VIEW`` statement.  The handle stays readable after ``DROP
    VIEW`` (the frame buffer outlives maintenance), mirroring how a stopped
    query's :class:`~repro.core.engine.QueryHandle` keeps its results.
    """

    def __init__(self, view: ContinuousView, engine) -> None:
        self._view = view
        self._engine = engine

    @property
    def name(self) -> str:
        """The view's unique name."""
        return self._view.name

    @property
    def spec(self) -> ViewSpec:
        """The view's declarative specification."""
        return self._view.spec

    @property
    def query_label(self) -> str:
        """Label of the query the view consumes."""
        return self._view.query_label

    @property
    def buffer(self) -> ViewFrameBuffer:
        """The view's frame buffer (outlives DROP VIEW)."""
        return self._view.buffer

    @property
    def view(self) -> ContinuousView:
        """The underlying continuous view."""
        return self._view

    # ------------------------------------------------------------------
    def frames(self) -> List[ViewFrame]:
        """The retained frames, oldest first."""
        return self._view.buffer.frames()

    def latest(self) -> Optional[ViewFrame]:
        """The most recent retained frame (``None`` before the first close)."""
        return self._view.buffer.latest()

    def frame_cursor(self, *, tail: bool = False) -> FrameCursor:
        """A resumable cursor over the frame sequence (O(new frames) reads)."""
        return self._view.buffer.cursor(tail=tail)

    def info(self) -> ViewSessionInfo:
        """A snapshot row describing the view (the SHOW VIEWS shape)."""
        return self._view.info()

    def is_active(self) -> bool:
        """Whether the view is still maintained by the engine."""
        return self._view.is_active

    @property
    def error(self) -> Optional[Exception]:
        """The maintenance error that stopped the view (``None`` while healthy)."""
        return self._view.error

"""View frames and the bounded, cursor-readable buffer that retains them.

A :class:`ViewFrame` is one closed window of a continuous view in
structure-of-arrays form: one row per group that delivered tuples inside
the window, stored as parallel numpy columns (group keys, aggregate values,
per-group tuple counts).  Frames are immutable — frame boundaries are
aligned to engine batch boundaries, so by the time a frame is emitted no
later batch can contribute to it.

:class:`ViewFrameBuffer` retains the most recent frames (mirroring
:class:`~repro.storage.QueryResultBuffer`'s chunk list, one frame per
chunk) and serves two consumption surfaces:

* :meth:`ViewFrameBuffer.frames` — the retained frames, oldest first;
* :meth:`ViewFrameBuffer.cursor` — a resumable :class:`FrameCursor` whose
  reads return only the frames emitted since the previous read, at a cost
  of O(new frames) regardless of how much history the buffer retains.

With a retention bound set (derived from
:attr:`~repro.config.EngineConfig.retention_batches` when the view is
attached to an engine), old frames are evicted wholesale while the lifetime
accounting (:attr:`ViewFrameBuffer.frames_emitted`,
:attr:`ViewFrameBuffer.tuples_total`) stays exact through running totals; a
cursor that falls behind the retained window raises
:class:`~repro.errors.StorageError` on its next read, exactly like a lagging
:class:`~repro.storage.ResultCursor`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from ..errors import StorageError, ViewError


@dataclass(frozen=True)
class ViewFrame:
    """One closed window of a continuous view (SoA: one row per group).

    Attributes
    ----------
    frame_index:
        0-based position in the view's lifetime frame sequence (survives
        eviction: the first retained frame of a long-running view keeps its
        original index).
    window_start / window_end:
        The sim-time interval ``[start, end)`` the frame covers.
    keys:
        Object column of group keys, sorted: ``(q, r)`` grid-cell tuples
        for ``GROUP BY CELL``, attribute strings for ``GROUP BY
        ATTRIBUTE``, the single key ``"*"`` for whole-region views.
    values:
        Float64 column of the aggregate value per group.
    counts:
        Int64 column of tuples folded per group (every aggregate carries
        it, so COUNT-style accounting is available from any frame).
    """

    frame_index: int
    window_start: float
    window_end: float
    keys: np.ndarray
    values: np.ndarray
    counts: np.ndarray

    def __post_init__(self) -> None:
        n = self.keys.shape[0]
        if self.values.shape != (n,) or self.counts.shape != (n,):
            raise ViewError(
                f"frame columns disagree on length: keys {n}, "
                f"values {self.values.shape}, counts {self.counts.shape}"
            )

    # ------------------------------------------------------------------
    @property
    def groups(self) -> int:
        """Number of groups (rows) in the frame."""
        return int(self.keys.shape[0])

    @property
    def tuples(self) -> int:
        """Total tuples folded into the frame across all groups."""
        return int(self.counts.sum()) if self.counts.shape[0] else 0

    @property
    def is_empty(self) -> bool:
        """Whether the window closed without any delivered tuples."""
        return self.keys.shape[0] == 0

    def __len__(self) -> int:
        return int(self.keys.shape[0])

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ViewFrame(#{self.frame_index}, [{self.window_start:g}, "
            f"{self.window_end:g}), {self.groups} groups, {self.tuples} tuples)"
        )


class FrameCursor:
    """A resumable read position over one view's frame sequence.

    Mirrors :class:`~repro.storage.ResultCursor`: the cursor remembers the
    lifetime index of the next unread frame; every :meth:`fetch` returns
    only the frames emitted since the previous read (O(new frames),
    independent of retained history) and advances.  When the buffer evicts
    frames the cursor has not read yet, the next read raises
    :class:`StorageError` naming how far behind the cursor fell.
    """

    __slots__ = ("_buffer", "_next")

    def __init__(self, buffer: "ViewFrameBuffer", next_index: int) -> None:
        self._buffer = buffer
        self._next = next_index

    @property
    def buffer(self) -> "ViewFrameBuffer":
        """The frame buffer this cursor reads from."""
        return self._buffer

    @property
    def position(self) -> int:
        """Lifetime index of the next unread frame."""
        return self._next

    @property
    def pending(self) -> int:
        """Frames emitted but not yet read through this cursor."""
        return self._buffer.frames_emitted - self._next

    def fetch(self) -> List[ViewFrame]:
        """The frames emitted since the last read (advances the cursor)."""
        frames = self._buffer._frames_from(self._next)
        self._next += len(frames)
        return frames

    def __iter__(self):
        """Drain the currently pending frames."""
        return iter(self.fetch())


class ViewFrameBuffer:
    """Retains the most recent frames of one continuous view.

    Parameters
    ----------
    retention_frames:
        Optional cap on retained frames; the oldest frames are evicted
        wholesale when a new frame is appended past the cap.  Lifetime
        accounting survives eviction exactly.  ``None`` retains every
        frame.
    """

    def __init__(self, *, retention_frames: Optional[int] = None) -> None:
        if retention_frames is not None and retention_frames <= 0:
            raise StorageError("retention_frames must be positive or None")
        self._retention = retention_frames
        self._frames: List[ViewFrame] = []
        #: lifetime index of ``_frames[0]`` (frames evicted before it).
        self._frame_base = 0
        self._tuples_total = 0

    # ------------------------------------------------------------------
    @property
    def retention_frames(self) -> Optional[int]:
        """The retention cap (``None`` keeps everything)."""
        return self._retention

    @property
    def frames_emitted(self) -> int:
        """Frames ever appended (survives eviction)."""
        return self._frame_base + len(self._frames)

    @property
    def tuples_total(self) -> int:
        """Tuples folded into all frames ever emitted (survives eviction)."""
        return self._tuples_total

    def __len__(self) -> int:
        return len(self._frames)

    # ------------------------------------------------------------------
    def append(self, frame: ViewFrame) -> None:
        """Retain one newly emitted frame (evicting past the cap)."""
        expected = self.frames_emitted
        if frame.frame_index != expected:
            raise StorageError(
                f"frames must be appended in lifetime order: expected index "
                f"{expected}, got {frame.frame_index}"
            )
        self._frames.append(frame)
        self._tuples_total += frame.tuples
        if self._retention is not None:
            while len(self._frames) > self._retention:
                self._frames.pop(0)
                self._frame_base += 1

    # ------------------------------------------------------------------
    def frames(self) -> List[ViewFrame]:
        """The retained frames, oldest first."""
        return list(self._frames)

    def latest(self) -> Optional[ViewFrame]:
        """The most recently emitted retained frame (``None`` before any)."""
        return self._frames[-1] if self._frames else None

    def frame(self, frame_index: int) -> ViewFrame:
        """The retained frame with the given lifetime index."""
        local = frame_index - self._frame_base
        if local < 0:
            raise StorageError(
                f"frame {frame_index} has been evicted: the buffer retains "
                f"frames {self._frame_base}..{self.frames_emitted - 1} of "
                f"{self.frames_emitted} emitted — the request is "
                f"{self._frame_base - frame_index} frames behind the oldest "
                f"retained one (retention_frames={self._retention})"
            )
        if local >= len(self._frames):
            raise StorageError(
                f"frame {frame_index} has not been emitted yet: the buffer "
                f"retains frames {self._frame_base}..{self.frames_emitted - 1} "
                f"(next to be emitted is {self.frames_emitted})"
            )
        return self._frames[local]

    def cursor(self, *, tail: bool = False) -> FrameCursor:
        """A resumable cursor over the frame sequence.

        ``tail=False`` (default) starts at the oldest *retained* frame so
        the first read catches the consumer up; ``tail=True`` skips
        everything already emitted.
        """
        if tail:
            return FrameCursor(self, self.frames_emitted)
        return FrameCursor(self, self._frame_base)

    def _frames_from(self, next_index: int) -> List[ViewFrame]:
        """Retained frames at or past a lifetime index (used by cursors)."""
        local = next_index - self._frame_base
        if local < 0:
            raise StorageError(
                f"cursor position has been evicted: the cursor was at frame "
                f"{next_index}, but the buffer retains frames "
                f"{self._frame_base}..{self.frames_emitted - 1} of "
                f"{self.frames_emitted} emitted — the cursor fell "
                f"{self._frame_base - next_index} frames behind the oldest "
                f"retained one (retention_frames={self._retention}); open a "
                f"fresh frame_cursor() to resume from the retained history"
            )
        if local >= len(self._frames):
            return []
        return self._frames[local:]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ViewFrameBuffer({len(self._frames)} retained, "
            f"{self.frames_emitted} emitted)"
        )

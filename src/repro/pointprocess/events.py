"""Batches of spatio-temporal events.

An :class:`EventBatch` is the columnar representation of a set of ``(t, x,
y)`` points produced by simulating an MDPP or collected from sensors over a
batch window.  It is the unit the PMAT operators work on in batch mode and
the unit the estimation and statistics routines consume.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, List, Sequence, Tuple

import numpy as np

from ..errors import PointProcessError
from ..geometry import SpaceTimePoint


@dataclass(frozen=True)
class EventBatch:
    """A batch of spatio-temporal events stored columnar as numpy arrays.

    Attributes
    ----------
    t, x, y:
        1-D float arrays of equal length holding the coordinates.
    """

    t: np.ndarray
    x: np.ndarray
    y: np.ndarray

    def __post_init__(self) -> None:
        t = np.asarray(self.t, dtype=float)
        x = np.asarray(self.x, dtype=float)
        y = np.asarray(self.y, dtype=float)
        if not (t.ndim == x.ndim == y.ndim == 1):
            raise PointProcessError("event coordinate arrays must be 1-D")
        if not (t.shape == x.shape == y.shape):
            raise PointProcessError(
                "event coordinate arrays must have equal length; got "
                f"{t.shape}, {x.shape}, {y.shape}"
            )
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def empty(cls) -> "EventBatch":
        """A batch with no events."""
        return cls(np.empty(0), np.empty(0), np.empty(0))

    @classmethod
    def from_rows(cls, rows: Sequence[Tuple[float, float, float]]) -> "EventBatch":
        """Build from ``(t, x, y)`` tuples."""
        if not rows:
            return cls.empty()
        arr = np.asarray(rows, dtype=float)
        if arr.ndim != 2 or arr.shape[1] != 3:
            raise PointProcessError("rows must be (t, x, y) triples")
        return cls(arr[:, 0], arr[:, 1], arr[:, 2])

    @classmethod
    def concatenate(cls, batches: Iterable["EventBatch"]) -> "EventBatch":
        """Concatenate several batches into one (order preserved)."""
        batches = [b for b in batches if len(b) > 0]
        if not batches:
            return cls.empty()
        return cls(
            np.concatenate([b.t for b in batches]),
            np.concatenate([b.x for b in batches]),
            np.concatenate([b.y for b in batches]),
        )

    # ------------------------------------------------------------------
    # Container protocol
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return int(self.t.shape[0])

    def __iter__(self) -> Iterator[SpaceTimePoint]:
        for i in range(len(self)):
            yield SpaceTimePoint(float(self.t[i]), float(self.x[i]), float(self.y[i]))

    def __getitem__(self, index) -> "EventBatch":
        """Select a subset of events by integer, slice or boolean mask."""
        if isinstance(index, (int, np.integer)):
            index = slice(index, index + 1)
        return EventBatch(self.t[index], self.x[index], self.y[index])

    @property
    def is_empty(self) -> bool:
        """Whether the batch holds no events."""
        return len(self) == 0

    # ------------------------------------------------------------------
    # Views and transforms
    # ------------------------------------------------------------------
    def points(self) -> List[SpaceTimePoint]:
        """The events as a list of :class:`SpaceTimePoint`."""
        return list(self)

    def sorted_by_time(self) -> "EventBatch":
        """A copy with events sorted by time."""
        order = np.argsort(self.t, kind="stable")
        return EventBatch(self.t[order], self.x[order], self.y[order])

    def select(self, mask: np.ndarray) -> "EventBatch":
        """The events where ``mask`` is true."""
        mask = np.asarray(mask, dtype=bool)
        if mask.shape != self.t.shape:
            raise PointProcessError("selection mask must match batch length")
        return EventBatch(self.t[mask], self.x[mask], self.y[mask])

    def restrict_to_time(self, t_start: float, t_end: float) -> "EventBatch":
        """Keep only events with ``t_start <= t < t_end``."""
        if t_end <= t_start:
            raise PointProcessError("time window must have positive length")
        mask = (self.t >= t_start) & (self.t < t_end)
        return self.select(mask)

    def shifted(self, dt: float = 0.0, dx: float = 0.0, dy: float = 0.0) -> "EventBatch":
        """A copy with all events displaced by ``(dt, dx, dy)``."""
        return EventBatch(self.t + dt, self.x + dx, self.y + dy)

    # ------------------------------------------------------------------
    # Summaries
    # ------------------------------------------------------------------
    def time_span(self) -> Tuple[float, float]:
        """``(min t, max t)`` of the batch; ``(0, 0)`` when empty."""
        if self.is_empty:
            return (0.0, 0.0)
        return (float(self.t.min()), float(self.t.max()))

    def duration(self) -> float:
        """Length of the observed time span."""
        t_min, t_max = self.time_span()
        return t_max - t_min

"""Point types used throughout the library.

Two small immutable value types:

* :class:`SpacePoint` — a 2-D location ``(x, y)``.
* :class:`SpaceTimePoint` — a 3-D spatio-temporal coordinate ``(t, x, y)``,
  the support of the multi-dimensional point processes in the paper.

The paper notes a z-coordinate could be added; for parity with the paper we
work with 2-D space plus time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator


@dataclass(frozen=True, order=True)
class SpacePoint:
    """A 2-D spatial location."""

    x: float
    y: float

    def __iter__(self) -> Iterator[float]:
        yield self.x
        yield self.y


@dataclass(frozen=True, order=True)
class SpaceTimePoint:
    """A spatio-temporal coordinate ``(t, x, y)``.

    Ordering is lexicographic with time first, which makes sorted batches of
    points time-ordered — the natural order for streaming.
    """

    t: float
    x: float
    y: float

    def shifted(self, dt: float = 0.0, dx: float = 0.0, dy: float = 0.0) -> "SpaceTimePoint":
        """Return a new point displaced by ``(dt, dx, dy)``."""
        return SpaceTimePoint(self.t + dt, self.x + dx, self.y + dy)

    def __iter__(self) -> Iterator[float]:
        yield self.t
        yield self.x
        yield self.y

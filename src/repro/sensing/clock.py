"""A simple simulation clock.

All components of the sensing simulator share one clock so that batches,
sensor movement and response latencies line up.  Time is a float in
arbitrary units (the examples interpret one unit as one minute).
"""

from __future__ import annotations

from ..errors import CraqrError


class SimulationClock:
    """Monotonically advancing simulation time."""

    def __init__(self, start: float = 0.0) -> None:
        self._now = float(start)
        self._start = float(start)

    @property
    def now(self) -> float:
        """Current simulation time."""
        return self._now

    @property
    def start(self) -> float:
        """Time the clock was created with."""
        return self._start

    @property
    def elapsed(self) -> float:
        """Time elapsed since the start."""
        return self._now - self._start

    def advance(self, dt: float) -> float:
        """Advance the clock by ``dt`` (> 0) and return the new time."""
        if dt <= 0:
            raise CraqrError("the clock can only move forward (dt must be > 0)")
        self._now += dt
        return self._now

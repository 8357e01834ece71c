"""Crowdsensed tuples.

The paper defines a tuple of attribute ``A<j>`` as ``(t_i, x_i, y_i, a_i)``
where the first three entries are space-time coordinates, ``a_i`` is the
attribute value, and ``i`` is a unique identifier across sensors.
:class:`SensorTuple` captures exactly that, plus the sensor id and the
attribute name so that one stream can carry tuples of several attributes
before they are routed.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Optional

import numpy as np

from ..geometry import SpacePoint


class TupleIdAllocator:
    """Unique, monotonically increasing tuple ids, scalar or in blocks.

    Calling the allocator yields one id (the original closure contract);
    :meth:`allocate_block` hands out ``count`` consecutive ids as an int64
    column in one step, which the columnar acquisition paths use so that a
    whole batch's ids cost one ``arange`` instead of one Python call per
    tuple.  Both styles draw from the same counter, so ids are identical to
    interleaved scalar allocation.
    """

    __slots__ = ("_next",)

    def __init__(self, start: int = 0) -> None:
        self._next = start

    def __call__(self) -> int:
        value = self._next
        self._next += 1
        return value

    def allocate_block(self, count: int) -> np.ndarray:
        start = self._next
        self._next += count
        return np.arange(start, start + count, dtype=np.int64)


def make_tuple_id_allocator(start: int = 0) -> TupleIdAllocator:
    """Return a callable producing unique, monotonically increasing tuple ids."""
    return TupleIdAllocator(start)


@dataclass(frozen=True)
class SensorTuple:
    """One crowdsensed observation ``(t, x, y, value)`` of an attribute.

    Attributes
    ----------
    tuple_id:
        Unique identifier ``i`` across sensors.
    attribute:
        Name of the attribute ``A<j>`` (e.g. ``"rain"`` or ``"temp"``).
    t, x, y:
        Space-time coordinates of the observation.
    value:
        The sensed value ``a_i`` (bool for human-sensed attributes such as
        rain, float for sensor-sensed attributes such as temperature).
    sensor_id:
        Identifier of the mobile sensor that produced the observation, when
        known.
    metadata:
        Free-form additional fields (e.g. response latency, incentive paid).
    """

    tuple_id: int
    attribute: str
    t: float
    x: float
    y: float
    value: Any = None
    sensor_id: Optional[int] = None
    metadata: dict = field(default_factory=dict, compare=False)

    @property
    def location(self) -> SpacePoint:
        """The spatial coordinates as a :class:`SpacePoint`."""
        return SpacePoint(self.x, self.y)

    def shifted(self, dt: float = 0.0, dx: float = 0.0, dy: float = 0.0) -> "SensorTuple":
        """A copy displaced in space-time (used by the Shift extension operator)."""
        return replace(self, t=self.t + dt, x=self.x + dx, y=self.y + dy)

"""Acquisitional queries.

Section III: "the simplest queries for acquiring MCDS will have to specify
the following parameters: (1) the attribute they want to acquire, (2) the
region from which they want to acquire the given attribute, (3) the rate at
which they want to acquire the attribute."

:class:`AcquisitionalQuery` captures exactly those three plus an identifier.
:class:`RateSpec` handles the unit bookkeeping of rates such as the paper's
example "10 /km^2/min": internally everything is events per unit area per
unit time in the engine's native units, but queries can be written in
human-friendly units.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Optional

from ..errors import QueryError
from ..geometry import RectRegion, Rectangle, Region


class QueryIdAllocator:
    """Process-wide allocator of query ids.

    Behaves like ``itertools.count(1)`` but is inspectable, so engine
    snapshots can record the id high-water mark and a restored process can
    :meth:`advance_to` it — queries registered after recovery then receive
    the same ids an uninterrupted run would have handed out, and never
    collide with ids already captured in the snapshot.
    """

    __slots__ = ("_next",)

    def __init__(self, start: int = 1) -> None:
        self._next = start

    def __next__(self) -> int:
        value = self._next
        self._next += 1
        return value

    def peek(self) -> int:
        """The id the next registration will receive."""
        return self._next

    def advance_to(self, next_id: int) -> None:
        """Raise the high-water mark (never lowers it)."""
        if next_id > self._next:
            self._next = next_id


_query_ids = QueryIdAllocator()


def query_id_allocator() -> QueryIdAllocator:
    """The process-wide query-id allocator (used by snapshot/restore)."""
    return _query_ids

#: Area unit conversions to the engine's native square unit.
_AREA_UNITS = {
    "unit2": 1.0,
    "km2": 1.0,          # the examples treat one native unit of length as 1 km
    "m2": 1e-6,
    "hectare": 0.01,
}

#: Time unit conversions to the engine's native time unit.
_TIME_UNITS = {
    "unit": 1.0,
    "min": 1.0,          # the examples treat one native time unit as 1 minute
    "sec": 1.0 / 60.0,
    "hour": 60.0,
    "day": 1440.0,
}


@dataclass(frozen=True)
class RateSpec:
    """A spatio-temporal acquisition rate with units.

    ``RateSpec(10, area_unit="km2", time_unit="min")`` is the paper's
    "10 /km^2/min".
    """

    value: float
    area_unit: str = "unit2"
    time_unit: str = "unit"

    def __post_init__(self) -> None:
        if not 0 < self.value < math.inf:
            raise QueryError("a rate must be positive and finite")
        if self.area_unit not in _AREA_UNITS:
            raise QueryError(
                f"unknown area unit '{self.area_unit}'; known: {sorted(_AREA_UNITS)}"
            )
        if self.time_unit not in _TIME_UNITS:
            raise QueryError(
                f"unknown time unit '{self.time_unit}'; known: {sorted(_TIME_UNITS)}"
            )

    @property
    def per_unit(self) -> float:
        """The rate converted to events per native area unit per native time unit."""
        return self.value / _AREA_UNITS[self.area_unit] / _TIME_UNITS[self.time_unit]

    def __float__(self) -> float:
        return self.per_unit


@dataclass(frozen=True)
class AcquisitionalQuery:
    """A continuous acquisitional query ``Q<j>``.

    Attributes
    ----------
    attribute:
        The attribute ``A<j>`` to acquire (e.g. ``"rain"``).
    region:
        The query region ``R' ⊆ R``.
    rate:
        The requested acquisition rate (per unit area per unit time, or a
        :class:`RateSpec`).
    query_id:
        Unique identifier; auto-assigned when not given.
    name:
        Optional human-readable label used in reports.
    """

    attribute: str
    region: Region
    rate: float
    query_id: int = field(default_factory=lambda: next(_query_ids))
    name: Optional[str] = None

    def __post_init__(self) -> None:
        if not self.attribute:
            raise QueryError("a query must name the attribute it acquires")
        if isinstance(self.region, Rectangle):
            object.__setattr__(self, "region", RectRegion(self.region))
        if not isinstance(self.region, Region):
            raise QueryError("the query region must be a Region or Rectangle")
        rate = self.rate
        if isinstance(rate, RateSpec):
            object.__setattr__(self, "rate", rate.per_unit)
        elif isinstance(rate, (int, float)):
            object.__setattr__(self, "rate", float(rate))
        else:
            raise QueryError("the rate must be a number or a RateSpec")
        if not 0 < self.rate < math.inf:
            raise QueryError("the requested rate must be positive and finite")

    @property
    def label(self) -> str:
        """Display label: the explicit name or ``Q<id>``."""
        return self.name or f"Q{self.query_id}"

    def with_rate(self, rate: float) -> "AcquisitionalQuery":
        """A copy of the query asking for a different rate (new query id)."""
        return replace(self, rate=rate, query_id=next(_query_ids))

    def validate_against(self, world_region: Rectangle, min_area: float) -> None:
        """Check the query is admissible for a given deployment.

        The paper requires a single-attribute query to cover at least one
        grid cell's area and, implicitly, to lie inside ``R``.
        """
        if self.region.area + 1e-12 < min_area:
            raise QueryError(
                f"query region area {self.region.area:.6g} is smaller than one "
                f"grid cell ({min_area:.6g}); use a finer grid or a larger region"
            )
        if not RectRegion(world_region).covers(self.region):
            raise QueryError("the query region must lie inside the deployment region R")

"""Test-only building blocks that the package itself has no use for.

pytest puts ``tests/`` on ``sys.path`` when it imports ``tests/conftest.py``
(there is no ``__init__.py``), so any test module can
``from scaffolding import ...``.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import SimpleNamespace
from typing import Dict, Sequence, Tuple

import numpy as np

from repro.core import AcquisitionalQuery
from repro.core.engine import QueryHandle
from repro.geometry import Rectangle, RectRegion
from repro.plan.cache import assemble_programs
from repro.plan.executor import ChainProgram, ChainSteps
from repro.pointprocess import EventBatch, IntensityModel
from repro.sensing import PhenomenonField
from repro.serve.protocol import frame_head
from repro.storage import QueryResultBuffer
from repro.streams import NO_SENSOR_ID, SensorTuple, TupleBatch


@dataclass(frozen=True)
class HotspotIntensity(IntensityModel):
    """A baseline rate plus Gaussian spatial hotspots ``(cx, cy, amplitude, sigma)``.

    An intensity with no Eq. (1) form, so Flatten has to evaluate it.
    """

    baseline: float
    hotspots: Tuple[Tuple[float, float, float, float], ...]

    def rate(self, t, x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        values = np.full(x.shape, float(self.baseline))
        for cx, cy, amplitude, sigma in self.hotspots:
            d2 = (x - cx) ** 2 + (y - cy) ** 2
            values = values + amplitude * np.exp(-d2 / (2.0 * sigma * sigma))
        return values

    def max_rate(self, region, t_start, t_end):
        return self.baseline + sum(spot[2] for spot in self.hotspots)


@dataclass
class ConstantField(PhenomenonField):
    """A field that always returns the same value."""

    constant: object = 0.0
    attribute: str = "value"

    def values(self, t, x, y, rng=None):
        n = np.asarray(t).shape[0]
        if isinstance(self.constant, (bool, int, float)):
            return np.full(n, self.constant)
        out = np.empty(n, dtype=object)
        out[:] = [self.constant] * n
        return out

    def values_from_uniforms(self, t, x, y, u0, u1):
        return self.values(t, x, y)


def frame_message(body: bytes) -> bytes:
    """Length-prefix one message body for the raw-TCP transport."""
    return frame_head(len(body)) + body


def compile_programs(planner) -> Dict[str, ChainProgram]:
    """Compile every materialised chain into its attribute's program."""
    return assemble_programs(
        planner, lambda key, topology, attribute: ChainSteps(topology.chain(attribute))
    )


def batch_of(items: Sequence[SensorTuple]) -> TupleBatch:
    """The columns of same-attribute sensor tuples as one :class:`TupleBatch`.

    Every metadata key of the first tuple becomes an extra column (a
    ``cell`` pair an ``(n, 2)`` one, as the handler writes it), so
    ``to_tuples()`` gives the tuples back, metadata included.
    """
    if not items:
        return TupleBatch.empty()
    return TupleBatch(
        items[0].attribute,
        [item.t for item in items],
        [item.x for item in items],
        [item.y for item in items],
        [item.value for item in items],
        [NO_SENSOR_ID if item.sensor_id is None else item.sensor_id for item in items],
        [item.tuple_id for item in items],
        extra={
            key: np.asarray([item.metadata[key] for item in items])
            for key in items[0].metadata
        },
    )


def session_handle(
    rate: float, area: float, batch_duration: float = 1.0, retention_batches=None
) -> QueryHandle:
    """A handle on a fresh result buffer of a ``rate`` query over an ``area``
    rectangle, with no engine behind it: only the batch duration its
    :meth:`~repro.core.engine.QueryHandle.achieved_rate` reads.

    Fill ``handle.buffer`` by hand to test the rate arithmetic alone.
    """
    query = AcquisitionalQuery(
        "rain", RectRegion(Rectangle(0.0, 0.0, area, 1.0)), rate=rate, query_id=1
    )
    engine = SimpleNamespace(config=SimpleNamespace(batch_duration=batch_duration))
    buffer = QueryResultBuffer(1, retention_batches=retention_batches)
    return QueryHandle(query, buffer, engine)


def events_of(items) -> EventBatch:
    """The ``(t, x, y)`` of sensor tuples as an :class:`EventBatch`."""
    return EventBatch.from_rows([(item.t, item.x, item.y) for item in items])


def rows_in(world, region) -> np.ndarray:
    """SoA rows of the sensors currently inside ``region`` (boundary included)."""
    arrays = world.state_arrays
    return np.flatnonzero(region.contains_many(arrays.x, arrays.y, closed=True))

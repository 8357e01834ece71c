"""Mobile sensors.

Each :class:`MobileSensor` combines a mobility state and a participation
model for human-sensed attributes.  Sensors answer acquisition requests for
an attribute by reading the relevant phenomenon field at their current
location.

The paper assumes "each mobile sensor is assumed to have local memory to
store sensed information".  That is a statement about the device, not about
the protocol: in CrAQR a sensor answers one request and the answer goes to
the server, whose result buffers (:class:`~repro.storage.QueryResultBuffer`)
hold what queries receive.  Nothing on the server ever reads a device's
local store, so sensors here keep none.

A sensor carries no generator state either: it is placed, each request is
answered and each movement draw made from a counter-based (keyed) stream,
so where it starts depends on its id alone, what it answers on how many
requests it has received and where it goes on how many movement blocks it
has drawn — never on which other sensors were placed, asked or moved
before it.  Its model places and moves it through the model's kernels,
``initial_state_batch`` and ``step_batch``, on the sensor's one-row slice
of the SoA.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional, Tuple

import numpy as np

from ..errors import AcquisitionError
from ..geometry import SpacePoint
from ..rng import ANSWERS, keyed_uniforms
from .mobility import KeyedDraws, MobilityModel, movement_substeps, place_groups
from .participation import AlwaysRespond, ParticipationModel, ResponseDecision
from .phenomena import PhenomenonField
from .state import SensorStateArrays


@dataclass
class SensorState:
    """Snapshot of a sensor's public state at a point in time."""

    sensor_id: int
    t: float
    x: float
    y: float

    @property
    def location(self) -> SpacePoint:
        """The sensor's position."""
        return SpacePoint(self.x, self.y)


class MobileSensor:
    """One simulated mobile sensor (a smartphone, vehicle sensor or human).

    A sensor's mutable state (position, velocity, waypoint target, request
    counters, participation parameters) lives in a
    :class:`~repro.sensing.state.SensorStateArrays` row; the sensor object is
    a lazy view over that row.  A :class:`~repro.sensing.SensingWorld` keeps
    one SoA for its whole crowd, already placed, and builds a view over a
    row (``state_arrays`` and ``index``) when asked for one; such a view
    writes nothing when built.  A standalone sensor allocates a private
    single-row SoA and places itself in it, so both construction styles
    behave identically.

    Every kind of randomness comes from one key: the sensor is placed from
    the Philox block keyed ``(acquisition_key, sensor_id)`` at counter
    ``(0, PLACEMENT, 0, 0)``, the answer to its ``c``-th request is the block
    at ``(c, ANSWERS, 0, 0)`` and its ``c``-th movement block the one at
    ``(c, MOVEMENT, 0, 0)`` (:func:`repro.rng.keyed_uniforms`).  A world
    passes its :attr:`~repro.sensing.SensingWorld.acquisition_key`; a
    standalone sensor's key defaults to 0, and given the world's key it
    starts where the world places that id.
    """

    def __init__(
        self,
        sensor_id: int,
        mobility: MobilityModel,
        *,
        participation: Optional[ParticipationModel] = None,
        state_arrays: Optional[SensorStateArrays] = None,
        index: Optional[int] = None,
        acquisition_key: int = 0,
    ) -> None:
        self._sensor_id = sensor_id
        self._acquisition_key = acquisition_key
        self._mobility = mobility
        self._participation = participation or AlwaysRespond()
        if state_arrays is None:
            if index is not None:
                raise AcquisitionError(
                    "index is only meaningful together with a shared "
                    "SensorStateArrays"
                )
            state_arrays = SensorStateArrays(1)
            index = 0
            state_arrays.sensor_ids[0] = sensor_id
            state_arrays.set_participation(
                np.zeros(1, dtype=np.intp), [self._participation.vector_params()]
            )
            place_groups(state_arrays, [(mobility, slice(0, 1))], acquisition_key)
        elif index is None:
            raise AcquisitionError(
                "index is required when binding to a shared SensorStateArrays"
            )
        self._arrays = state_arrays
        self._index = index

    # ------------------------------------------------------------------
    @property
    def sensor_id(self) -> int:
        """Unique identifier of the sensor."""
        return self._sensor_id

    @property
    def mobility(self) -> MobilityModel:
        """The sensor's mobility model (consulted for batch-kernel grouping)."""
        return self._mobility

    @property
    def participation(self) -> ParticipationModel:
        """The sensor's participation model."""
        return self._participation

    @property
    def position(self) -> SpacePoint:
        """Current position."""
        return SpacePoint(*self._xy())

    @property
    def requests_received(self) -> int:
        """Acquisition requests received so far."""
        return int(self._arrays.requests_received[self._index])

    @property
    def responses_sent(self) -> int:
        """Responses actually produced so far."""
        return int(self._arrays.responses_sent[self._index])

    def state_at(self, t: float) -> SensorState:
        """A :class:`SensorState` snapshot stamped with time ``t``."""
        return SensorState(self._sensor_id, t, *self._xy())

    def _xy(self) -> Tuple[float, float]:
        """The position, read from the sensor's SoA row."""
        i = self._index
        return float(self._arrays.x[i]), float(self._arrays.y[i])

    # ------------------------------------------------------------------
    def move(self, duration: float, movement_step: Optional[float] = None) -> SpacePoint:
        """Advance the sensor alone by ``duration``, as its world's ``advance`` would.

        The window is cut into ``movement_step`` sub-steps by the world's
        subtraction loop (one step of ``duration`` when ``None``); a
        non-positive ``duration`` or ``movement_step`` is a
        :class:`~repro.errors.CraqrError`.  The model's kernel runs on the
        sensor's one-row slice with the keyed draw policy — its
        ``skip_ahead`` for the window, then the sub-steps — so the
        per-object path and the vectorised one agree by construction: a
        sensor moved alone lands on the bytes it lands on when its crowd
        advances.  The clock is not touched.
        """
        dts = movement_substeps(
            duration, duration if movement_step is None else movement_step
        )
        model, arrays = self._mobility, self._arrays
        rows = model.kernel_skip_ahead(
            arrays, slice(self._index, self._index + 1), duration
        )
        draws = KeyedDraws(self._acquisition_key)
        for dt in dts:
            model.step_batch(arrays, rows, dt, draws)
        return self.position

    def handle_request(
        self,
        field: PhenomenonField,
        t: float,
        *,
        incentive_multiplier: float = 1.0,
    ) -> Optional[Tuple[float, float, float, Any]]:
        """Answer an acquisition request, or return ``None`` when ignored.

        The returned row is ``(response_time, x, y, value)`` where ``x, y``
        is the sensor's position when the request arrived (the paper treats
        the reported coordinates as the sensing location) and
        ``response_time = t + latency``.

        The ``c``-th request (``c`` = :attr:`requests_received` before it)
        is answered from one keyed block, ``keyed_uniforms(acquisition_key,
        sensor_id, c, ANSWERS)``: the respond and latency uniforms go to the
        participation model, the other two to the field's
        ``values_from_uniforms``.  The vectorised strict wave
        (``_PerSensorStreams.answer`` in :mod:`repro.sensing.handler`) draws
        the same blocks for a whole wave at once, so a sensor answers the
        same whichever way, and in whatever order across sensors, it is
        asked.
        """
        arrays = self._arrays
        i = self._index
        counter = arrays.requests_received[i : i + 1].copy()
        arrays.requests_received[i] += 1
        u = keyed_uniforms(
            self._acquisition_key, arrays.sensor_ids[i : i + 1], counter, ANSWERS
        )
        decision: ResponseDecision = self._participation.decide(
            self._sensor_id, t, (float(u[0, 0]), float(u[1, 0])),
            incentive_multiplier=incentive_multiplier,
        )
        if not decision.responds:
            return None
        x, y = self._xy()
        value = field.values_from_uniforms(
            np.array([t], dtype=float), np.array([x]), np.array([y]), u[2], u[3]
        )[0]
        arrays.responses_sent[i] += 1
        return (t + decision.latency, x, y, value)

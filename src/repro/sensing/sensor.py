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

A sensor carries no generator state either: each request is answered, and
each movement draw made, from a counter-based (keyed) stream, so what a
sensor answers depends on how many requests it has received and where it
goes on how many movement blocks it has drawn — never on which other
sensors were asked or moved before it.  Its model moves it through the
model's kernel, ``step_batch``, on the sensor's one-row slice of the SoA.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional, Tuple

import numpy as np

from ..errors import AcquisitionError
from ..geometry import SpacePoint
from ..rng import ANSWERS, ensure_rng, keyed_uniforms
from .mobility import KeyedDraws, MobilityModel, movement_substeps
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
    a lazy view over that row.  A :class:`~repro.sensing.SensingWorld` shares
    one SoA across its whole crowd so batch kernels can advance every sensor
    at once; a standalone sensor allocates a private single-row SoA, so both
    construction styles behave identically.

    Both kinds of randomness come from one key: the answer to the sensor's
    ``c``-th request is the Philox block keyed ``(acquisition_key,
    sensor_id)`` at counter ``(c, ANSWERS, 0, 0)``, and its ``c``-th movement
    block is at ``(c, MOVEMENT, 0, 0)`` (:func:`repro.rng.keyed_uniforms`).
    A world passes its :attr:`~repro.sensing.SensingWorld.acquisition_key`;
    a standalone sensor's key defaults to 0.  The generator ``rng`` only
    places the sensor (``mobility.initial_state``); it is not kept.
    """

    def __init__(
        self,
        sensor_id: int,
        mobility: MobilityModel,
        *,
        participation: Optional[ParticipationModel] = None,
        rng: Optional[np.random.Generator] = None,
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
        elif index is None:
            raise AcquisitionError(
                "index is required when binding to a shared SensorStateArrays"
            )
        self._arrays = state_arrays
        self._index = index
        # Draw the initial placement exactly as the per-object path did,
        # then copy it into the SoA row the sensor views from now on; the
        # generator and the placement record are dropped here.
        placement = mobility.initial_state(ensure_rng(rng))
        state_arrays.load_mobility_state(index, placement)
        state_arrays.sensor_ids[index] = sensor_id
        state_arrays.set_participation(index, self._participation.vector_params())

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

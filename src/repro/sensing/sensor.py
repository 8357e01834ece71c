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

A sensor's answers and moves carry no generator state either: each request
is answered, and each movement draw made, from a counter-based (keyed)
stream, so what a sensor answers depends on how many requests it has
received and where it goes on how many movement blocks it has drawn —
never on which other sensors were asked or moved before it.  Only a sensor
whose mobility model has no kernel of its own (a custom subclass that
customises the scalar ``step``) keeps a generator, for that ``step``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional, Sequence, Tuple

import numpy as np

from ..errors import AcquisitionError
from ..geometry import SpacePoint
from ..rng import ANSWERS, ensure_rng, keyed_uniforms
from .mobility import KeyedDraws, MobilityModel, MobilityState, movement_substeps
from .participation import AlwaysRespond, ParticipationModel, ResponseDecision
from .phenomena import PhenomenonField
from .state import ArrayBackedMobilityState, SensorStateArrays


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
    a standalone sensor's key defaults to 0.  The generator ``rng`` places
    the sensor; it is kept only when the mobility model has no kernel
    (``batch_key()`` is ``None``), whose scalar ``step`` draws from it.
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
        self._rng = ensure_rng(rng)
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
        # then copy it into the SoA row the sensor views from now on.
        initial_state = mobility.initial_state(self._rng)
        state_arrays.load_mobility_state(index, initial_state)
        state_arrays.sensor_ids[index] = sensor_id
        state_arrays.set_participation(index, self._participation.vector_params())
        self._state: ArrayBackedMobilityState = state_arrays.state_view(index)
        # The model's own state object doubles as the scalar-step scratch:
        # `move_through` checks the canonical columns out of the SoA into it
        # and commits them back afterwards, so scalar steps run at
        # plain-attribute speed and any *extra* per-sensor state a custom
        # model stashed on its MobilityState survives for the sensor's
        # lifetime, as it did pre-SoA.  A model with a kernel moves from
        # keyed blocks and never steps a scratch state: once placed, its
        # sensor holds neither, and checkpoints carry neither.
        self._scratch: Optional[MobilityState] = initial_state
        if mobility.batch_key() is not None:
            self._rng = None
            self._scratch = None

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
        return SpacePoint(self._state.x, self._state.y)

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
        return SensorState(self._sensor_id, t, self._state.x, self._state.y)

    # ------------------------------------------------------------------
    def begin_moves(self) -> MobilityState:
        """Check the SoA row out into the scalar-step scratch state.

        First half of the scalar advance protocol (``begin_moves`` / model
        ``step``\\* / ``end_moves``) that :meth:`move_through` runs: the
        checkout/commit round-trip is paid once per
        :meth:`~repro.sensing.SensingWorld.advance` call instead of once per
        movement sub-step, so the inner loop runs on plain dataclass
        attributes at the original per-object speed.  The ``float(...)``
        conversions are exact, so seeded byte-identity is preserved.
        """
        arrays = self._arrays
        i = self._index
        scratch = self._scratch
        scratch.x = float(arrays.x[i])
        scratch.y = float(arrays.y[i])
        scratch.vx = float(arrays.vx[i])
        scratch.vy = float(arrays.vy[i])
        tx = arrays.target_x[i]
        ty = arrays.target_y[i]
        scratch.target_x = None if tx != tx else float(tx)  # NaN check
        scratch.target_y = None if ty != ty else float(ty)
        scratch.pause_remaining = float(arrays.pause_remaining[i])
        return scratch

    def end_moves(self) -> None:
        """Commit the scratch state back into the SoA row."""
        arrays = self._arrays
        i = self._index
        scratch = self._scratch
        arrays.x[i] = scratch.x
        arrays.y[i] = scratch.y
        arrays.vx[i] = scratch.vx
        arrays.vy[i] = scratch.vy
        arrays.target_x[i] = np.nan if scratch.target_x is None else scratch.target_x
        arrays.target_y[i] = np.nan if scratch.target_y is None else scratch.target_y
        arrays.pause_remaining[i] = scratch.pause_remaining

    def move_through(self, dts: Sequence[float]) -> None:
        """Step a kernel-less model's scalar ``step`` by each of ``dts``, back to back.

        The sensor-major half of :meth:`~repro.sensing.SensingWorld.advance`,
        for a model without a kernel of its own: one checkout, every
        movement sub-step on the scratch state with the sensor's own
        generator, one commit.  A step depends only on ``(state, dt, rng)``,
        so running one sensor's sub-steps consecutively draws exactly what
        interleaving them with the rest of the crowd's would.  The commit is
        in a ``finally``: when a step raises, the SoA row holds the state
        that step left behind.
        """
        if self._rng is None:
            raise AcquisitionError(
                f"sensor {self._sensor_id} moves through its model's kernel; "
                "use move()"
            )
        scratch = self.begin_moves()
        step = self._mobility.step
        rng = self._rng
        try:
            for dt in dts:
                step(scratch, dt, rng)
        finally:
            self.end_moves()

    def move(self, duration: float, movement_step: Optional[float] = None) -> SpacePoint:
        """Advance the sensor alone by ``duration``, as its world's ``advance`` would.

        The window is cut into ``movement_step`` sub-steps by the world's
        subtraction loop (one step of ``duration`` when ``None``).  A model
        with a kernel runs it on the sensor's one-row slice with the keyed
        draw policy — its ``skip_ahead`` for the window, then the sub-steps
        — so the per-object path and the vectorised one agree by
        construction: a sensor moved alone lands on the bytes it lands on
        when its crowd advances.  A model without one steps its scalar
        ``step`` with the sensor's own generator (:meth:`move_through`).
        The clock is not touched.
        """
        dts = movement_substeps(
            duration, duration if movement_step is None else movement_step
        )
        if self._rng is not None:
            self.move_through(dts)
            return self.position
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
        x, y = self._state.x, self._state.y
        value = field.values_from_uniforms(
            np.array([t], dtype=float), np.array([x]), np.array([y]), u[2], u[3]
        )[0]
        arrays.responses_sent[i] += 1
        return (t + decision.latency, x, y, value)

"""The sensing world: region, sensors, phenomena and a shared clock.

:class:`SensingWorld` is the simulated environment the CrAQR server talks
to.  It owns the mobile sensors (with their mobility and participation
models), the phenomena fields backing each attribute, and the simulation
clock.  The request/response handler queries the world for the sensors
currently inside a grid cell and forwards acquisition requests to them.

All per-sensor mutable state lives in one
:class:`~repro.sensing.state.SensorStateArrays` struct-of-arrays owned by
the world, and the models are kept once per group: the first mobility
model of each ``batch_key``, the first stationary participation model of
each ``(type, vector_params)`` (a stateful one stays the object its factory
returned).  The world holds each row's mobility code, the SoA its
participation code and each participation group's stationary parameters,
once, in its table.  Every sensor is placed from
its own keyed block in one draw for the whole crowd
(:func:`~repro.sensing.mobility.place_groups`); no generator is built or
drawn from.  :class:`MobileSensor` objects are lazy views over the rows,
built when asked for and never stored.  Spatial queries
(``density_snapshot``, the handler's cell bucketing) are therefore plain
array operations in every mode.  Movement runs one way,
in both modes and for every sensor — each model group's draw-free
``skip_ahead``, then one vectorised ``step_batch`` kernel call per group per
movement sub-step over the rows it left, the index-array groups gathered
once per ``advance`` into one compact copy — and the modes differ only in
where the draws come from, the RNG contract selected by
:attr:`WorldConfig.vectorized_rng`:

* **strict mode** (default, ``vectorized_rng=False``): every sensor owns
  its randomness, as keyed streams.  It *moves* from the Philox blocks
  keyed ``(acquisition_key, sensor id)`` at counter ``(c, MOVEMENT, 0,
  0)``, ``c`` its ``moves_drawn`` (the kernels' keyed draw policy,
  :class:`~repro.sensing.mobility.KeyedDraws`), so a sensor's trajectory
  is a function of the seed, its id, its state and the sub-step ``dt``\\ s,
  never of the rest of the crowd: moving it alone with
  :meth:`MobileSensor.move` gives the same bytes.  It *answers* from the
  same key at counter ``(c, ANSWERS, 0, 0)``, ``c`` its requests received
  (:func:`repro.rng.keyed_uniforms`), so an answer does not depend on the
  order in which sensors are asked and the handler answers a whole wave
  in one vectorised pass, byte-identical to asking each sensor with
  :meth:`MobileSensor.handle_request`.
* **fast-sim mode** (``vectorized_rng=True``): all sensors share the
  world's generator (the kernels' shared draw policy), and the handler's
  acquisition rounds sample participation and phenomena across a whole
  cell population at once.  Runs are statistically equivalent to strict
  mode (same densities, same response rates), not bit-equal.  A sensor
  whose participation is stateful (fatigue, custom models) is answered
  as in strict mode, through its model's ``decide`` one request at a
  time; its model, not the world, keeps the state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from numbers import Integral
from typing import Callable, Dict, Hashable, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import AcquisitionError, CraqrError
from ..geometry import Rectangle
from ..rng import check_seed, derive_key
from .clock import SimulationClock
from .mobility import (
    KeyedDraws,
    MobilityModel,
    RandomWaypointMobility,
    RowSelector,
    SharedDraws,
    movement_substeps,
    place_groups,
)
from .participation import AlwaysRespond, ParticipationModel
from .phenomena import PhenomenonField
from .sensor import MobileSensor
from .state import SensorStateArrays


@dataclass(frozen=True)
class WorldConfig:
    """Configuration of a :class:`SensingWorld`.

    Attributes
    ----------
    region:
        The rectangular world region ``R``.
    sensor_count:
        Number of mobile sensors to create (a positive integer, not a bool).
    seed:
        Seed of the world's random generator.
    movement_step:
        Time granularity at which movement *events* are resolved within an
        ``advance`` (a waypoint reached, a pause running out, a Gaussian
        step drawn).  Nothing observes the world between sub-steps, so a
        sensor with no event in the window — a waypoint walker still short
        of its target — is moved once for the whole ``advance`` rather than
        once per ``movement_step``.  Positive and finite.
    vectorized_rng:
        Selects the fast-sim RNG contract: one shared random stream across
        all sensors, drawn by the batch mobility kernels and by the
        handler's population-level acquisition sampling.  The default
        ``False`` keeps strict per-sensor keyed streams (a sensor moves and
        answers the same whatever the rest of the crowd does, and runs the
        same kernels); flip it on for large-scale simulation where
        statistical equivalence suffices.
    """

    region: Rectangle
    sensor_count: int = 100
    seed: Optional[int] = None
    movement_step: float = 0.1
    vectorized_rng: bool = False

    def __post_init__(self) -> None:
        check_seed(self.seed, "the world")
        count = self.sensor_count
        if isinstance(count, bool) or not isinstance(count, Integral) or count <= 0:
            raise CraqrError(f"sensor_count must be a positive integer, got {count!r}")
        if not 0 < self.movement_step < math.inf:
            raise CraqrError("movement_step must be positive and finite")


def _compact_groups(
    state: SensorStateArrays, groups: List[Tuple[MobilityModel, RowSelector]]
) -> Tuple[np.ndarray, Optional[SensorStateArrays], List[tuple]]:
    """Gather the rows of every index-array group once, into one compact copy.

    ``groups`` are ``(model, selector)`` pairs as ``skip_ahead`` left them:
    disjoint, each ascending.  Returns ``(rows, compact, steps)``: the
    concatenated index arrays, their :meth:`SensorStateArrays.take_movement`
    copy (``None`` when there is nothing to gather) and ``(model, arrays,
    selector)`` triples, an index-array group becoming its ``slice`` of the
    copy — so its kernels take the view path — and a ``slice`` group
    staying on ``state``.
    """
    picked = [sel for _, sel in groups if not isinstance(sel, slice)]
    rows = np.concatenate(picked or [[]]).astype(np.int64, copy=False)
    if not rows.size:
        return rows, None, [(model, state, sel) for model, sel in groups]
    compact = state.take_movement(rows)
    steps, start = [], 0
    for model, sel in groups:
        if isinstance(sel, slice):
            steps.append((model, state, sel))
        else:
            steps.append((model, compact, slice(start, start + len(sel))))
            start += len(sel)
    return rows, compact, steps


def _row_selector(rows: np.ndarray) -> RowSelector:
    """A ``slice`` for a contiguous ascending run of rows, else the int64 array."""
    first, last = int(rows[0]), int(rows[-1])
    if last - first + 1 == len(rows):
        return slice(first, last + 1)
    return rows.astype(np.int64, copy=False)


def _run_codes(runs: List[Tuple[int, int]], count: int) -> np.ndarray:
    """The int32 code of each of ``count`` rows, given each run's ``(first row, code)``."""
    starts, codes = zip(*runs)
    return np.repeat(np.array(codes, dtype=np.int32), np.diff((*starts, count)))


class SensingWorld:
    """The simulated crowd of mobile sensors and the phenomena they observe."""

    def __init__(
        self,
        config: WorldConfig,
        *,
        mobility_factory: Optional[Callable[[Rectangle], MobilityModel]] = None,
        participation_factory: Optional[Callable[[int], ParticipationModel]] = None,
    ) -> None:
        self._config = config
        self._rng = np.random.default_rng(config.seed)
        # Drawn from no generator: the world stream is the handler's and
        # fast-sim movement's alone.
        self._acquisition_key = derive_key(config.seed)
        self._clock = SimulationClock()
        mobility_factory = mobility_factory or (lambda region: RandomWaypointMobility(region))
        always = AlwaysRespond()
        # Both factories are still called once per sensor, in id order, but
        # only the first model of each group is kept: key -> (code, model).
        # A dict is probed only when a sensor's key differs from the previous
        # sensor's (a stateful participation model's key is its id), and each
        # run of equal keys is recorded once, as (first row, code).
        mobility: Dict[Hashable, Tuple[int, MobilityModel]] = {}
        participation: Dict[Hashable, Tuple[int, ParticipationModel]] = {}
        mobility_runs, participation_runs = [], []
        mobility_key = participation_key = object()  # equal to no key
        for sensor_id in range(config.sensor_count):
            model = mobility_factory(config.region)
            key = model.batch_key()
            if key != mobility_key:
                code, _ = mobility.setdefault(key, (len(mobility), model))
                mobility_runs.append((sensor_id, code))
                mobility_key = key
            model = participation_factory(sensor_id) if participation_factory else always
            params = model.vector_params()
            key = id(model) if params is None else (type(model), params)
            if key != participation_key:
                code, _ = participation.setdefault(key, (len(participation), model))
                participation_runs.append((sensor_id, code))
                participation_key = key
        state = self._state = SensorStateArrays(config.sensor_count)
        state.sensor_ids[:] = np.arange(config.sensor_count)
        self._participation_models = [model for _, model in participation.values()]
        state.set_participation(
            _run_codes(participation_runs, config.sensor_count),
            [m.vector_params() for m in self._participation_models],
        )
        # Each group's ascending rows resolve once to the *row selector* its
        # kernels receive: a ``slice`` when contiguous (every single-model
        # crowd), so they work on views of the columns; the int64 index
        # array otherwise (interleaved groups of a mixed crowd).
        self._mobility_codes = codes = _run_codes(mobility_runs, config.sensor_count)
        rows = np.split(np.argsort(codes, kind="stable"), np.cumsum(np.bincount(codes))[:-1])
        self._mobility_groups: List[Tuple[MobilityModel, RowSelector]] = [
            (model, _row_selector(group)) for (_, model), group in zip(mobility.values(), rows)
        ]
        place_groups(state, self._mobility_groups, self._acquisition_key)
        self._fields: Dict[str, PhenomenonField] = {}

    # ------------------------------------------------------------------
    @property
    def config(self) -> WorldConfig:
        """The world's configuration."""
        return self._config

    @property
    def region(self) -> Rectangle:
        """The world region ``R``."""
        return self._config.region

    @property
    def clock(self) -> SimulationClock:
        """The shared simulation clock."""
        return self._clock

    @property
    def now(self) -> float:
        """Current simulation time."""
        return self._clock.now

    @property
    def sensors(self) -> Sequence[MobileSensor]:
        """A view of every mobile sensor, in id order, built on each call."""
        return tuple(self.sensors_at(np.arange(len(self._state))))

    @property
    def state_arrays(self) -> SensorStateArrays:
        """The struct-of-arrays backing every sensor's mutable state."""
        return self._state

    @property
    def vectorized(self) -> bool:
        """Whether the world runs in shared-stream fast-sim mode."""
        return self._config.vectorized_rng

    @property
    def rng(self) -> np.random.Generator:
        """The world's random generator (used by the handler for sampling)."""
        return self._rng

    @property
    def acquisition_key(self) -> int:
        """Key word of the sensors' keyed answer and movement streams (a plain ``int``).

        Derived from ``WorldConfig.seed`` by :func:`repro.rng.derive_key`;
        the second key word is the sensor id.
        """
        return self._acquisition_key

    @property
    def attributes(self) -> List[str]:
        """Names of the attributes that have a registered field."""
        return list(self._fields.keys())

    # ------------------------------------------------------------------
    def register_field(self, field_model: PhenomenonField) -> None:
        """Register the phenomenon field backing an attribute."""
        if not field_model.attribute:
            raise CraqrError("a phenomenon field must name its attribute")
        self._fields[field_model.attribute] = field_model

    def field_for(self, attribute: str) -> PhenomenonField:
        """The field backing ``attribute``."""
        try:
            return self._fields[attribute]
        except KeyError:
            raise AcquisitionError(
                f"no phenomenon field registered for attribute '{attribute}'"
            ) from None

    def has_attribute(self, attribute: str) -> bool:
        """Whether a field is registered for the attribute."""
        return attribute in self._fields

    # ------------------------------------------------------------------
    def advance(self, duration: float) -> float:
        """Advance the clock by ``duration``, moving every sensor along the way.

        The movement sub-steps (``movement_step`` long, the last one
        whatever remains; :func:`~repro.sensing.mobility.movement_substeps`)
        are fixed up front.  Sub-stepping resolves *events* (a waypoint
        reached, a pause over, a target drawn), not straight-line motion:
        each mobility-model group is first asked, once and without a draw,
        to ``skip_ahead`` — a waypoint walker that cannot reach its target
        within ``duration`` takes the whole window in one stride — and then
        one vectorised ``step_batch`` kernel per group per sub-step moves
        the rows that hook handed back, step-major.  Only index-array
        groups are compacted: the index arrays it hands back are gathered
        once, all groups together, into one compact copy of the movement
        columns (:func:`_compact_groups`), the kernels sub-step their slices
        of it as views, and it is scattered back once at the end.  A group
        it hands back as a ``slice`` — every contiguous group with no quiet
        row, such as a freshly placed crowd of waypoint walkers, none of
        which has a target yet — is sub-stepped in place on the world's
        columns.  The kernels draw through the mode's policy: fast-sim's
        shared generator, consumed exactly as if every row were sub-stepped
        (the skipped rows' positions agree with that up to rounding), or
        strict's keyed movement blocks, which make a sensor's move
        independent of its crowd — built over the compact copy, it draws
        every compact row's next block in one Philox call and only a row's
        second or later block of the window again (a group left in place
        draws per kernel call).  None of this moves a
        bit against gathering and drawing per kernel call.  Advance is
        atomic: nothing observes the SoA between sub-steps.  A non-positive
        ``duration``, or one the sub-step loop cuts into nothing (1e-12 or
        less), is a :class:`~repro.errors.CraqrError`, raised before
        anything moves.
        """
        dts = movement_substeps(duration, self._config.movement_step)
        state = self._state
        rows, compact, steps = _compact_groups(
            state,
            [
                (model, model.kernel_skip_ahead(state, sel, duration))
                for model, sel in self._mobility_groups
            ],
        )
        if self._config.vectorized_rng:
            draws = SharedDraws(self._rng)
        else:
            draws = KeyedDraws(self._acquisition_key, prefetch=compact)
        for dt in dts:
            for model, arrays, sel in steps:
                model.step_batch(arrays, sel, dt, draws)
        if compact is not None:
            state.put_movement(rows, compact)
        for dt in dts:
            self._clock.advance(dt)
        return self._clock.now

    def sensors_at(self, indices: np.ndarray) -> List[MobileSensor]:
        """Views of the sensors at the given SoA row indices (a row is its id), built now."""
        return [
            MobileSensor(
                i,
                self._mobility_groups[mobility][0],
                participation=self._participation_models[participation],
                state_arrays=self._state,
                index=i,
                acquisition_key=self._acquisition_key,
            )
            for i, mobility, participation in zip(
                np.asarray(indices).tolist(),
                self._mobility_codes[indices].tolist(),
                self._state.participation[indices].tolist(),
            )
        ]

    def participation_at(self, indices: np.ndarray) -> List[ParticipationModel]:
        """The participation model of each of the given SoA rows (no view is built)."""
        models = self._participation_models
        return [models[code] for code in self._state.participation[indices].tolist()]

    def density_snapshot(self, nx: int = 8, ny: int = 8) -> np.ndarray:
        """Counts of sensors in an ``ny x nx`` grid — a quick view of spatial skew.

        One vectorised bincount over the SoA position columns, using the
        same truncation arithmetic as the original per-sensor loop so the
        counts are identical.  Positions outside the region — possible with
        custom mobility models that escape the bounds — are clipped into the
        nearest boundary bucket rather than producing negative indices
        (which would crash ``bincount`` or silently miscount via
        ``r * nx + q`` collisions).
        """
        if nx <= 0 or ny <= 0:
            raise CraqrError("grid dimensions must be positive")
        region = self._config.region
        q = np.clip(
            ((self._state.x - region.x_min) / region.width * nx).astype(np.int64),
            0,
            nx - 1,
        )
        r = np.clip(
            ((self._state.y - region.y_min) / region.height * ny).astype(np.int64),
            0,
            ny - 1,
        )
        counts = np.bincount(r * nx + q, minlength=nx * ny)
        return counts.reshape(ny, nx)

"""Mobility models for mobile sensors.

The paper's core motivation is that crowdsensed data has a highly skewed
spatio-temporal distribution "caused largely due to the mobility of
sensors".  These models generate that mobility:

* :class:`StationaryMobility` — a degenerate model for WSN-style baselines.
* :class:`RandomWaypointMobility` — the classic pick-a-destination-and-walk
  model; produces centre-heavy spatial densities.
* :class:`HotspotMobility` — sensors are attracted to a set of hotspots,
  producing the strong spatial skew used in the skew-mitigation experiment.

A model moves sensors one way only: ``step_batch(arrays, indices, dt,
draws)`` advances a group of rows at once as masked array operations over
a :class:`~repro.sensing.state.SensorStateArrays`, and ``batch_key()``
names the group.  Both are abstract on :class:`MobilityModel`; a model
that lacks either cannot be constructed.  A third kernel,
``initial_state_batch(arrays, sel, block)``, *places* a group's rows, once,
from one keyed block per row (:func:`place_groups`: block 0 of the stream
keyed ``(world.acquisition_key, sensor id)`` with counter word 1 =
:data:`~repro.rng.PLACEMENT`, under both RNG contracts, so a sensor's place
depends on the seed and its id only); the base class places uniformly.  The
movement kernel runs under both RNG contracts, which differ only in the
draw policy ``draws``:

* :class:`SharedDraws` (fast-sim) wraps the world's one generator and
  makes each draw as one call of it, in the kernels' step-major order —
  statistically equivalent to strict, not bit-equal, which is the trade
  the world's ``vectorized_rng`` mode makes.  A bare ``Generator`` is
  taken as the shared policy over it.
* :class:`KeyedDraws` (strict) gives each row that draws one Philox block
  keyed ``(world.acquisition_key, sensor id)`` at counter ``(moves_drawn,
  MOVEMENT, 0, 0)`` and bumps that row's ``moves_drawn``, so a sensor's
  trajectory depends on the seed, its id, its state and the sub-step
  ``dt``\\ s — never on the rest of the crowd.  Moving one sensor alone
  (:meth:`~repro.sensing.MobileSensor.move`, a one-row slice) and moving
  its crowd give the same bytes.  The world's ``advance`` builds it over
  the window's compact copy, which draws every row's next block in one
  call up front; only a row's second or later draw of the window is drawn
  again.

A kernel asks its policy for the draws of one sub-step with
``draws.rows(arrays, sel, size, where)`` and reads them by *block word*:
``random(word)``, ``uniform(word, low, high)``, ``normal(word, scale)``
(a pair, words ``word`` and ``word + 1``) and ``choice(word, mask, p)``.
The shared policy ignores the words and the rows; the keyed one ignores
``size``.  Each model's ``step_batch`` docstring records its words.

The kernels are *gather-free*: moving the crowd is most of a large fast-sim
batch, and at 100k rows a kernel's cost is memory passes, not arithmetic.
``indices`` is a row selector (:data:`RowSelector`) and a step is a fixed
sequence of full-width ufuncs over it.  The world hands its kernels
slices: a contiguous group (every single-model crowd) that ``skip_ahead``
leaves whole is a ``slice`` of the world's columns, and every group that
``skip_ahead`` narrows to an index array — or that is interleaved with
another — is gathered once per ``advance``, with the others, into one
compact copy of the movement columns, of which it gets a ``slice``; the
copy is scattered back once after the last sub-step.  Other callers may
hand an ascending int64 index array.  New mobility models follow the same
rules:

* **take each column once through the selector** (``x = arrays.x[sel]``: a
  view for a slice, one gather for an index array), work on it in place,
  and scatter the touched columns back once, only when they were gathered;
  read and write only the movement columns and ``sensor_ids`` (the compact
  copy has no others);
* **mask instead of compacting**: rows a step does not apply to ride through
  the arithmetic and are excluded by ``np.copyto(dst, src, where=mask)``,
  never by ``arrays.x[idx[mask]]`` subsets (reuse temporaries with ``out=``);
* **keep the draw order**: same policy call, arguments, count and
  sequence, assigned through a boolean mask in ascending row order — and
  keep each float expression's operation order (``x + (travel * dx) / safe``;
  distances go through :func:`_distance`), because seeded results are pinned
  bit-for-bit (``tests/sensing/test_mobility_kernels.py`` holds the
  pre-rewrite gather/scatter bodies as the fast-sim reference, and
  ``tests/sensing/test_crowd_independence.py`` holds each strict sensor
  moved alone as the keyed one);
* **declare what can be skipped**: the world sub-steps an ``advance`` only
  to resolve *events* (an arrival, a pause running out, a target drawn), so
  before the sub-steps it asks each group once, through
  ``skip_ahead(arrays, indices, duration)``, for the rows that still need
  them.  The hook draws nothing (it is handed no generator, so the shared
  stream is consumed in the same order with or without it), returns an
  ascending selector, and may move a row by the whole window only if no
  event falls inside it and one ``step_batch(dt=duration)`` equals the
  composed sub-steps up to rounding — straight-line motion, in practice.
  The base class skips nothing, which is right for every model whose step
  draws (``tests/sensing/test_skip_ahead.py`` holds the full-width sub-step
  loop as the reference).  The world uses a ``skip_ahead`` only when the
  class that defines the group's ``step_batch`` defines it too: a subclass
  with a kernel of its own never has its rows moved by an inherited rule.

``batch_key()`` returns a hashable grouping key: sensors whose models share
a key are stepped by one ``step_batch`` call.  The key built by
``_kernel_key`` starts with the model's class, so a subclass — even one
that inherits its parent's kernel — always forms its own group.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from typing import Hashable, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..errors import CraqrError
from ..geometry import Rectangle
from ..rng import MOVEMENT, PLACEMENT, keyed_uniforms
from .state import SensorStateArrays

#: Distances below this are treated as "already at the target".
_TINY = 1e-12


def _distance(dx: np.ndarray, dy: np.ndarray) -> np.ndarray:
    """``sqrt(dx*dx + dy*dy)`` as three ufunc calls: square, add, sqrt.

    Each call is one correctly rounded IEEE operation, so every element is
    bit-equal to the scalar ``math.sqrt(dx*dx + dy*dy)`` on any build —
    libm's ``hypot`` promises no such thing, and costs about seven times
    as much.  Within 1 ulp of ``hypot`` while the distance is at least
    1e-150; below that the squares lose bits (a subnormal ``dx`` squares to
    0), which only ever lands under :data:`_TINY`, where a kernel treats the
    row as at its target either way.  :class:`MobilityModel` refuses a
    region whose squared diagonal overflows, so the sum stays finite.
    """
    distance = np.multiply(dx, dx)
    square = np.multiply(dy, dy)
    np.add(distance, square, out=distance)
    return np.sqrt(distance, out=distance)


#: How ``step_batch`` addresses its group's SoA rows: a ``slice`` when they
#: are contiguous, otherwise an ascending int64 index array.
RowSelector = Union[slice, np.ndarray]


def movement_substeps(duration: float, step: float) -> List[float]:
    """The sub-step ``dt``\\ s an ``advance`` of ``duration`` resolves events at.

    The subtraction loop is the contract: the last sub-step of a 1.0 window
    at step 0.1 is 0.09999999999999987, not 0.1.  Every movement window is
    cut here, so this is where a window the loop cannot cut is refused: a
    non-positive (or infinite) ``duration``, a non-positive ``step``, and a
    ``duration`` of 1e-12 or less, which the loop would cut into no
    sub-step at all (a window that moves nothing and leaves the clock).
    """
    if not 0 < duration < math.inf:
        raise CraqrError("duration must be positive and finite")
    if not step > 0:
        raise CraqrError("movement step must be positive")
    dts: List[float] = []
    remaining = duration
    while remaining > 1e-12:
        dt = min(step, remaining)
        dts.append(dt)
        remaining -= dt
    if not dts:
        raise CraqrError(f"duration {duration!r} is too short to cut into a sub-step")
    return dts


class _GeneratorRows:
    """One sub-step's draws from a shared generator: one call per request."""

    __slots__ = ("_rng", "_size")

    def __init__(self, rng: np.random.Generator, size: int) -> None:
        self._rng = rng
        self._size = size

    def random(self, word: int) -> np.ndarray:
        return self._rng.random(self._size)

    def uniform(self, word: int, low: float, high: float) -> np.ndarray:
        return self._rng.uniform(low, high, self._size)

    def normal(self, word: int, scale: float) -> np.ndarray:
        return self._rng.normal(0.0, scale, (2, self._size))

    def choice(self, word: int, mask: np.ndarray, p: np.ndarray) -> np.ndarray:
        return self._rng.choice(len(p), size=int(np.count_nonzero(mask)), p=p)


class _BlockRows:
    """One sub-step's draws as words of one keyed block per row."""

    __slots__ = ("_u",)

    def __init__(self, u: np.ndarray) -> None:
        self._u = u

    def random(self, word: int) -> np.ndarray:
        return self._u[word]

    def uniform(self, word: int, low: float, high: float) -> np.ndarray:
        return low + (high - low) * self._u[word]

    def normal(self, word: int, scale: float) -> np.ndarray:
        # Box-Muller on the numpy ufuncs: 1 - u is in (0, 1], the log finite.
        radius = np.sqrt(-2.0 * np.log1p(-self._u[word]))
        angle = (2.0 * np.pi) * self._u[word + 1]
        return scale * np.stack((radius * np.cos(angle), radius * np.sin(angle)))

    def choice(self, word: int, mask: np.ndarray, p: np.ndarray) -> np.ndarray:
        # Inverse CDF, as Generator.choice turns its uniform into an index.
        cdf = np.cumsum(p)
        cdf /= cdf[-1]
        return np.searchsorted(cdf, self._u[word][mask], side="right")


class SharedDraws:
    """Fast-sim draw policy: the world's one generator, called as the kernels always did.

    ``rows`` ignores which rows draw and hands back ``size``-long draws,
    each one generator call made when the kernel asks for it — so a kernel
    consumes the shared stream with the same methods, arguments, counts and
    order as before draw policies existed (the three fast-sim run digests
    hold that).
    """

    __slots__ = ("_rng",)

    def __init__(self, rng: np.random.Generator) -> None:
        self._rng = rng

    def rows(self, arrays, sel, size, where=None) -> _GeneratorRows:
        del arrays, sel, where
        return _GeneratorRows(self._rng, size)


class KeyedDraws:
    """Strict draw policy: one keyed Philox block per row that draws.

    ``rows(arrays, sel, size, where)`` hands, to each row of ``sel`` (only
    those ``where`` is True when given), block ``moves_drawn[row]`` of the
    stream keyed ``(key, sensor_ids[row])`` with counter word 1 =
    :data:`~repro.rng.MOVEMENT`, and bumps those rows' ``moves_drawn``.
    Nothing else is read, so a row draws the same block whichever crowd,
    group or order it is moved in.

    Without ``prefetch`` every ``rows`` call is one
    :func:`~repro.rng.keyed_uniforms` call (what
    :meth:`~repro.sensing.MobileSensor.move` and a world group still on the
    world's columns pay).  ``prefetch`` is the compact array of one
    ``advance``: every one of its rows' next block is drawn up front, in
    one call, and ``rows`` over that array serves a row from the table
    while its ``moves_drawn`` still equals the prefetched counter — only a
    row's second or later draw of the window misses, and a call's misses
    are drawn in one call over just those rows.  A block is a pure function
    of ``(key, id, counter)``, so drawing it early moves no bit, and a
    prefetched block nobody asks for is never consumed.  Holds no state
    beyond one ``advance``.
    """

    __slots__ = ("_key", "_arrays", "_counters", "_table")

    def __init__(self, key: int, prefetch: Optional[SensorStateArrays] = None) -> None:
        self._key = key
        self._arrays = prefetch
        if prefetch is not None:
            self._counters = prefetch.moves_drawn.copy()
            self._table = keyed_uniforms(key, prefetch.sensor_ids, self._counters, MOVEMENT)

    def rows(self, arrays, sel, size, where=None) -> _BlockRows:
        del size
        prefetched = arrays is self._arrays
        if isinstance(sel, slice) and (prefetched or where is not None):
            sel = np.arange(*sel.indices(len(arrays)))
        if where is not None:
            sel = sel[where]
        counters = arrays.moves_drawn[sel]
        if prefetched:
            u = self._table[:, sel]  # a copy: ``sel`` is an index array here
            miss = counters != self._counters[sel]
            if miss.any():
                u[:, miss] = keyed_uniforms(
                    self._key, arrays.sensor_ids[sel[miss]], counters[miss], MOVEMENT
                )
        else:
            u = keyed_uniforms(self._key, arrays.sensor_ids[sel], counters, MOVEMENT)
        arrays.moves_drawn[sel] += 1  # ascending selectors: every row once
        return _BlockRows(u)


def _as_draws(draws) -> Union[SharedDraws, KeyedDraws]:
    """A kernel's draw policy: a bare ``Generator`` is the shared policy over it.

    The kernel protocol took a generator before it took a policy, and the
    fast-sim oracles and custom callers still hand one in.
    """
    if isinstance(draws, np.random.Generator):
        return SharedDraws(draws)
    return draws


def _as_selector(indices) -> Tuple[RowSelector, bool]:
    """Normalise a ``step_batch`` row selector to ``(selector, gathered)``.

    A ``slice`` indexes the SoA columns as *views* — the kernel's in-place
    writes land in the world directly.  Anything else becomes an int64
    index array: indexing *gathers* a copy per column, which the kernel
    scatters back once at the end (``gathered`` is True).
    """
    if isinstance(indices, slice):
        return indices, False
    return np.asarray(indices, dtype=np.int64), True


def place_groups(
    arrays: SensorStateArrays, groups: Sequence[Tuple[MobilityModel, RowSelector]], key: int
) -> None:
    """Place every row of ``groups`` from its keyed placement block, in one draw.

    Row ``i`` takes block 0 of the stream keyed ``(key, sensor_ids[i])``
    with counter word 1 = :data:`~repro.rng.PLACEMENT` — one
    :func:`~repro.rng.keyed_uniforms` call over all of ``arrays`` — and its
    group's :meth:`MobilityModel.initial_state_batch` turns the block into
    its place.  No generator is drawn from, so a row lands where it lands in
    any crowd, group or RNG contract.  The rows must be fresh (every
    movement column at its :class:`~repro.sensing.state.SensorStateArrays`
    default).
    """
    u = keyed_uniforms(key, arrays.sensor_ids, 0, PLACEMENT)
    for model, sel in groups:
        model.initial_state_batch(arrays, sel, _BlockRows(u[:, sel]))


class MobilityModel(ABC):
    """Abstract mobility model.

    The region must be finite, and so must its squared diagonal
    ``width*width + height*height``: the kernels' :func:`_distance` squares
    a step's offsets, so an infinite bound would turn positions NaN and an
    overflowed square would leave every distance infinite and the crowd
    frozen.
    """

    def __init__(self, region: Rectangle) -> None:
        # One check per model, and a world builds one model per sensor: an
        # infinite bound makes an infinite extent, so it fails here too.
        width = region.x_max - region.x_min
        height = region.y_max - region.y_min
        if not math.isfinite(width * width + height * height):
            bounds = (region.x_min, region.y_min, region.x_max, region.y_max)
            if not all(map(math.isfinite, bounds)):
                raise CraqrError(f"mobility needs a finite region; got {region}")
            raise CraqrError(
                f"region {region} is too large: its squared diagonal overflows"
            )
        self._region = region

    @property
    def region(self) -> Rectangle:
        """The world rectangle sensors move in."""
        return self._region

    def initial_state_batch(
        self, arrays: SensorStateArrays, sel: RowSelector, block
    ) -> None:
        """Place the fresh rows ``sel`` uniformly in the region.

        ``block`` holds one keyed block per row (see :func:`place_groups`),
        read by word like a step's draws: words 0/1 are the two
        coordinates.  An override may use words 2/3 and write any movement
        column; the rest of a fresh row is at rest, without a target.
        """
        region = self._region
        arrays.x[sel] = block.uniform(0, region.x_min, region.x_max)
        arrays.y[sel] = block.uniform(1, region.y_min, region.y_max)

    @abstractmethod
    def batch_key(self) -> Hashable:
        """Grouping key for the kernel; build it with :meth:`_kernel_key`.

        Two model instances with equal keys must behave identically, so the
        world may route all their sensors through one :meth:`step_batch`
        call on a representative instance.
        """

    def _kernel_key(self, *params: Hashable) -> Hashable:
        """A ``batch_key`` tuple of ``(class, region, *params)``.

        The class keeps distinct subclasses from ever sharing a group.
        """
        return (type(self), self._region) + params

    @abstractmethod
    def step_batch(
        self,
        arrays: SensorStateArrays,
        indices: RowSelector,
        dt: float,
        draws,
    ) -> None:
        """Advance the rows ``indices`` of ``arrays`` by ``dt`` at once.

        ``indices`` is the group's *row selector*: from the world always a
        ``slice`` — of its own columns, or of the compact copy ``advance``
        gathers the index-array groups into (then ``arrays`` is that copy) —
        from other callers possibly an ascending int64 index array (any
        integer sequence is accepted).  ``draws`` is
        the draw policy (:class:`SharedDraws`, :class:`KeyedDraws` or a bare
        ``Generator``).  A sub-step may depend only on the rows' state,
        ``dt`` and the draws — not on the clock or on other rows — which is
        what lets a sensor moved alone land where its crowd moves it.

        A kernel follows four rules (see the module docstring): take each
        column once through the selector, mask instead of compacting, keep
        the draw order, declare what can be skipped.
        """

    def skip_ahead(
        self, arrays: SensorStateArrays, indices: RowSelector, duration: float
    ) -> RowSelector:
        """Move the rows nothing happens to within ``duration``; return the rest.

        Called once per group at the top of an ``advance`` (and per sensor
        by :meth:`~repro.sensing.MobileSensor.move`), before the sub-steps,
        which then run over the returned (ascending) selector only.  An
        override draws nothing and may move a row by the whole window only
        if no event of the model falls inside it and one
        ``step_batch(dt=duration)`` equals the composed sub-steps up to
        rounding.
        The base class skips nothing: a model whose step draws has an event
        in every sub-step.
        """
        del arrays, duration
        return indices

    def kernel_skip_ahead(
        self, arrays: SensorStateArrays, indices: RowSelector, duration: float
    ) -> RowSelector:
        """:meth:`skip_ahead`, unless it belongs to another class's kernel.

        What ``SensingWorld.advance`` calls.  A ``skip_ahead`` states which
        rows *its own* ``step_batch`` leaves on a straight line, so it is
        honoured only when the class this model's ``step_batch`` comes from
        defines one too; a subclass that ships its own kernel (per-row
        speed, say) and inherits the parent's ``skip_ahead`` gets every row
        sub-stepped instead of most of them moved by the parent's rule.
        """
        for cls in type(self).__mro__:
            if "step_batch" in vars(cls):
                if "skip_ahead" in vars(cls):
                    return self.skip_ahead(arrays, indices, duration)
                break
        return indices

    def _clamp_batch(self, x: np.ndarray, y: np.ndarray) -> None:
        """Keep the position columns inside the region, in place."""
        region = self._region
        np.clip(x, region.x_min, region.x_max, out=x)
        np.clip(y, region.y_min, region.y_max, out=y)


class StationaryMobility(MobilityModel):
    """Sensors that never move (traditional WSN baseline)."""

    def batch_key(self) -> Hashable:
        return self._kernel_key()

    def step_batch(self, arrays, indices, dt, draws) -> None:
        del arrays, indices, dt, draws  # nothing moves, nothing is drawn


class RandomWaypointMobility(MobilityModel):
    """Pick a uniform destination, walk towards it at constant speed, pause, repeat."""

    def __init__(
        self,
        region: Rectangle,
        *,
        speed: float = 0.2,
        pause: float = 0.5,
    ) -> None:
        super().__init__(region)
        if not 0 < speed < math.inf:
            raise CraqrError("speed must be positive and finite")
        if not 0 <= pause < math.inf:
            raise CraqrError("pause must be non-negative and finite")
        self._speed = speed
        self._pause = pause

    def batch_key(self) -> Hashable:
        return self._kernel_key(self._speed, self._pause)

    def step_batch(self, arrays, indices, dt, draws) -> None:
        """Keyed: one block per target drawn, words 0/1 its two coordinates."""
        sel, gathered = _as_selector(indices)
        x, y = arrays.x[sel], arrays.y[sel]
        tx, ty = arrays.target_x[sel], arrays.target_y[sel]
        pause = arrays.pause_remaining[sel]
        region = self._region
        # Pausing sensors only run their timer down this step; they start
        # walking again on the *next* step.  Their
        # (NaN) targets ride through the arithmetic below and every write
        # is masked by ``active``, so they neither move nor get clamped.
        paused = pause > 0.0
        active = ~paused
        need = np.isnan(tx)
        need &= active
        count = int(np.count_nonzero(need))
        if count:
            targets = _as_draws(draws).rows(arrays, sel, count, need)
            tx[need] = targets.uniform(0, region.x_min, region.x_max)
            ty[need] = targets.uniform(1, region.y_min, region.y_max)
        dx = tx - x
        dy = ty - y
        distance = _distance(dx, dy)
        travel = self._speed * dt
        arrive = travel >= distance
        arrive &= active
        safe = np.maximum(distance, _TINY, out=distance)
        for pos, target, delta in ((x, tx, dx), (y, ty, dy)):
            # pos + (travel * delta) / safe, or the target itself on arrival
            np.multiply(travel, delta, out=delta)
            np.divide(delta, safe, out=delta)
            np.add(pos, delta, out=delta)
            np.copyto(delta, target, where=arrive)
            np.copyto(target, np.nan, where=arrive)
        self._clamp_batch(dx, dy)
        np.copyto(x, dx, where=active)
        np.copyto(y, dy, where=active)
        # Timers: paused rows run down, walkers hold 0, arrivals start a pause.
        np.subtract(pause, dt, out=pause)
        np.maximum(0.0, pause, out=pause)
        np.copyto(pause, 0.0, where=active)
        np.copyto(pause, self._pause, where=arrive)
        if gathered:
            arrays.x[sel], arrays.y[sel] = x, y
            arrays.target_x[sel], arrays.target_y[sel] = tx, ty
            arrays.pause_remaining[sel] = pause

    def skip_ahead(self, arrays, indices, duration):
        """One stride for every walker that cannot arrive within ``duration``.

        A row is *quiet* when it has a target, is not pausing and is
        further from the target than the window's travel — by a relative
        margin of 1e-9 (3e-10 on a 0.3 stride) that dwarfs the ≈1e-15 the
        sub-steps' rounding accumulates, so a borderline row is never
        quiet and is sub-stepped like every row an event can reach (a NaN
        target compares false).  Quiet rows take the kernel's own move once
        with ``travel = speed * duration``; their targets and timers are
        what the sub-steps would leave.  Positions and targets are taken to
        lie inside the region, as every state this model produces does.

        A crowd in which every row is eventful pays this one full-width
        pass on top of its sub-steps, and gets its selector back untouched.
        """
        sel, gathered = _as_selector(indices)
        x, y = arrays.x[sel], arrays.y[sel]
        dx = arrays.target_x[sel] - x
        dy = arrays.target_y[sel] - y
        distance = _distance(dx, dy)
        travel = self._speed * duration
        quiet = distance > travel * (1 + 1e-9)
        quiet &= ~(arrays.pause_remaining[sel] > 0.0)
        if not quiet.any():
            # Every row is eventful (a fresh crowd has no target yet): the
            # selector goes back as it came, so a slice stays a slice.
            return indices
        # Every row strides in place; the few the sub-steps will move are
        # put back as they were.
        rest = np.flatnonzero(~quiet)
        x_rest, y_rest = x[rest], y[rest]
        safe = np.maximum(distance, _TINY, out=distance)
        for pos, delta in ((x, dx), (y, dy)):
            # pos + (travel * delta) / safe, as in step_batch
            np.multiply(travel, delta, out=delta)
            np.divide(delta, safe, out=delta)
            np.add(pos, delta, out=pos)
        self._clamp_batch(x, y)
        x[rest], y[rest] = x_rest, y_rest
        if gathered:
            arrays.x[sel], arrays.y[sel] = x, y
            return sel[rest]
        start, _, step = sel.indices(len(arrays))
        return start + step * rest


class HotspotMobility(MobilityModel):
    """Sensors gravitate towards hotspots, producing strong spatial skew.

    Each step the sensor moves towards its currently assigned hotspot with
    some jitter; occasionally it re-samples which hotspot it is attracted to
    (weighted by hotspot popularity).
    """

    def __init__(
        self,
        region: Rectangle,
        hotspots: Sequence[Tuple[float, float, float]],
        *,
        speed: float = 0.2,
        jitter: float = 0.03,
        switch_probability: float = 0.02,
    ) -> None:
        super().__init__(region)
        if not hotspots:
            raise CraqrError("hotspot mobility needs at least one hotspot")
        for spot in hotspots:
            if len(spot) != 3 or not all(map(math.isfinite, spot)) or not spot[2] > 0:
                raise CraqrError("hotspots must be finite (x, y, weight>0) triples")
        if not (0 < speed < math.inf and 0 <= jitter < math.inf):
            raise CraqrError("speed must be positive and jitter non-negative, both finite")
        if not 0 <= switch_probability <= 1:
            raise CraqrError("switch_probability must be in [0, 1]")
        self._hotspots = [(float(x), float(y), float(w)) for x, y, w in hotspots]
        weights = np.array([w for _, _, w in self._hotspots])
        self._weights = weights / weights.sum()
        xs = [x for x, _, _ in self._hotspots]
        ys = [y for _, y, _ in self._hotspots]
        self._hotspot_xs = np.array(xs)
        self._hotspot_ys = np.array(ys)
        # A sensor in the region steps towards a hotspot that may lie
        # outside it: their joint extent must square finitely too.
        span_x = max(region.x_max, *xs) - min(region.x_min, *xs)
        span_y = max(region.y_max, *ys) - min(region.y_min, *ys)
        if not math.isfinite(span_x * span_x + span_y * span_y):
            raise CraqrError("hotspots lie so far from the region that distances overflow")
        self._speed = speed
        self._jitter = jitter
        self._switch_probability = switch_probability

    def initial_state_batch(self, arrays, sel, block) -> None:
        """Uniform, as the base class places; word 2 picks each row's hotspot."""
        super().initial_state_batch(arrays, sel, block)
        choice = block.choice(2, slice(None), self._weights)
        arrays.target_x[sel] = self._hotspot_xs[choice]
        arrays.target_y[sel] = self._hotspot_ys[choice]

    def batch_key(self) -> Hashable:
        return self._kernel_key(
            tuple(self._hotspots), self._speed, self._jitter,
            self._switch_probability,
        )

    def step_batch(self, arrays, indices, dt, draws) -> None:
        """Keyed: one block per row per sub-step — word 0 the switch, word 1
        the hotspot (inverse CDF), words 2/3 the two jitter normals."""
        sel, gathered = _as_selector(indices)
        x, y = arrays.x[sel], arrays.y[sel]
        tx, ty = arrays.target_x[sel], arrays.target_y[sel]
        n = x.size
        block = _as_draws(draws).rows(arrays, sel, n)
        switch = block.random(0) < self._switch_probability
        switch |= np.isnan(tx)
        count = int(np.count_nonzero(switch))
        if count:
            choice = block.choice(1, switch, self._weights)
            tx[switch] = self._hotspot_xs[choice]
            ty[switch] = self._hotspot_ys[choice]
        dx = tx - x
        dy = ty - y
        distance = _distance(dx, dy)
        near = ~(distance > _TINY)
        # scale = min(speed * dt, distance) / max(distance, tiny), 0 when near
        scale = np.minimum(self._speed * dt, distance)
        np.maximum(distance, _TINY, out=distance)
        np.divide(scale, distance, out=scale)
        np.copyto(scale, 0.0, where=near)
        jitter = block.normal(2, self._jitter * math.sqrt(dt))
        for pos, delta, eps in ((x, dx, jitter[0]), (y, dy, jitter[1])):
            # pos = pos + scale * delta + eps
            np.multiply(scale, delta, out=delta)
            np.add(pos, delta, out=pos)
            np.add(pos, eps, out=pos)
        self._clamp_batch(x, y)
        if gathered:
            arrays.x[sel], arrays.y[sel] = x, y
            arrays.target_x[sel], arrays.target_y[sel] = tx, ty

"""The request/response handler (paper Section IV-A).

The handler "has the task of sending data acquisition requests to mobile
sensors and collecting their responses".  Its key parameter is the *budget*:
the number of acquisition requests per attribute and per grid cell that may
be sent in a given duration.  Requests go to a randomly selected set of
mobile sensors, "sampled with or without replacement, depending on the
number of mobile sensors available".

The handler is deliberately unaware of queries and topologies: an
acquisition round yields the raw observations of every requested
``(attribute, cell)`` pair as columnar
:class:`~repro.streams.TupleBatch` es (one per attribute from
:meth:`RequestResponseHandler.acquire_batches`; the object view
:meth:`~RequestResponseHandler.acquire` materialises the same rounds as
:class:`~repro.streams.tuples.SensorTuple` lists per grid cell), which the
crowdsensed stream fabricator then pushes through PMAT topologies.

A round has one entry, :meth:`RequestResponseHandler.acquire_batches`: it
checks the round, buckets the crowd once and, per attribute, takes the
cell populations from that bucketing and runs the wave loop
(:meth:`RequestResponseHandler._acquire_waves`) once over all of them;
``acquire`` is its object view.  Only distinct cells of the handler's grid
can be requested: any other cell, or a cell listed twice, is an
:class:`~repro.errors.AcquisitionError`, raised before anything is drawn.
The sensor choice is one body under both contracts and for every wave
(:func:`_choose_rows`, from the world stream: one ``rng.choice`` per
covered cell, one draw per run of small undersized cells).  What differs
between strict and fast-sim is confined to two small RNG policies, each
owning request times and answers (:class:`_PerSensorStreams`: each sensor
answers from its own keyed stream, one vectorised pass per wave;
:class:`_SharedStream`: one draw from the world stream per wave), and a
handler holds the one its world's contract names.  Under both, a sensor
with stateful or custom participation is decided by its model's
``decide``, one request at a time (:func:`_decide_walked`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import pairwise
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..errors import AcquisitionError, BudgetError, GeometryError
from ..faults import FaultInjector, ResilienceConfig, SensorHealthMonitor
from ..geometry import Grid, GridCell
from ..rng import ANSWERS, keyed_uniforms
from ..streams import SensorTuple, TupleBatch, make_tuple_id_allocator
from .incentives import IncentiveScheme
from .participation import exponential_latency
from .world import SensingWorld

CellKey = Tuple[int, int]


@dataclass
class HandlerReport:
    """Book-keeping of one acquisition round.

    Attributes
    ----------
    requests_sent:
        Total requests dispatched this round (retry waves included).
    responses_received:
        Total responses *accepted* this round — injected transit drops and
        deadline timeouts are not received.
    per_cell_requests / per_cell_responses:
        Breakdown per ``(attribute, cell)`` pair.
    incentive_spent:
        Total incentive paid this round.  With a retry policy configured
        incentives are paid per accepted response; otherwise per request.
    timeouts / per_cell_timeouts:
        Responses dropped for missing the configured response deadline.
    drops_injected / per_cell_drops:
        Responses lost in transit by the fault injector (simulator-side
        ground truth, enabling fault attribution of rate shortfalls).
    retries_sent / per_cell_retries:
        Requests dispatched by retry waves (a subset of ``requests_sent``).
    """

    requests_sent: int = 0
    responses_received: int = 0
    per_cell_requests: Dict[Tuple[str, CellKey], int] = field(default_factory=dict)
    per_cell_responses: Dict[Tuple[str, CellKey], int] = field(default_factory=dict)
    incentive_spent: float = 0.0
    timeouts: int = 0
    drops_injected: int = 0
    retries_sent: int = 0
    per_cell_timeouts: Dict[Tuple[str, CellKey], int] = field(default_factory=dict)
    per_cell_drops: Dict[Tuple[str, CellKey], int] = field(default_factory=dict)
    per_cell_retries: Dict[Tuple[str, CellKey], int] = field(default_factory=dict)

    @property
    def response_rate(self) -> float:
        """Fraction of requests that were answered (0 when nothing was sent)."""
        if self.requests_sent == 0:
            return 0.0
        return self.responses_received / self.requests_sent

    def response_rate_for(
        self, attribute: str, cell: CellKey
    ) -> Optional[float]:
        """One pair's accepted-response rate, or ``None`` without requests.

        ``None`` keeps "no requests were sent" (an empty or fully
        quarantined cell) distinguishable from "requests were sent and none
        were answered" (0.0) — conflating the two would make a silent cell
        look like a total outage and vice versa.
        """
        sent = self.per_cell_requests.get((attribute, cell), 0)
        if sent == 0:
            return None
        return self.per_cell_responses.get((attribute, cell), 0) / sent


#: A run of three or more undersized cells averaging fewer draws a cell
#: than this is one broadcast draw; any other undersized cell is drawn on
#: its own.  numpy's broadcast bounded-integer path costs more per value
#: than the fill path of a scalar bound, and from about here that premium
#: outweighs the per-call saving (numpy 2.4: runs of 4, 16 and 64 cells
#: level at 256-768 draws a cell; runs of 1 or 2 never gain).
_RUN_DRAW_LIMIT = 384


def _choose_rows(
    populations: List[np.ndarray],
    sizes: np.ndarray,
    rng: np.random.Generator,
    contacted: Optional[np.ndarray] = None,
) -> Tuple[np.ndarray, bool]:
    """``sizes[i]`` sensors of cell ``i``, concatenated in cell-major request order.

    A uniform, uniformly ordered sample from the world stream, under both
    RNG contracts: without replacement from the cell's pool when the pool
    covers the size, with replacement from the whole population otherwise
    (the paper's undersized-cell rule).  A first wave's pool is the
    population; a retry wave's (``contacted`` given) is its rows not yet
    contacted, and a cell of size 0 draws nothing.  Returns ``(rows,
    replacement_used)``.

    Every covered cell is one ``rng.choice(..., replace=False)``, in cell
    order.  A maximal run of three or more consecutive undersized cells
    that averages fewer than :data:`_RUN_DRAW_LIMIT` draws a cell is one
    broadcast ``rng.integers`` call over the run's concatenated
    populations; any other undersized cell is one scalar-bound
    ``rng.integers(0, population.size, size)``, which is the call
    ``rng.choice(..., replace=True)`` makes.  numpy draws both from the
    same 32-bit words, in the same order, as one ``rng.choice(...,
    replace=True)`` per cell (``tests/property/test_choice_draws.py`` keeps
    the per-cell loops as the oracle).
    """
    pools = populations
    if contacted is not None:
        drawing = np.flatnonzero(sizes)
        populations = [populations[cell] for cell in drawing]
        sizes = sizes[drawing]
        pools = [population[~contacted[population]] for population in populations]
    counts = np.array([population.size for population in populations], dtype=np.int64)
    undersized = np.array([pool.size for pool in pools], dtype=np.int64) < sizes
    bounds = np.flatnonzero(undersized[1:] != undersized[:-1]) + 1
    size_list = sizes.tolist()  # craqr: ignore[CRQ401] - one size per cell, never per sensor row
    parts = []
    for a, b in pairwise([0, *bounds.tolist(), sizes.size]):  # craqr: ignore[CRQ401] - one pair of bounds per run of cells, never per sensor row
        if undersized[a] and 2 < b - a and sum(size_list[a:b]) < _RUN_DRAW_LIMIT * (b - a):
            run_sizes = sizes[a:b]
            draws = rng.integers(0, np.repeat(counts[a:b], run_sizes))
            draws += np.repeat(np.cumsum(counts[a:b]) - counts[a:b], run_sizes)
            parts.append(np.concatenate(populations[a:b])[draws])
        elif undersized[a]:
            for cell in range(a, b):
                population = populations[cell]
                parts.append(population[rng.integers(0, population.size, size_list[cell])])
        else:
            for cell in range(a, b):
                pool = pools[cell]
                parts.append(pool[rng.choice(pool.size, size=size_list[cell], replace=False)])
    return np.concatenate(parts), bool(undersized.any())


def _refuse_bad_duration(duration: float) -> None:
    """Raise :class:`AcquisitionError` unless ``duration`` is positive and finite."""
    if not 0 < duration < math.inf:
        raise AcquisitionError(f"duration must be positive and finite, got {duration!r}")


def _ranks_within_runs(sorted_rows: np.ndarray) -> np.ndarray:
    """``0, 1, 2, ...`` within each run of equal values of a sorted array."""
    positions = np.arange(sorted_rows.size)
    starts = np.ones(sorted_rows.size, dtype=bool)
    np.not_equal(sorted_rows[1:], sorted_rows[:-1], out=starts[1:])
    return positions - np.maximum.accumulate(np.where(starts, positions, 0))


def _participation_lookup(soa, rows) -> Tuple[np.ndarray, np.ndarray]:
    """``(table, index)``: a request's participation field is ``table[field][index]``.

    The SoA's per-group table and each request's group code, gathered once
    per wave; as ``intp``, so each field's gather indexes without a cast.
    """
    return soa.participation_table, soa.participation[rows].astype(np.intp)


def _respond_probabilities(table, index, multipliers) -> np.ndarray:
    """Each request's response probability from its participation group's entry."""
    p_base = table["p_base"][index]
    return np.where(
        table["incentive_sensitive"][index],
        np.minimum(p_base * multipliers, table["p_max"][index]),
        p_base,
    )


def _decide_walked(
    world: SensingWorld, rows, visit, request_times, multipliers,
    u_respond, u_latency, responded, latencies,
) -> None:
    """Decide the ``visit`` requests one at a time, through each model's ``decide``.

    ``visit`` lists, in request order, the positions of a wave's requests
    to sensors without stationary participation (stateful or custom
    models), so each sensor's requests reach its model in the order they
    were sent: a fatigue level depends on the sensor's earlier requests.
    ``u_respond`` / ``u_latency`` align with ``visit``; ``responded`` and
    ``latencies`` are per request and overwritten at ``visit``.  Plain
    floats reach ``decide``, as they reach it from
    :meth:`~repro.sensing.MobileSensor.handle_request`.  Both RNG policies
    call this; they differ only in where the uniforms come from.
    """
    visited = rows[visit]
    for k, model, sensor_id, t, boost, u_r, u_l in zip(
        visit.tolist(), world.participation_at(visited),
        world.state_arrays.sensor_ids[visited].tolist(),
        request_times[visit].tolist(), multipliers[visit].tolist(),
        u_respond.tolist(), u_latency.tolist(),
    ):
        decision = model.decide(sensor_id, t, (u_r, u_l), incentive_multiplier=boost)
        responded[k] = decision.responds
        latencies[k] = decision.latency


# ----------------------------------------------------------------------
# RNG policies
#
# The wave loop (``RequestResponseHandler._acquire_waves``) is one
# implementation, and so is its sensor choice (``_choose_rows``); the
# two RNG contracts of ``WorldConfig.vectorized_rng`` differ only in the two
# draws a policy owns:
#
# ``request_times(sizes, duration)``
#     ascending request times per cell segment (zero-size segments allowed);
# ``answer(field_model, rows, request_times, multipliers, replacement_used)``
#     serve one wave -> ``(responded, latencies, values)``: a boolean per
#     request, the other two aligned with the responses in request order.
#     Rows without stationary participation go through ``_decide_walked``.
#
# A handler holds one policy, chosen from ``world.vectorized`` when it is
# built.  Neither policy writes the sensors' request/response counters:
# the wave loop bumps them once per wave, after ``answer``.
# ----------------------------------------------------------------------
class _PerSensorStreams:
    """Strict policy: every sensor answers from its own keyed stream.

    Request times are one uniform draw from the world stream, each cell's
    slice sorted in place: the same values, in the same order, as one
    sorted draw per cell.  The answer
    to a sensor's ``c``-th request (``c`` = its ``requests_received``
    before that request) is the Philox block keyed ``(acquisition_key,
    sensor id)`` at counter ``c`` — respond, latency and two sensing
    uniforms — so nothing depends on the order in which sensors are asked
    and a wave is answered in one pass: a rank within each sensor gives
    the counters (read before the wave loop bumps them), one
    :func:`~repro.rng.keyed_uniforms` call draws every block, rows with
    stationary participation (``vector_params``) are decided from their
    groups' entries of the SoA participation table, and one
    ``values_from_uniforms`` call senses every response.  Rows with
    stateful or custom participation are decided by
    :func:`_decide_walked`, fed the same blocks.  Byte-identical to asking
    each sensor with :meth:`~repro.sensing.MobileSensor.handle_request`,
    in any order that keeps each sensor's own requests in order.
    """

    def __init__(self, world: SensingWorld) -> None:
        self._world = world

    def request_times(self, sizes: np.ndarray, duration: float) -> np.ndarray:
        t_start = self._world.now
        times = self._world.rng.uniform(t_start, t_start + duration, int(sizes.sum()))
        for a, b in pairwise([0, *np.cumsum(sizes).tolist()]):
            times[a:b].sort()
        return times

    def answer(self, field_model, rows, request_times, multipliers, replacement_used):
        world = self._world
        soa = world.state_arrays
        counters = soa.requests_received[rows]
        if replacement_used:
            # A sensor asked k times in the wave draws counters c .. c+k-1
            # in request order.
            order = np.argsort(rows, kind="stable")
            counters[order] += _ranks_within_runs(rows[order])
        u = keyed_uniforms(
            world.acquisition_key, soa.sensor_ids[rows], counters, ANSWERS
        )
        table, index = _participation_lookup(soa, rows)
        responded = u[0] < _respond_probabilities(table, index, multipliers)
        latencies = exponential_latency(table["latency_mean"][index], u[1])
        visit = np.flatnonzero(~table["vector_participation"][index])
        if visit.size:
            _decide_walked(
                world, rows, visit, request_times, multipliers,
                u[0, visit], u[1, visit], responded, latencies,
            )
        answered = np.flatnonzero(responded)
        answered_rows = rows[answered]
        values = field_model.values_from_uniforms(
            request_times[answered], soa.x[answered_rows], soa.y[answered_rows],
            u[2, answered], u[3, answered],
        )
        return responded, latencies[answered], np.asarray(values)


class _SharedStream:
    """Fast-sim policy: one vectorised draw of everything from the world stream.

    Request times for all cells come from one order-statistics draw
    (:meth:`request_times`), and a wave is answered with one participation
    draw, one latency draw and one ``field.values`` call over the
    concatenated rows; stationary participation (``vector_params``) is read
    from the groups' entries of the SoA participation table.  Rows with
    stateful or custom participation take their respond uniform from the
    same participation draw and are decided by :func:`_decide_walked`;
    only when a wave has such rows does it make one further draw, for
    their latency uniforms, so a wave without them draws exactly what it
    always did.  Statistically equivalent to :class:`_PerSensorStreams`.
    """

    def __init__(self, world: SensingWorld) -> None:
        self._world = world

    def request_times(self, sizes: np.ndarray, duration: float) -> np.ndarray:
        """Sorted request times for every cell segment from one draw.

        Uses the exponential-spacing construction of uniform order
        statistics — ``k`` sorted ``U(0, 1)`` samples are the first ``k``
        normalised prefix sums of ``k + 1`` iid exponentials — so no
        per-segment sort is needed: one exponential draw, two cumulative
        sums and a mask produce every cell's ascending request times
        (distributionally identical to the per-cell ``sort(uniform(...))``).
        """
        extended = np.asarray(sizes, dtype=np.int64) + 1
        draws = self._world.rng.exponential(1.0, int(extended.sum()))
        ends = np.cumsum(extended)
        cumulative = np.cumsum(draws)
        segment_base = np.concatenate(([0.0], cumulative[ends[:-1] - 1]))
        segment_totals = cumulative[ends - 1] - segment_base
        keep = np.ones(draws.size, dtype=bool)
        keep[ends - 1] = False
        uniforms = (
            (cumulative - np.repeat(segment_base, extended))[keep]
            / np.repeat(segment_totals, extended)[keep]
        )
        return self._world.now + duration * uniforms

    def answer(self, field_model, rows, request_times, multipliers, replacement_used):
        world = self._world
        soa = world.state_arrays
        rng = world.rng
        table, index = _participation_lookup(soa, rows)
        u_respond = rng.random(rows.size)
        responded = u_respond < _respond_probabilities(table, index, multipliers)
        latencies = np.empty(rows.size)
        stationary = table["vector_participation"][index]
        visit = np.flatnonzero(~stationary)
        if visit.size:
            _decide_walked(
                world, rows, visit, request_times, multipliers,
                u_respond[visit], rng.random(visit.size), responded, latencies,
            )
        answered = np.flatnonzero(responded)
        answered_rows = rows[answered]
        drawn = answered[stationary[answered]]
        # Exp(scale m) == m * Exp(1): one draw serves every per-sensor mean.
        latencies[drawn] = (
            rng.exponential(1.0, drawn.size) * table["latency_mean"][index[drawn]]
        )
        if answered.size == 0:
            return responded, np.empty(0), np.empty(0)
        values = field_model.values(
            request_times[answered], soa.x[answered_rows], soa.y[answered_rows], rng=rng
        )
        return responded, latencies[answered], np.asarray(values)


def _policy_for(world: SensingWorld):
    """The RNG policy of ``world``'s contract (``WorldConfig.vectorized_rng``)."""
    return (_SharedStream if world.vectorized else _PerSensorStreams)(world)


class RequestResponseHandler:
    """Budget-limited acquisition of crowdsensed observations.

    Parameters
    ----------
    world:
        The sensing world the requests go to.
    grid:
        The logical grid over the world region; budgets are per cell.
    default_budget:
        Budget used for ``(attribute, cell)`` pairs that have not been set
        explicitly.
    incentive:
        Optional incentive scheme attached to every request; ``None`` means
        no payment (multiplier 1).
    faults:
        Optional :class:`~repro.faults.FaultInjector` corrupting responses
        in transit (drops, stuck-at replay, outliers, latency inflation,
        clock skew).  The injector draws from its own seeded stream, so
        ``None`` leaves every path byte-identical to a fault-free build.
    resilience:
        Optional :class:`~repro.faults.ResilienceConfig`: response deadline
        (late responses dropped as timeouts) and retry policy (failed
        requests retried from a withheld per-cell reserve with replacement
        draws; budgets are never exceeded and incentives are then paid per
        accepted response only).
    health:
        Optional :class:`~repro.faults.SensorHealthMonitor`; when attached,
        every wave's per-sensor outcome is reported to it and quarantined
        rows are masked out of candidate populations (one extra mask AND in
        the bucketing pass — it stays one pass).
    """

    def __init__(
        self,
        world: SensingWorld,
        grid: Grid,
        *,
        default_budget: int = 50,
        incentive: Optional[IncentiveScheme] = None,
        faults: Optional[FaultInjector] = None,
        resilience: Optional[ResilienceConfig] = None,
        health: Optional[SensorHealthMonitor] = None,
    ) -> None:
        if default_budget <= 0:
            raise BudgetError("default_budget must be positive")
        self._world = world
        self._grid = grid
        self._default_budget = default_budget
        self._budgets: Dict[Tuple[str, CellKey], int] = {}
        self._incentive = incentive
        self._faults = faults
        self._resilience = resilience
        self._health = health
        self._retry = resilience.retry if resilience is not None else None
        self._deadline = resilience.deadline if resilience is not None else None
        self._allocate_tuple_id = make_tuple_id_allocator()
        self._total_requests = 0
        self._total_responses = 0
        self._policy = _policy_for(world)

    def __getstate__(self):
        # The RNG policy is derived from the world's contract and rebuilt
        # on restore, so a checkpoint carries none (one written while the
        # handler held a policy per contract restores too).
        state = dict(self.__dict__)
        del state["_policy"]
        return state

    def __setstate__(self, state) -> None:
        self.__dict__.update(state)
        self._policy = _policy_for(self._world)

    # ------------------------------------------------------------------
    # Budget management (consumed by the budget tuner)
    # ------------------------------------------------------------------
    @property
    def grid(self) -> Grid:
        """The grid the handler partitions budgets over."""
        return self._grid

    @property
    def default_budget(self) -> int:
        """Budget used when no per-cell budget has been set."""
        return self._default_budget

    def budget_for(self, attribute: str, cell: CellKey) -> int:
        """The current budget ``beta`` for an attribute on a grid cell."""
        return self._budgets.get((attribute, cell), self._default_budget)

    def set_budget(self, attribute: str, cell: CellKey, budget: int) -> None:
        """Set the budget for an attribute on a grid cell."""
        if budget <= 0:
            raise BudgetError("budget must be positive")
        self._budgets[(attribute, cell)] = int(budget)

    def budgets(self) -> Dict[Tuple[str, CellKey], int]:
        """A copy of all explicitly set budgets."""
        return dict(self._budgets)

    # ------------------------------------------------------------------
    # Statistics
    # ------------------------------------------------------------------
    @property
    def total_requests(self) -> int:
        """Requests sent over the handler's lifetime."""
        return self._total_requests

    @property
    def total_responses(self) -> int:
        """Responses received over the handler's lifetime."""
        return self._total_responses

    @property
    def faults(self) -> Optional[FaultInjector]:
        """The attached fault injector, if any."""
        return self._faults

    @property
    def resilience(self) -> Optional[ResilienceConfig]:
        """The attached resilience configuration, if any."""
        return self._resilience

    @property
    def health_monitor(self) -> Optional[SensorHealthMonitor]:
        """The attached sensor-health monitor, if any."""
        return self._health

    # ------------------------------------------------------------------
    # Acquisition: one wave loop
    # ------------------------------------------------------------------
    def _round_payments(self, count: int) -> Tuple[np.ndarray, np.ndarray]:
        """Per-request payments and probability multipliers for one wave."""
        if self._incentive is None:
            return np.zeros(count), np.ones(count)
        return self._incentive.payments_for_requests(count)

    @staticmethod
    def _tally(
        per_cell: Dict[Tuple[str, CellKey], int],
        attribute: str,
        cell_keys: Tuple[CellKey, ...],
        counts: np.ndarray,
        *,
        keep_zero: bool = False,
    ) -> int:
        """Add one wave's per-cell ``counts`` to a report breakdown.

        Returns their total.  Zero counts leave the breakdown untouched
        unless ``keep_zero`` (a contacted cell reports 0 responses, but a
        cell without drops has no drop entry).
        """
        for key, count in zip(cell_keys, counts.tolist()):
            if count or keep_zero:
                pair = (attribute, key)
                per_cell[pair] = per_cell.get(pair, 0) + count
        return int(counts.sum())

    def _acquire_waves(
        self,
        attribute: str,
        field_model,
        cell_keys: Tuple[CellKey, ...],
        populations: List[np.ndarray],
        *,
        duration: float,
        report: HandlerReport,
    ) -> Optional[TupleBatch]:
        """The acquisition round: waves of requests over aligned cell segments.

        ``cell_keys`` and ``populations`` are aligned; every population is a
        non-empty, ascending array of SoA rows (quarantined rows already
        masked out).  :meth:`acquire_batches` calls this once per attribute
        with all of its non-empty requested cells.  The handler's RNG policy
        owns the draws that differ between the contracts (see the RNG-policy
        notes above) and everything else happens here, once: per-cell
        budgets and the retry reserve, the sensor choice of every wave
        (:func:`_choose_rows`, the same under both contracts), the sensors'
        request/response counters, fault injection and deadlines
        (:meth:`_finalize_wave`), incentive settlement, per-cell accounting
        and batch assembly.

        Without a retry policy the round is a single wave of ``budget``
        requests per cell.  With one, a reserve of each cell's budget is
        withheld from the first wave and each later wave retries the failed
        requests from it, drawing replacements from the not-yet-contacted
        population; a cell's budget is never exceeded.  Returns one batch
        (the target cell of every tuple rides in the ``cell`` extra
        column), or ``None`` when no response was accepted.
        """
        soa = self._world.state_arrays
        segment_ids = np.arange(len(cell_keys))
        budgets = np.array(
            [self.budget_for(attribute, key) for key in cell_keys], dtype=np.int64
        )
        retry = self._retry
        reserves = np.zeros_like(budgets)
        attempts = 1
        contacted = None
        if retry is not None:
            # At least one request per cell always goes out in the first wave.
            reserves = np.clip(
                (budgets * retry.reserve_fraction).astype(np.int64), 0, budgets - 1
            )
            attempts = retry.max_attempts
            contacted = np.zeros(soa.x.shape[0], dtype=bool)
        sizes = budgets - reserves
        waves = []
        for wave in range(attempts):
            if wave == 0:
                rows, replacement_used = _choose_rows(populations, sizes, self._world.rng)
            else:
                sizes = np.minimum(failures, reserves)
                if not sizes.any():
                    break
                reserves = reserves - sizes
                rows, replacement_used = _choose_rows(
                    populations, sizes, self._world.rng, contacted
                )
                report.retries_sent += self._tally(
                    report.per_cell_retries, attribute, cell_keys, sizes
                )
            request_times = self._policy.request_times(sizes, duration)
            segments = np.repeat(segment_ids, sizes)
            sent = self._tally(report.per_cell_requests, attribute, cell_keys, sizes)
            self._total_requests += sent
            report.requests_sent += sent
            if contacted is not None:
                contacted[rows] = True
            payments, multipliers = self._round_payments(rows.size)
            responded, latencies, values = self._policy.answer(
                field_model, rows, request_times, multipliers, replacement_used
            )
            if replacement_used:
                np.add.at(soa.requests_received, rows, 1)
                np.add.at(soa.responses_sent, rows[responded], 1)
            else:
                # Populations are disjoint (a cell is requested once) and
                # sampled without replacement: every row is unique, so the
                # fancy-index increment is exact.
                soa.requests_received[rows] += 1
                soa.responses_sent[rows[responded]] += 1
            accepted, times, accepted_values = self._finalize_wave(
                attribute, rows, request_times, segments, cell_keys,
                responded, latencies, values, report,
            )
            accepted_payments = self._settle_wave_payments(payments, accepted, report)
            accepted_segments = segments[accepted]
            accepted_counts = np.bincount(accepted_segments, minlength=len(cell_keys))
            received = self._tally(
                report.per_cell_responses, attribute, cell_keys, accepted_counts,
                keep_zero=True,
            )
            self._total_responses += received
            report.responses_received += received
            if received:
                waves.append(
                    (times, accepted_values, rows[accepted], accepted_segments,
                     accepted_payments)
                )
            failures = sizes - accepted_counts
            if not failures.any():
                break

        if not waves:
            return None
        times, values, rows, segments, payments = (
            np.concatenate(column) for column in zip(*waves)
        )
        return TupleBatch(
            attribute,
            times,
            soa.x[rows],
            soa.y[rows],
            values,
            soa.sensor_ids[rows],
            self._allocate_tuple_id.allocate_block(times.size),
            extra={
                "cell": np.array(cell_keys, dtype=np.int64)[segments],
                "incentive": payments,
            },
        )

    def _finalize_wave(
        self,
        attribute: str,
        rows: np.ndarray,
        request_times: np.ndarray,
        segments: np.ndarray,
        cell_keys: Tuple[CellKey, ...],
        responded: np.ndarray,
        latencies: np.ndarray,
        values: np.ndarray,
        report: HandlerReport,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Apply faults and the response deadline to one assembled wave.

        The wave arrives in one column layout whatever policy answered it
        — ``rows`` / ``request_times`` / ``segments`` per request
        (``segments`` indexing ``cell_keys``), ``latencies`` / ``values``
        per response — so the injector consumes its private stream as a
        fixed function of the wave, and drop/timeout accounting lives in
        exactly one place.

        Returns ``(accepted, times, accepted_values)``: ``accepted`` is a
        boolean per request, the other two align with the accepted
        responses in request order.  A tuple is stamped with its sensing
        time — the request time, at which the value was sensed and the
        position read — so a batch owns exactly the answers to its own
        requests and none spills past its window; latency only decides the
        deadline.  Injected clock skew shifts the stamp, clamped to the
        batch-window start so no tuple predates its window (the views
        layer's frame contract).
        """
        resp_index = np.nonzero(responded)[0]
        dropped = np.zeros(resp_index.size, dtype=bool)
        skew = None
        if self._faults is not None:
            outcome = self._faults.apply_round(
                attribute,
                rows=rows,
                request_times=request_times,
                segments=segments,
                cell_keys=cell_keys,
                responded=responded,
                latencies=latencies,
                values=values,
            )
            dropped = outcome.dropped
            latencies = outcome.latencies
            values = outcome.values
            skew = outcome.skew
            if dropped.any():
                report.drops_injected += self._tally(
                    report.per_cell_drops, attribute, cell_keys,
                    np.bincount(segments[resp_index[dropped]], minlength=len(cell_keys)),
                )
        if self._deadline is not None and resp_index.size:
            timed_out = ~dropped & (np.asarray(latencies) > self._deadline)
            if timed_out.any():
                report.timeouts += self._tally(
                    report.per_cell_timeouts, attribute, cell_keys,
                    np.bincount(segments[resp_index[timed_out]], minlength=len(cell_keys)),
                )
                dropped = dropped | timed_out
        accepted = responded.copy()
        keep = ~dropped
        if dropped.any():
            accepted[resp_index[dropped]] = False
        times = request_times[resp_index[keep]]
        if skew is not None:
            times = np.maximum(times + skew[keep], self._world.now)
        accepted_values = np.asarray(values)[keep]
        if self._health is not None:
            self._health.observe(rows, accepted)
            self._health.observe_values(attribute, rows[accepted], accepted_values)
        return accepted, times, accepted_values

    def _settle_wave_payments(
        self, payments: np.ndarray, accepted: np.ndarray, report: HandlerReport
    ) -> np.ndarray:
        """Book one wave's incentive cost; returns the accepted responses' payments.

        Payments were drawn (and recorded by the scheme) per request.
        Without a retry policy that is also what is spent; with one,
        settlement is pay-on-accept: the unaccepted requests' share is
        refunded so only accepted responses cost anything.  The returned
        column is the batch's ``incentive`` extra.
        """
        accepted_payments = payments[accepted]
        if self._retry is None:
            report.incentive_spent += float(payments.sum())
            return accepted_payments
        report.incentive_spent += float(accepted_payments.sum())
        if self._incentive is not None:
            rejected = ~accepted
            count = int(rejected.sum())
            if count:
                self._incentive.refund(float(payments[rejected].sum()), count)
        return accepted_payments

    # ------------------------------------------------------------------
    # Fused rounds: all of an attribute's cells at once
    # ------------------------------------------------------------------
    def _bucket_sensors(self) -> Tuple[np.ndarray, np.ndarray]:
        """Bucket the whole crowd into grid cells, once per acquisition round.

        The expensive part of population resolution is independent of which
        cells (and which attribute) a round requests: every sensor's cell
        code is computed and sorted in one pass, so a multi-attribute round
        pays it once (:meth:`acquire_batches` threads the result through
        each attribute's :meth:`_resolve_cell_populations`).

        Returns ``(sorted_codes, sorted_rows)``: cell codes ascending with
        the SoA row indices aligned.
        """
        soa = self._world.state_arrays
        grid = self._grid
        region = grid.region
        side = grid.side
        xs, ys = soa.x, soa.y
        inside = (
            (region.x_min <= xs) & (xs <= region.x_max)
            & (region.y_min <= ys) & (ys <= region.y_max)
        )
        if self._health is not None and soa.quarantined.any():
            inside = inside & ~soa.quarantined
        if inside.all():
            # The common case (no mobility model escapes the region): work
            # on the columns directly, and the argsort result doubles as
            # the sorted row indices — no gathers at all.
            rows = None
            in_xs, in_ys = xs, ys
        else:
            rows = np.nonzero(inside)[0]
            in_xs, in_ys = xs[rows], ys[rows]
        # Same bucketing arithmetic as Grid.cells_for_points (including the
        # clamp of the outermost top/right boundary), inlined because the
        # containment check above already validated the coordinates.
        cell_width = region.width / side
        cell_height = region.height / side
        q = ((in_xs - region.x_min) / cell_width).astype(np.int64)
        r = ((in_ys - region.y_min) / cell_height).astype(np.int64)
        np.minimum(q, side - 1, out=q)
        np.minimum(r, side - 1, out=r)
        codes = r * side + q
        # Radix-sorting a narrow integer key is several times faster than
        # sorting int64; any practical grid fits in int16.
        sort_codes = codes.astype(np.int16) if side * side < 2 ** 15 else codes
        order = np.argsort(sort_codes, kind="stable")
        return sort_codes[order], order if rows is None else rows[order]

    def _resolve_cell_populations(
        self, cells: List[GridCell], bucketing: Tuple[np.ndarray, np.ndarray]
    ) -> List[np.ndarray]:
        """SoA row indices of every requested cell's population, aligned with ``cells``.

        Instead of one O(n) containment mask per cell, the crowd is
        bucketed once a round (:meth:`_bucket_sensors`, passed in as
        ``bucketing``) and each requested cell's
        population is a slice lookup via two vectorised ``searchsorted``
        calls.  Sensors that escaped the region (possible only with
        out-of-bounds custom mobility models) are excluded.  Sensors
        exactly on an interior cell edge land in one bucket (the upper
        cell) rather than both closed rectangles.
        """
        sorted_codes, sorted_rows = bucketing
        side = self._grid.side
        wanted = np.array(
            [cell.r * side + cell.q for cell in cells], dtype=sorted_codes.dtype
        )
        lows = np.searchsorted(sorted_codes, wanted, side="left")
        highs = np.searchsorted(sorted_codes, wanted, side="right")
        return [
            sorted_rows[lo:hi]
            for lo, hi in zip(lows.tolist(), highs.tolist())  # craqr: ignore[CRQ401, CRQ402] - per requested cell, not per sensor row
        ]

    def _cell_in_grid(self, cell: GridCell) -> bool:
        """Whether ``cell`` is (geometrically) a cell of the handler's grid.

        The grid hands out the cells it stores, so identity settles almost
        every check; only a copy is compared field by field.
        """
        try:
            own = self._grid.cell(cell.q, cell.r)
        except GeometryError:
            return False
        return own is cell or own == cell

    def _refuse_bad_cells(self, cells: List[GridCell]) -> None:
        """Raise :class:`AcquisitionError` unless ``cells`` are distinct grid cells.

        Budgets and populations are per cell of the handler's grid, so a
        cell of another grid would be charged to whichever grid cell shares
        its ``(q, r)`` key, and a cell listed twice would be sent twice its
        budget (and its sensors asked twice from one keyed block).  Called
        before anything is drawn or sent.
        """
        foreign = [cell.key for cell in cells if not self._cell_in_grid(cell)]
        if foreign:
            raise AcquisitionError(
                f"cells {foreign} are not cells of the handler's grid"
            )
        keys = [cell.key for cell in cells]
        if len(set(keys)) < len(keys):
            repeated = sorted({key for key in keys if keys.count(key) > 1})
            raise AcquisitionError(f"cells {repeated} are requested more than once")

    def acquire(
        self,
        attribute_cells: Dict[str, List[GridCell]],
        *,
        duration: float,
    ) -> Tuple[Dict[CellKey, List[SensorTuple]], HandlerReport]:
        """Run one acquisition round over several attributes and cells.

        Parameters
        ----------
        attribute_cells:
            Maps each attribute to the grid cells it must be acquired from
            (the cells that host at least one query for that attribute).
        duration:
            Length of the batch window.

        Returns
        -------
        A pair ``(tuples_by_cell, report)`` where ``tuples_by_cell`` groups
        the collected tuples by grid-cell key (all attributes merged, since
        the per-cell topology routes per attribute internally), each cell's
        tuples in time order.  The object view of :meth:`acquire_batches`:
        the same round, materialised with :meth:`TupleBatch.to_tuples`.
        """
        batches, report = self.acquire_batches(attribute_cells, duration=duration)
        tuples_by_cell: Dict[CellKey, List[SensorTuple]] = {}
        for batch in batches.values():
            for item in batch.to_tuples():
                tuples_by_cell.setdefault(item.metadata["cell"], []).append(item)
        for items in tuples_by_cell.values():
            items.sort(key=lambda item: item.t)
        return tuples_by_cell, report

    def acquire_batches(
        self,
        attribute_cells: Dict[str, List[GridCell]],
        *,
        duration: float,
    ) -> Tuple[Dict[str, TupleBatch], HandlerReport]:
        """One acquisition round as per-attribute batches.

        Returns ``(batch_per_attribute, report)``.  Each batch carries the
        target cell of every tuple in its ``cell`` extra column; the
        fabricator's map stage re-buckets by the *reported* coordinates
        anyway, so no per-cell grouping is done here.

        Each attribute's requested cells take their populations from one
        bucketing pass shared by the whole round (sensor positions are
        frozen within a round, so the bucketing is too), and its non-empty
        cells are served by one :meth:`_acquire_waves` call under the
        handler's RNG policy; per-cell budgets, request/response counts and
        incentive accounting stay exactly per ``(attribute, cell)``, and an
        empty cell sends nothing.  A bad duration, a foreign cell, a cell
        listed twice for one attribute and an attribute without a field are
        refused before anything is drawn or sent; each attribute's cells
        are checked once.
        """
        _refuse_bad_duration(duration)
        for cells in attribute_cells.values():
            self._refuse_bad_cells(cells)
        fields = {attribute: self._world.field_for(attribute) for attribute in attribute_cells}
        report = HandlerReport()
        batches: Dict[str, TupleBatch] = {}
        bucketing = self._bucket_sensors() if attribute_cells else None
        for attribute, cells in attribute_cells.items():
            populations = self._resolve_cell_populations(cells, bucketing)
            asked = [
                (cell.key, population)
                for cell, population in zip(cells, populations)
                if population.size
            ]
            if not asked:
                continue
            keys, members = zip(*asked)
            batch = self._acquire_waves(
                attribute, fields[attribute], keys, list(members),
                duration=duration, report=report,
            )
            if batch is not None:
                batches[attribute] = batch
        self._end_round()
        return batches, report

    def _end_round(self) -> None:
        """Close one acquisition round (health decisions are per round)."""
        if self._health is not None:
            self._health.commit_round()

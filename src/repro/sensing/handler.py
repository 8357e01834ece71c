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

There is one round body,
:meth:`RequestResponseHandler.acquire_attribute_batch`: it takes an
attribute's cell populations from one bucketing pass of the crowd and runs
the wave loop (:meth:`RequestResponseHandler._acquire_waves`) once per RNG
policy over them, under either RNG contract.  ``acquire_batches`` calls it
per attribute and ``acquire`` is its object view.  Only distinct cells of
the handler's grid can be requested: any other cell, or a cell listed
twice, is an :class:`~repro.errors.AcquisitionError`, raised before
anything is drawn.  The sensor choice is one body under both contracts
(:func:`_per_cell_choices`: one ``rng.choice`` per cell from the world
stream).  What differs between strict and fast-sim is confined to two
small RNG policies, each owning request times and answers
(:class:`_PerSensorStreams`: each sensor answers from its own keyed
stream, one vectorised pass per wave; :class:`_SharedStream`: one draw
from the world stream per wave, for cells whose every sensor has
stationary participation).  A sensor with stateful participation is
decided by its model's ``decide``, one request at a time, under both.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..errors import AcquisitionError, BudgetError, GeometryError
from ..faults import FaultInjector, ResilienceConfig, SensorHealthMonitor
from ..geometry import Grid, GridCell
from ..rng import ANSWERS, keyed_uniforms
from ..streams import SensorTuple, TupleBatch, make_tuple_id_allocator
from .incentives import FlatIncentive, IncentiveScheme
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


def _per_cell_choices(
    populations: List[np.ndarray], budgets: np.ndarray, rng: np.random.Generator
) -> np.ndarray:
    """Every cell's first-wave sensors, concatenated in cell-major request order.

    One ``rng.choice`` per cell from the world stream, under both RNG
    contracts: a uniform, uniformly ordered sample, without replacement
    when the cell population covers its budget and with replacement
    otherwise (per the paper).
    """
    parts = []
    for population, budget in zip(populations, budgets.tolist()):  # craqr: ignore[CRQ401, CRQ402] - per requested cell, not per sensor row
        parts.append(
            population[
                rng.choice(population.size, size=budget, replace=population.size < budget)
            ]
        )
    return np.concatenate(parts)


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


# ----------------------------------------------------------------------
# RNG policies
#
# The wave loop (``RequestResponseHandler._acquire_waves``) is one
# implementation, and so is its sensor choice (``_per_cell_choices``); the
# two RNG contracts of ``WorldConfig.vectorized_rng`` differ only in the two
# draws a policy owns:
#
# ``request_times(sizes, duration)``
#     ascending request times per cell segment (zero-size segments allowed);
# ``answer(field_model, rows, request_times, multipliers, replacement_used)``
#     serve one wave -> ``(responded, latencies, values)``: a boolean per
#     request, the other two aligned with the responses in request order.
#     Bumps the sensors' request/response counters.
# ----------------------------------------------------------------------
class _PerSensorStreams:
    """Strict policy: every sensor answers from its own keyed stream.

    Request times are per-cell draws from the world stream.  The answer
    to a sensor's ``c``-th request (``c`` = its ``requests_received``
    before that request) is the Philox block keyed ``(acquisition_key,
    sensor id)`` at counter ``c`` — respond, latency and two sensing
    uniforms — so nothing depends on the order in which sensors are asked
    and a wave is answered in one pass: a rank within each sensor gives
    the counters, one :func:`~repro.rng.keyed_uniforms` call draws every
    block, rows with stationary participation (``vector_params``) are
    decided from the SoA parameter columns, and one
    ``values_from_uniforms`` call senses every response.  Rows with
    stateful or custom participation are decided by their model's
    ``decide``, one request at a time in each sensor's request order, fed
    the same blocks.  Byte-identical to asking each sensor with
    :meth:`~repro.sensing.MobileSensor.handle_request`, in any order that
    keeps each sensor's own requests in order.  Serves strict rounds and
    the cells of a fast-sim world that host a
    sensor without ``vector_params`` (stateful or custom participation).
    """

    def __init__(self, world: SensingWorld) -> None:
        self._world = world

    def request_times(self, sizes: np.ndarray, duration: float) -> np.ndarray:
        rng = self._world.rng
        t_start = self._world.now
        return np.concatenate(
            [
                np.sort(rng.uniform(t_start, t_start + duration, size=int(size)))
                for size in sizes
            ]
        )

    def answer(self, field_model, rows, request_times, multipliers, replacement_used):
        world = self._world
        soa = world.state_arrays
        received = soa.requests_received
        counters = received[rows]
        order = None
        if replacement_used:
            # A sensor asked k times in the wave draws counters c .. c+k-1
            # in request order.
            order = np.argsort(rows, kind="stable")
            counters[order] += _ranks_within_runs(rows[order])
            np.add.at(received, rows, 1)
        else:
            # Populations are disjoint (a cell is requested once) and
            # sampled without replacement: every row is unique, so the
            # fancy-index increment is exact.
            received[rows] += 1
        u = keyed_uniforms(
            world.acquisition_key, soa.sensor_ids[rows], counters, ANSWERS
        )
        responded = u[0] < np.where(
            soa.incentive_sensitive[rows],
            np.minimum(soa.p_base[rows] * multipliers, soa.p_max[rows]),
            soa.p_base[rows],
        )
        latencies = exponential_latency(soa.latency_mean[rows], u[1])
        walked = ~soa.vector_participation[rows]
        if walked.any():
            visit = np.flatnonzero(walked) if order is None else order[walked[order]]
            self._decide_walked(
                rows, request_times, multipliers, u, visit, responded, latencies
            )
        answered = np.flatnonzero(responded)
        answered_rows = rows[answered]
        if replacement_used:
            np.add.at(soa.responses_sent, answered_rows, 1)
        else:
            soa.responses_sent[answered_rows] += 1
        values = field_model.values_from_uniforms(
            request_times[answered], soa.x[answered_rows], soa.y[answered_rows],
            u[2, answered], u[3, answered],
        )
        return responded, latencies[answered], np.asarray(values)

    def _decide_walked(
        self, rows, request_times, multipliers, u, visit, responded, latencies
    ) -> None:
        """Decide the ``visit`` requests one at a time, through each model's ``decide``.

        ``visit`` lists the positions of the wave's stateful / custom rows
        in each sensor's request order (a fatigue level depends on the
        sensor's earlier requests); ``responded`` and ``latencies`` are
        overwritten there.  Plain floats reach ``decide``, as they reach it
        from :meth:`~repro.sensing.MobileSensor.handle_request`.
        """
        visited = rows[visit]
        for k, model, sensor_id, t, boost, u_respond, u_latency in zip(
            visit.tolist(), self._world.participation_at(visited),
            self._world.state_arrays.sensor_ids[visited].tolist(),
            request_times[visit].tolist(), multipliers[visit].tolist(),
            u[0, visit].tolist(), u[1, visit].tolist(),
        ):
            decision = model.decide(
                sensor_id, t, (u_respond, u_latency), incentive_multiplier=boost
            )
            responded[k] = decision.responds
            latencies[k] = decision.latency


class _SharedStream:
    """Fast-sim policy: one vectorised draw of everything from the world stream.

    Request times for all cells come from one order-statistics draw
    (:meth:`RequestResponseHandler._fused_request_times`), and a wave is
    answered with one participation draw, one latency draw and one
    ``field.values`` call over the concatenated rows.  Statistically
    equivalent to :class:`_PerSensorStreams`; every row must have
    stationary participation (``vector_params``), which it reads from the
    SoA parameter columns.
    """

    def __init__(self, world: SensingWorld) -> None:
        self._world = world

    def request_times(self, sizes: np.ndarray, duration: float) -> np.ndarray:
        return self._world.now + RequestResponseHandler._fused_request_times(
            sizes, duration, self._world.rng
        )

    def answer(self, field_model, rows, request_times, multipliers, replacement_used):
        soa = self._world.state_arrays
        rng = self._world.rng
        p_base = soa.p_base[rows]
        probabilities = np.where(
            soa.incentive_sensitive[rows],
            np.minimum(p_base * multipliers, soa.p_max[rows]),
            p_base,
        )
        responded = rng.random(rows.size) < probabilities
        respond_rows = rows[responded]
        if replacement_used:
            np.add.at(soa.requests_received, rows, 1)
            np.add.at(soa.responses_sent, respond_rows, 1)
        else:
            # Populations are disjoint across cells (a cell is requested
            # once) and sampled without replacement within each, so every
            # row is unique: the cheaper fancy-index increment is exact.
            soa.requests_received[rows] += 1
            soa.responses_sent[respond_rows] += 1
        # Exp(scale m) == m * Exp(1): one draw serves every per-sensor mean.
        latencies = (
            rng.exponential(1.0, respond_rows.size) * soa.latency_mean[respond_rows]
        )
        if respond_rows.size == 0:
            return responded, latencies, np.empty(0)
        values = field_model.values(
            request_times[responded], soa.x[respond_rows], soa.y[respond_rows], rng=rng
        )
        return responded, latencies, np.asarray(values)


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
        self._rounds = 0
        self._per_sensor = _PerSensorStreams(world)
        self._shared_stream = _SharedStream(world)

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
    def rounds(self) -> int:
        """Number of acquisition rounds executed."""
        return self._rounds

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
        policy,
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
        masked out).  The fused round calls this once per policy with all
        of an attribute's grid cells that policy serves; ``policy`` owns the
        draws that differ between the contracts (see the RNG-policy notes
        above) and everything
        else happens here, once: per-cell budgets and the retry reserve,
        the sensor choice (:func:`_per_cell_choices`, the same under both
        contracts), retry selection, fault injection and deadlines
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
                rows = _per_cell_choices(populations, sizes, self._world.rng)
                replacement_used = any(
                    population.size < size for population, size in zip(populations, sizes)
                )
            else:
                sizes = np.minimum(failures, reserves)
                if not sizes.any():
                    break
                reserves = reserves - sizes
                rows, replacement_used = self._retry_choices(
                    populations, contacted, sizes
                )
                report.retries_sent += self._tally(
                    report.per_cell_retries, attribute, cell_keys, sizes
                )
            request_times = policy.request_times(sizes, duration)
            segments = np.repeat(segment_ids, sizes)
            sent = self._tally(report.per_cell_requests, attribute, cell_keys, sizes)
            self._total_requests += sent
            report.requests_sent += sent
            if contacted is not None:
                contacted[rows] = True
            payments, multipliers = self._round_payments(rows.size)
            responded, latencies, values = policy.answer(
                field_model, rows, request_times, multipliers, replacement_used
            )
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

    def _retry_choices(
        self, populations: List[np.ndarray], contacted: np.ndarray, sizes: np.ndarray
    ) -> Tuple[np.ndarray, bool]:
        """Replacement sensors for one retry wave, ``sizes[i]`` per cell.

        Drawn without replacement from each cell's not-yet-contacted
        sensors; an exhausted cell falls back to with-replacement draws over
        its whole population (the paper's undersized-cell rule).  Returns
        ``(rows, replacement_used)``, ``rows`` in cell-major request order.
        """
        rng = self._world.rng
        parts: List[np.ndarray] = []
        replacement_used = False
        for population, size in zip(populations, sizes.tolist()):
            if not size:
                continue
            fresh = population[~contacted[population]]
            if fresh.size >= size:
                parts.append(fresh[rng.choice(fresh.size, size=size, replace=False)])
            else:
                parts.append(
                    population[rng.choice(population.size, size=size, replace=True)]
                )
                replacement_used = True
        return np.concatenate(parts), replacement_used

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
    def _bucket_sensors(self) -> Tuple[np.ndarray, np.ndarray, frozenset]:
        """Bucket the whole crowd into grid cells, once per acquisition round.

        The expensive part of population resolution is independent of which
        cells (and which attribute) a round requests: every sensor's cell
        code is computed and sorted in one pass, so a multi-attribute round
        pays it once (:meth:`acquire_batches` threads the result through
        each attribute's :meth:`acquire_attribute_batch`).

        Returns ``(sorted_codes, sorted_rows, non_vector_codes)``: cell
        codes ascending with the SoA row indices aligned, plus the codes of
        cells hosting any sensor without vectorisable participation.
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
        sorted_codes = sort_codes[order]
        sorted_rows = order if rows is None else rows[order]
        # Cells hosting any non-vectorisable sensor, computed in one mask
        # instead of one np.all per cell (and skipped entirely for the
        # common fully-vectorisable crowd).
        if soa.vector_participation.all():
            non_vector_codes = frozenset()
        else:
            non_vector_codes = frozenset(
                np.unique(  # craqr: ignore[CRQ401] - per distinct cell (already unique-reduced), not per row
                    sorted_codes[~soa.vector_participation[sorted_rows]]
                ).tolist()
            )
        return sorted_codes, sorted_rows, non_vector_codes

    def _resolve_cell_populations(
        self,
        cells: List[GridCell],
        bucketing: Optional[Tuple[np.ndarray, np.ndarray, frozenset]] = None,
    ) -> Tuple[Dict[CellKey, np.ndarray], Dict[CellKey, bool]]:
        """SoA row indices of every requested cell's population.

        Instead of one O(n) containment mask per cell, the crowd is
        bucketed once (:meth:`_bucket_sensors`, or the precomputed
        ``bucketing`` of the current round) and each requested cell's
        population is a slice lookup via two vectorised ``searchsorted``
        calls.  Sensors that escaped the region (possible only with
        out-of-bounds custom mobility models) are excluded.  Sensors
        exactly on an interior cell edge land in one bucket (the upper
        cell) rather than both closed rectangles.

        Returns ``(populations, fully_vector)``: the second map tells the
        caller, without any further per-cell array work, whether every row
        of a cell's population has vectorisable participation.
        """
        if bucketing is None:
            bucketing = self._bucket_sensors()
        sorted_codes, sorted_rows, non_vector_codes = bucketing
        side = self._grid.side
        wanted = np.array(
            [cell.r * side + cell.q for cell in cells], dtype=sorted_codes.dtype
        )
        lows = np.searchsorted(sorted_codes, wanted, side="left")
        highs = np.searchsorted(sorted_codes, wanted, side="right")
        populations: Dict[CellKey, np.ndarray] = {}
        fully_vector: Dict[CellKey, bool] = {}
        for cell, lo, hi, code in zip(  # craqr: ignore[CRQ402] - per requested cell, not per sensor row
            cells, lows.tolist(), highs.tolist(), wanted.tolist()  # craqr: ignore[CRQ401] - len(cells) scalars, cheaper unboxed once
        ):
            populations[cell.key] = sorted_rows[lo:hi]
            fully_vector[cell.key] = code not in non_vector_codes
        return populations, fully_vector

    def _cell_in_grid(self, cell: GridCell) -> bool:
        """Whether ``cell`` is (geometrically) a cell of the handler's grid."""
        try:
            return self._grid.cell(cell.q, cell.r) == cell
        except GeometryError:
            return False

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

    def acquire_attribute_batch(
        self,
        attribute: str,
        cells: List[GridCell],
        *,
        duration: float,
        report: Optional[HandlerReport] = None,
        bucketing: Optional[Tuple[np.ndarray, np.ndarray, frozenset]] = None,
    ) -> Optional[TupleBatch]:
        """Fused acquisition: all of one attribute's cells in one round.

        Every requested grid cell's population is resolved by a single
        bucketing pass (:meth:`_resolve_cell_populations`) and the cells
        are served by at most one :meth:`_acquire_waves` call per RNG
        policy over all of their segments, while per-cell budgets,
        request/response counts and incentive accounting stay exactly per
        ``(attribute, cell)``.  A strict world answers every cell from the
        sensors' keyed streams (:class:`_PerSensorStreams`, one vectorised
        pass).  A fast-sim world samples the cells whose every sensor has
        stationary participation from the shared stream
        (:class:`_SharedStream`: one participation draw, one latency draw
        and one ``field.values`` call) and serves the rest — cells hosting
        a stateful or custom model — in one per-sensor call over their
        bucketed populations (no second scan of the crowd), so those
        sensors are decided per request exactly as in strict mode.

        A duration that is not positive and finite, a cell that is not a
        cell of the handler's grid and a cell listed twice each raise
        :class:`~repro.errors.AcquisitionError` before anything is drawn or
        sent.  Empty cells send nothing.

        :meth:`acquire_batches` dispatches here per attribute, sharing one
        :meth:`_bucket_sensors` pass across all attributes of the round via
        ``bucketing`` (sensor positions are frozen within a round, so the
        bucketing is too).  Returns one batch for the whole attribute (the
        target cell of every tuple rides in the ``cell`` extra column), or
        ``None`` when no responses arrived.
        """
        _refuse_bad_duration(duration)
        field_model = self._world.field_for(attribute)
        self._refuse_bad_cells(cells)
        report = report if report is not None else HandlerReport()
        fast_sim = self._world.vectorized
        populations, fully_vector = self._resolve_cell_populations(cells, bucketing)
        # Each policy's one wave loop: (cell keys, populations).
        plan = {self._per_sensor: ([], []), self._shared_stream: ([], [])}
        for cell in cells:
            population = populations[cell.key]
            if population.size == 0:
                continue  # nobody to ask: no requests
            shared = fast_sim and fully_vector[cell.key]
            keys, members = plan[self._shared_stream if shared else self._per_sensor]
            keys.append(cell.key)
            members.append(population)

        parts = []
        for policy, (keys, members) in plan.items():
            if keys:
                parts.append(
                    self._acquire_waves(
                        policy, attribute, field_model, tuple(keys), members,
                        duration=duration, report=report,
                    )
                )
        parts = [part for part in parts if part is not None]
        if not parts:
            return None
        return TupleBatch.concatenate(parts)

    @staticmethod
    def _fused_request_times(
        budgets: np.ndarray, duration: float, rng: np.random.Generator
    ) -> np.ndarray:
        """Sorted request times for every cell segment from one draw.

        Uses the exponential-spacing construction of uniform order
        statistics — ``k`` sorted ``U(0, 1)`` samples are the first ``k``
        normalised prefix sums of ``k + 1`` iid exponentials — so no
        per-segment sort is needed: one exponential draw, two cumulative
        sums and a mask produce every cell's ascending request times
        (distributionally identical to the per-cell ``sort(uniform(...))``).
        """
        extended = np.asarray(budgets, dtype=np.int64) + 1
        draws = rng.exponential(1.0, int(extended.sum()))
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
        return duration * uniforms

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

        Each attribute is served by one fused :meth:`acquire_attribute_batch`
        round under either RNG contract, all of them sharing one bucketing
        pass.  A bad duration, a foreign cell or a cell listed twice for one
        attribute is refused before anything is drawn.
        """
        _refuse_bad_duration(duration)
        for cells in attribute_cells.values():
            self._refuse_bad_cells(cells)
        report = HandlerReport()
        batches: Dict[str, TupleBatch] = {}
        bucketing = self._bucket_sensors() if attribute_cells else None
        for attribute, cells in attribute_cells.items():
            batch = self.acquire_attribute_batch(
                attribute, cells, duration=duration, report=report,
                bucketing=bucketing,
            )
            if batch is not None:
                batches[attribute] = batch
        self._end_round()
        return batches, report

    def _end_round(self) -> None:
        """Close one acquisition round (health decisions are per round)."""
        if self._health is not None:
            self._health.commit_round()
        self._rounds += 1

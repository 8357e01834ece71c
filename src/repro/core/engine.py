"""The CrAQR engine: the facade tying every component together (Fig. 1).

A :class:`CraqrEngine` owns

* the logical grid over the deployment region,
* the request/response handler talking to a :class:`~repro.sensing.SensingWorld`,
* the query planner (per-cell PMAT topologies + per-query merge stage),
* the stream fabricator (map / process / merge per batch),
* the budget tuner (``N_v`` feedback control of acquisition budgets), and
* per-query result buffers.

The engine's public surface is organised around *live query sessions*: a
:class:`QueryHandle` is not just a window onto a finished run but the
control point of a continuously executing query —

* **continuous views** — the primary serving API:
  :meth:`QueryHandle.view` (or a ``CREATE VIEW`` statement) attaches a
  declaratively specified windowed aggregate
  (:class:`~repro.views.ViewSpec`) that is maintained incrementally off
  the subscription path and read as immutable
  :class:`~repro.views.ViewFrame`\\ s through resumable frame cursors —
  a dashboard fan-out never rescans (or even sees) raw tuples;
* **incremental consumption** — the power-user path:
  :meth:`QueryHandle.cursor` returns a resumable cursor over the raw
  stream whose reads cost O(new tuples) regardless of history, and
  :meth:`QueryHandle.subscribe` registers push callbacks fired once per
  batch with the delivered :class:`~repro.streams.TupleBatch`;
* **in-flight mutation** — :meth:`QueryHandle.set_rate` /
  :meth:`QueryHandle.set_region` replan the per-cell PMAT topology in place
  (buffer, batch accounting and untouched cells' budget state survive), and
  :meth:`QueryHandle.pause` / :meth:`QueryHandle.resume` detach and
  reattach acquisition without tearing the topology down;
* **statements** — :meth:`CraqrEngine.execute` runs parsed (or textual)
  ``ACQUIRE`` / ``ALTER`` / ``STOP`` / ``SHOW QUERIES`` / ``CREATE VIEW``
  / ``DROP VIEW`` / ``SHOW VIEWS`` statements against the same session
  API, and :meth:`CraqrEngine.query` resolves the ``AS <name>`` labels to
  handles;
* **bounded retention** — with
  :attr:`~repro.config.EngineConfig.retention_batches` set, buffers,
  engine reports, tuner history and Flatten reports are evicted past the
  window while the lifetime accounting stays exact, so a service-mode
  engine runs indefinitely in bounded memory.

A typical session::

    engine = CraqrEngine(config, world)
    handle = engine.execute(
        "ACQUIRE rain FROM RECT(0, 0, 2, 2) AT RATE 10 PER KM2 PER MIN AS Storm"
    )
    rainfall = engine.execute(
        "CREATE VIEW Rainfall ON Storm AS AVG(value) GROUP BY CELL WINDOW 5"
    )
    frames = rainfall.frame_cursor()
    for _ in range(30):
        engine.run_batch()
        for frame in frames.fetch():
            ...                       # only the newly closed windows
    engine.execute("ALTER Storm SET RATE 5")
    engine.execute("DROP VIEW Rainfall")
    engine.execute("STOP Storm")

Each :meth:`run_batch` call acquires one batch window of crowdsensed tuples
from the world, fabricates every registered query's stream and adjusts
budgets from the rate-violation feedback.  ``register_query``/``run_batch``
keep their original behaviour, so pre-session code keeps working unchanged.
"""

from __future__ import annotations

import pathlib
from dataclasses import dataclass, field
from typing import Callable, Dict, FrozenSet, List, Optional, Sequence, Tuple

import numpy as np

from ..config import EngineConfig
from ..errors import CraqrError, PlanningError, QueryError, RecoveryError, ViewError
from ..faults import (
    CrashInjector,
    CrashPoint,
    DegradationTracker,
    FaultInjector,
    SensorHealthMonitor,
)
from ..recovery import CheckpointStore, EngineSnapshot
from ..geometry import Grid
from ..sensing import HandlerReport, IncentiveScheme, RequestResponseHandler, SensingWorld
from ..storage import (
    DiscardedStore,
    QueryResultBuffer,
    RateEstimate,
    ResultCursor,
    Subscription,
)
from ..streams import SensorTuple, TupleBatch
from ..views import (
    ContinuousView,
    SharedSortCache,
    ViewHandle,
    ViewSessionInfo,
    ViewSpec,
)
from .budget import BudgetDecision, BudgetTuner
from .fabricator import BatchResult, StreamFabricator
from .planner import PlannerStats, QueryPlanner
from .query import AcquisitionalQuery

CellKey = Tuple[int, int]


@dataclass
class EngineReport:
    """Outcome of one :meth:`CraqrEngine.run_batch` call."""

    batch_index: int
    handler: HandlerReport
    fabrication: BatchResult
    budget_decisions: List[BudgetDecision] = field(default_factory=list)
    #: (attribute, cell) pairs the degradation tracker classified as
    #: fault-degraded after this batch (empty without a ResilienceConfig).
    degraded_pairs: FrozenSet[Tuple[str, CellKey]] = frozenset()

    @property
    def tuples_acquired(self) -> int:
        """Raw tuples the handler collected this batch."""
        return self.handler.responses_received

    @property
    def tuples_delivered(self) -> int:
        """Tuples delivered to query result streams this batch."""
        return self.fabrication.tuples_delivered


@dataclass(frozen=True)
class ViolationInfo:
    """One pair's rate violation of the last batch, fault-attributed.

    ``fault_attributed`` separates shortfalls the degradation tracker pins
    on faults (collapsed response rate — outage, quarantined population)
    from planner error (budget still converging); ``response_rate`` is the
    tracker's smoothed accepted-response rate for the pair (``None`` when
    no resilience config is attached or the pair was never requested).
    """

    attribute: str
    cell: CellKey
    violation_percent: float
    fault_attributed: bool
    response_rate: Optional[float]


@dataclass(frozen=True)
class QuerySessionInfo:
    """One row of :meth:`CraqrEngine.sessions` (the ``SHOW QUERIES`` output).

    ``paused`` reflects the live pause/resume state and ``total_tuples``
    the *lifetime* delivered count (exact across retention eviction);
    ``views`` counts the continuous views currently maintained on the
    session.
    """

    label: str
    query_id: int
    attribute: str
    requested_rate: float
    region_area: float
    paused: bool
    total_tuples: int
    batches_completed: int
    achieved_rate: Optional[float]
    views: int = 0
    #: cells of this query currently classified as fault-degraded (empty
    #: without a ResilienceConfig).
    degraded_pairs: Tuple[CellKey, ...] = ()


@dataclass
class StatementResult:
    """Outcome of one statement of an :meth:`CraqrEngine.execute_script` run.

    Exactly one of ``result`` / ``error`` is meaningful: ``error`` holds
    the :class:`~repro.errors.CraqrError` the statement raised (only under
    ``on_error="continue"``), otherwise ``result`` is whatever
    :meth:`CraqrEngine.execute` returned for the statement.
    """

    statement: object
    result: object = None
    error: Optional[Exception] = None

    @property
    def ok(self) -> bool:
        """Whether the statement executed without raising."""
        return self.error is None


class _ReportsView(Sequence):
    """A live, read-only view over the engine's report list.

    Returned by :attr:`CraqrEngine.reports` so every property access costs
    O(1) instead of copying a list that grows with the number of batches.
    With :attr:`~repro.config.EngineConfig.retention_batches` set, index 0
    is the oldest *retained* report.
    """

    __slots__ = ("_items",)

    def __init__(self, items: List[EngineReport]) -> None:
        self._items = items

    def __getitem__(self, index):
        return self._items[index]

    def __len__(self) -> int:
        return len(self._items)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"_ReportsView({len(self._items)} reports)"


class QueryHandle:
    """The user-facing handle to one live query session."""

    def __init__(
        self,
        query: AcquisitionalQuery,
        buffer: QueryResultBuffer,
        engine: "CraqrEngine",
    ) -> None:
        self._query = query
        self._buffer = buffer
        self._engine = engine

    @property
    def query(self) -> AcquisitionalQuery:
        """The underlying acquisitional query (reflects in-flight ALTERs)."""
        return self._query

    @property
    def query_id(self) -> int:
        """The query's id."""
        return self._query.query_id

    @property
    def buffer(self) -> QueryResultBuffer:
        """The query's result buffer (outlives deregistration)."""
        return self._buffer

    # ------------------------------------------------------------------
    # Consumption
    # ------------------------------------------------------------------
    def results(self) -> List[SensorTuple]:
        """The *retained* tuples of the fabricated stream, oldest first.

        Materialises the whole retained history as fresh objects on every
        call (storage is left untouched, so other readers are unaffected);
        a polling consumer should prefer :meth:`cursor`, whose reads cost
        O(new tuples).
        """
        return self._buffer.items()

    def cursor(self, *, tail: bool = False) -> ResultCursor:
        """A resumable cursor over the query's stream.

        Every read returns only the tuples appended since the previous
        read — in object form (:meth:`~repro.storage.ResultCursor.fetch`)
        or as one columnar batch
        (:meth:`~repro.storage.ResultCursor.fetch_batch`) — at a cost
        independent of how much history the buffer holds.  ``tail=True``
        skips everything already delivered.  A cursor that falls behind the
        retention window raises :class:`~repro.errors.StorageError` on its
        next read.
        """
        return self._buffer.cursor(tail=tail)

    def subscribe(self, fn: Callable[[TupleBatch], None]) -> Subscription:
        """Push consumption: call ``fn`` once per batch with the new tuples.

        The callback receives each completed batch's deliveries as one
        :class:`~repro.streams.TupleBatch` (batches that delivered nothing
        do not fire).  Returns a :class:`~repro.storage.Subscription`;
        cancel it to detach.
        """
        return self._buffer.subscribe(fn)

    def view(self, spec: ViewSpec, *, name: Optional[str] = None) -> ViewHandle:
        """Attach a continuous view to this query's delivery stream.

        The primary serving API: instead of polling raw tuples, declare a
        windowed aggregate (:class:`~repro.views.ViewSpec`) and read the
        emitted :class:`~repro.views.ViewFrame`\\ s through
        :meth:`~repro.views.ViewHandle.frames` or a resumable
        :meth:`~repro.views.ViewHandle.frame_cursor` (O(new frames) per
        read).  Maintenance is incremental off the subscription path —
        each delivered batch is folded into per-group partials, history is
        never rescanned.  ``name`` (or ``spec.name``) must be unique
        across the engine; omitted names are auto-assigned ``V<n>``.
        """
        return self._engine.create_view(self._query.query_id, spec, name=name)

    def views(self) -> List[ViewHandle]:
        """Handles of the views currently maintained on this query."""
        return self._engine.views_of(self._query.query_id)

    def achieved_rate(self, last_batches: Optional[int] = None) -> RateEstimate:
        """Achieved spatio-temporal rate (over all or the last N batches).

        ``last_batches`` must be positive when given; ``None`` covers the
        query's whole history (exact even after retention evicted old
        batches).
        """
        return self._buffer.rate_over_batches(
            self._engine.config.batch_duration, last=last_batches
        )

    # ------------------------------------------------------------------
    # In-flight mutation
    # ------------------------------------------------------------------
    def set_rate(self, rate) -> "QueryHandle":
        """Change the query's requested rate on the live engine.

        Accepts a number or a :class:`~repro.core.query.RateSpec`.  The
        per-cell topology is replanned in place: the result buffer, batch
        accounting and the budget state of every cell the query keeps are
        preserved, so the achieved rate converges to the new target without
        restarting the query.
        """
        return self._engine.update_query(self._query.query_id, rate=rate)

    def set_region(self, region) -> "QueryHandle":
        """Change the query's region on the live engine.

        Accepts a :class:`~repro.geometry.Region` or
        :class:`~repro.geometry.Rectangle`.  Cells left behind drop the
        query (and are dematerialised when empty), newly covered cells are
        materialised and budget-seeded; the result buffer keeps the tuples
        acquired under the old region.
        """
        return self._engine.update_query(self._query.query_id, region=region)

    def pause(self) -> None:
        """Detach acquisition for this query without tearing down its topology.

        While paused the query demands no acquisition, receives no
        deliveries (even from cells shared with active queries) and its
        batch accounting is frozen, so the achieved rate is not diluted by
        the paused interval.
        """
        self._engine.pause_query(self._query.query_id)

    def resume(self) -> None:
        """Reattach acquisition after :meth:`pause`."""
        self._engine.resume_query(self._query.query_id)

    def is_paused(self) -> bool:
        """Whether the query is currently paused."""
        return self._engine.planner.is_paused(self._query.query_id)

    # ------------------------------------------------------------------
    def is_active(self) -> bool:
        """Whether the query is still registered with the engine."""
        return self._engine.has_query(self._query.query_id)

    def delete(self) -> None:
        """Deregister the query from the engine.

        The handle's buffer stays readable (results, cursors), but the
        engine drops its own reference so the memory is reclaimable once
        the caller lets go of the handle.
        """
        self._engine.delete_query(self._query.query_id)


class CraqrEngine:
    """The complete CrAQR query processor."""

    #: Runtime wiring __getstate__ deliberately drops from checkpoints;
    #: craqr-lint (CRQ302) checks this declaration against the exclusions.
    _DERIVED_STATE = ("_crash", "_plan_cache")

    def __init__(
        self,
        config: EngineConfig,
        world: SensingWorld,
        *,
        incentive: Optional[IncentiveScheme] = None,
    ) -> None:
        self._config = config
        self._world = world
        self._rng = np.random.default_rng(config.seed)
        self._grid = Grid(world.region, config.grid_side)
        faults = (
            FaultInjector(config.faults, world.state_arrays)
            if config.faults is not None
            else None
        )
        resilience = config.resilience
        health = (
            SensorHealthMonitor(resilience.health, world.state_arrays)
            if resilience is not None and resilience.health is not None
            else None
        )
        self._handler = RequestResponseHandler(
            world,
            self._grid,
            default_budget=config.budget.initial,
            incentive=incentive,
            faults=faults,
            resilience=resilience,
            health=health,
        )
        self._degradation = (
            DegradationTracker(
                threshold=resilience.degraded_response_rate,
                alpha=resilience.degraded_alpha,
            )
            if resilience is not None
            else None
        )
        self._discarded = DiscardedStore() if config.store_discarded else None
        self._planner = QueryPlanner(
            self._grid,
            batch_duration=config.batch_duration,
            online_estimation=config.online_estimation,
            discard_recorder=(self._discarded.record if self._discarded is not None else None),
            report_history=config.retention_batches,
            rng=np.random.default_rng(self._rng.integers(0, 2 ** 63 - 1)),
        )
        self._fabricator = StreamFabricator(self._planner, self._grid)
        self._tuner = BudgetTuner(
            self._handler, config.budget, history_batches=config.retention_batches
        )
        self._buffers: Dict[int, QueryResultBuffer] = {}
        self._handles: Dict[int, QueryHandle] = {}
        #: continuous views by name, plus their user-facing handles.
        self._views: Dict[str, ContinuousView] = {}
        self._view_handles: Dict[str, ViewHandle] = {}
        self._view_counter = 0
        self._reports: List[EngineReport] = []
        self._reports_view = _ReportsView(self._reports)
        self._batch_index = 0
        #: true while run_batch is dispatching end-of-batch notifications;
        #: a view created from inside a subscriber callback must not claim
        #: to have observed the batch being dispatched.
        self._ending_batch = False
        #: tuples delivered to queries whose buffers were since dropped by
        #: delete_query; keeps total_tuples_delivered exact.
        self._delivered_dropped = 0
        #: periodic checkpoint store, when config.checkpoints is set.
        self._checkpoints = (
            CheckpointStore(
                config.checkpoints.directory, retain=config.checkpoints.retain
            )
            if config.checkpoints is not None
            else None
        )
        #: armed crash injector (tests only); never survives a restore.
        self._crash: Optional[CrashInjector] = None
        #: compiled-plan cache (repro.plan.PlanCache) — derived state,
        #: created lazily, never checkpointed, rebuilt after restore.
        self._plan_cache = None

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------
    @property
    def config(self) -> EngineConfig:
        """The engine configuration."""
        return self._config

    @property
    def world(self) -> SensingWorld:
        """The sensing world the engine acquires from."""
        return self._world

    @property
    def fast_sim(self) -> bool:
        """Whether the world runs in shared-stream fast-sim mode.

        Set via :attr:`repro.sensing.WorldConfig.vectorized_rng`; with it on
        both the simulation and the query pipeline are vectorised
        end-to-end, at the cost of per-sensor-stream reproducibility.
        """
        return self._world.vectorized

    @property
    def grid(self) -> Grid:
        """The logical grid over the deployment region."""
        return self._grid

    @property
    def handler(self) -> RequestResponseHandler:
        """The request/response handler."""
        return self._handler

    @property
    def planner(self) -> QueryPlanner:
        """The query planner."""
        return self._planner

    @property
    def fabricator(self) -> StreamFabricator:
        """The crowdsensed stream fabricator."""
        return self._fabricator

    @property
    def budget_tuner(self) -> BudgetTuner:
        """The budget tuner."""
        return self._tuner

    @property
    def discarded_store(self) -> Optional[DiscardedStore]:
        """The store of discarded tuples, when enabled."""
        return self._discarded

    @property
    def fault_injector(self) -> Optional[FaultInjector]:
        """The configured fault injector, if any."""
        return self._handler.faults

    @property
    def health_monitor(self) -> Optional[SensorHealthMonitor]:
        """The sensor-health monitor, if a resilience config attached one."""
        return self._handler.health_monitor

    @property
    def degradation(self) -> Optional[DegradationTracker]:
        """The per-(attribute, cell) degradation tracker, if any."""
        return self._degradation

    def degraded_pairs(self) -> FrozenSet[Tuple[str, CellKey]]:
        """Pairs currently classified as fault-degraded (empty without
        a :class:`~repro.faults.ResilienceConfig`)."""
        if self._degradation is None:
            return frozenset()
        return self._degradation.degraded

    def violations(self) -> List[ViolationInfo]:
        """The last batch's rate violations with fault attribution.

        One :class:`ViolationInfo` row per (attribute, cell) pair the
        F-operators reported on, separating fault-attributed shortfalls
        (degraded response rate — the tuner froze these budgets) from
        planner error (budget still converging — the tuner acts on these).
        Empty before the first batch.
        """
        if not self._reports:
            return []
        report = self._reports[-1]
        rows: List[ViolationInfo] = []
        for (attribute, cell), violation in report.fabrication.violations.items():
            response_rate = (
                self._degradation.response_rate_for(attribute, cell)
                if self._degradation is not None
                else None
            )
            rows.append(
                ViolationInfo(
                    attribute=attribute,
                    cell=cell,
                    violation_percent=violation,
                    fault_attributed=(attribute, cell) in report.degraded_pairs,
                    response_rate=response_rate,
                )
            )
        return rows

    @property
    def reports(self) -> Sequence[EngineReport]:
        """Reports of retained batches (a live, read-only view).

        Without retention this is every batch ever run; with
        :attr:`~repro.config.EngineConfig.retention_batches` only the most
        recent window is kept.
        """
        return self._reports_view

    @property
    def batches_run(self) -> int:
        """Number of batches executed (survives report eviction)."""
        return self._batch_index

    def planner_stats(self) -> PlannerStats:
        """Snapshot of the planner's state (operator counts, materialised cells)."""
        return self._planner.stats()

    # ------------------------------------------------------------------
    # Compiled plans (repro.plan)
    # ------------------------------------------------------------------
    @property
    def plan_cache(self):
        """The compiled-plan cache (``None`` until the first batch).

        Derived state: it is never checkpointed and a restored engine
        rebuilds it lazily; its ``compiles``/``reuses`` counters are what
        the churn-storm regression test pins.
        """
        return self._plan_cache

    def _compiled_programs(self):
        """Valid compiled chain programs for this batch."""
        if self._plan_cache is None:
            from ..plan import PlanCache

            self._plan_cache = PlanCache()
        return self._plan_cache.programs_for(self._planner)

    def explain(self, name: str) -> str:
        """Render the live plan of a query label or view name.

        The ``EXPLAIN <query|view>`` statement: walks the chains the query
        taps in the order the compiled programs run them (see
        :func:`repro.plan.render_explain`), with cross-query sharing, the
        merge stage, the query's views (only the named one for a view
        target) and the seed cost model's steady-state estimate.  It reads
        the live topology and compiles nothing.  A name that is both a
        view and a query label is ambiguous and raises
        :class:`~repro.errors.QueryError`.
        """
        from ..plan import render_explain
        from .optimizer import estimate_query_cost

        view = self._views.get(name)
        labelled = any(h.query.label == name for h in self._handles.values())
        if view is not None and labelled:
            raise QueryError(
                f"EXPLAIN target {name!r} is ambiguous: it names view "
                f"{name!r} (on query {view.query_label!r}) and a query "
                f"labelled {name!r}; rename or drop the view"
            )
        if view is not None:
            query = self._handles[view.query_id].query
        elif not labelled:
            raise QueryError(
                f"EXPLAIN target {name!r} matches no registered query "
                f"label and no view name"
            )
        else:
            query = self.query(name).query
        cost = estimate_query_cost(
            query, self._grid, batch_duration=self._config.batch_duration
        )
        return render_explain(
            self._planner,
            query,
            self._views.values(),
            cost,
            view_name=name if view is not None else None,
        )

    # ------------------------------------------------------------------
    # Query lifecycle
    # ------------------------------------------------------------------
    def has_query(self, query_id: int) -> bool:
        """Whether the query is currently registered."""
        return query_id in self._handles

    def query_handles(self) -> List[QueryHandle]:
        """Handles of every registered query."""
        return list(self._handles.values())

    def query(self, label: str) -> QueryHandle:
        """Resolve a query by its label (the ``AS <name>`` of the query language).

        Unnamed queries answer to their default ``Q<id>`` label.  Raises
        :class:`~repro.errors.QueryError` when no registered query carries
        the label, or when several do (labels are not enforced unique at
        registration, so lookup is where ambiguity surfaces).
        """
        matches = [
            handle
            for handle in self._handles.values()
            if handle.query.label == label
        ]
        if not matches:
            raise QueryError(f"no registered query is labelled {label!r}")
        if len(matches) > 1:
            raise QueryError(
                f"label {label!r} is ambiguous: {len(matches)} registered "
                f"queries share it; address them by query_id instead"
            )
        return matches[0]

    def register_query(self, query: AcquisitionalQuery) -> QueryHandle:
        """Register an acquisitional query and return a handle to its results."""
        if query.query_id in self._handles:
            raise QueryError(f"query {query.label} is already registered")
        buffer = QueryResultBuffer(
            query.query_id,
            requested_rate=query.rate,
            region_area=query.region.area,
            retention_batches=self._config.retention_batches,
        )
        self._buffers[query.query_id] = buffer
        touched = self._planner.insert_query(
            query, on_result_batch=self._deliver_batch
        )
        # Seed the handler's budget for every (attribute, cell) pair the
        # query activates so the first batch already respects the config.
        for key in touched:
            self._tuner.ensure_initial_budget(query.attribute, key)
        handle = QueryHandle(query, buffer, self)
        self._handles[query.query_id] = handle
        return handle

    def _deliver_batch(self, query_id: int, batch: TupleBatch) -> None:
        """Delivery of one merged batch into a query's result buffer.

        A bound method (not a per-query closure) so the planner's stored
        handlers — and with them the whole engine — pickle into a
        checkpoint.
        """
        target = self._buffers.get(query_id)
        if target is None:
            return
        target.extend_batch(batch)
        self._fabricator.register_delivery_batch(query_id, len(batch))

    def update_query(
        self, query_id: int, *, rate=None, region=None
    ) -> QueryHandle:
        """Replan a live query's rate and/or region in place.

        The planner rewires only the cells the query touches (see
        :meth:`~repro.core.planner.QueryPlanner.update_query`); newly
        covered cells get the configured initial budget, cells the query
        keeps retain their tuned budget, and the result buffer, batch index
        and accounting all survive, so rate estimates continue seamlessly
        against the new target.
        """
        handle = self._handles.get(query_id)
        if handle is None:
            raise PlanningError(f"query id {query_id} is not registered")
        update = self._planner.update_query(query_id, rate=rate, region=region)
        for key in update.added:
            self._tuner.ensure_initial_budget(update.query.attribute, key)
        buffer = handle.buffer
        if rate is not None:
            buffer.set_requested_rate(update.query.rate)
        if region is not None:
            buffer.set_region_area(update.query.region.area)
        handle._query = update.query
        return handle

    def pause_query(self, query_id: int) -> None:
        """Detach a query's acquisition without tearing down its topology."""
        if query_id not in self._handles:
            raise PlanningError(f"query id {query_id} is not registered")
        self._planner.set_paused(query_id, True)

    def resume_query(self, query_id: int) -> None:
        """Reattach a paused query's acquisition."""
        if query_id not in self._handles:
            raise PlanningError(f"query id {query_id} is not registered")
        self._planner.set_paused(query_id, False)

    def delete_query(self, query_id: int) -> None:
        """Deregister a query and tear down its topology pieces.

        The engine drops its reference to the query's result buffer — any
        surviving :class:`QueryHandle` keeps the fabricated results
        readable, but a long-running engine no longer accumulates buffers
        of dead queries (lifetime delivery totals stay exact).
        """
        if query_id not in self._handles:
            raise PlanningError(f"query id {query_id} is not registered")
        # Views of a stopped query stop being maintained (their frames stay
        # readable through surviving ViewHandles), mirroring the buffer.
        for name in [
            name for name, view in self._views.items() if view.query_id == query_id
        ]:
            self.drop_view(name)
        self._planner.delete_query(query_id)
        del self._handles[query_id]
        buffer = self._buffers.pop(query_id, None)
        if buffer is not None:
            self._delivered_dropped += buffer.total_tuples

    # ------------------------------------------------------------------
    # Continuous views (the serving API over query sessions)
    # ------------------------------------------------------------------
    def create_view(
        self, query_id: int, spec: ViewSpec, *, name: Optional[str] = None
    ) -> ViewHandle:
        """Attach a continuous view to a registered query's stream.

        The view subscribes to the query's delivery stream (so only
        batches completed after creation are folded in), its frame
        boundaries are validated against the engine's batch duration, and
        its frame buffer inherits the engine's
        :attr:`~repro.config.EngineConfig.retention_batches` bound.  The
        view name (explicit, from ``spec.name``, or auto-assigned
        ``V<n>``) must be unique across the engine — ``DROP VIEW`` and
        ``SHOW VIEWS`` address views by it.
        """
        handle = self._handles.get(query_id)
        if handle is None:
            raise PlanningError(f"query id {query_id} is not registered")
        view_name = name or spec.name
        if view_name is None:
            # Auto-assignment skips names the user already took: an unnamed
            # request must never fail over a collision it didn't choose.
            while True:
                self._view_counter += 1
                view_name = f"V{self._view_counter}"
                if view_name not in self._views:
                    break
        if view_name in self._views:
            raise ViewError(
                f"a view named {view_name!r} already exists "
                f"(on query {self._views[view_name].query_label!r}); "
                f"DROP VIEW it first or pick another name"
            )
        # A view only observes deliveries subscribed *before* a batch's
        # end_batch notifications fire; when create_view runs from inside
        # one of those callbacks, the in-flight batch is already partially
        # dispatched, so the view's origin moves past it — every emitted
        # frame must cover a fully observed window.
        observed_from = self._batch_index + (1 if self._ending_batch else 0)
        view = ContinuousView(
            spec,
            name=view_name,
            query_id=query_id,
            query_label=handle.query.label,
            grid=self._grid,
            batch_duration=self._config.batch_duration,
            retention_batches=self._config.retention_batches,
            start_time=observed_from * self._config.batch_duration,
        )

        view.attach(handle.subscribe(view.accept))
        self._views[view_name] = view
        self._install_shared_sort(view)
        view_handle = ViewHandle(view, self)
        self._view_handles[view_name] = view_handle
        return view_handle

    def _install_shared_sort(self, view: ContinuousView) -> None:
        """Give the view its query's shared lexsort cache.

        Every view on one query folds the same delivered batch; views
        sharing a ``(slide, group_by)`` signature reuse one (pane, group)
        sort per batch.  The cache lives only on the views themselves
        (runtime wiring, dropped from checkpoints), so installation finds
        a sibling's cache or starts a fresh one.
        """
        for other in self._views.values():
            if other is view or other.query_id != view.query_id:
                continue
            cache = getattr(other, "_shared_sort", None)
            if cache is not None:
                view._shared_sort = cache
                return
        view._shared_sort = SharedSortCache()

    def has_view(self, name: str) -> bool:
        """Whether a view with this name is currently maintained."""
        return name in self._views

    def view(self, name: str) -> ViewHandle:
        """Resolve a maintained view by name."""
        handle = self._view_handles.get(name)
        if handle is None:
            raise ViewError(f"no view is named {name!r}")
        return handle

    def view_handles(self) -> List[ViewHandle]:
        """Handles of every maintained view."""
        return list(self._view_handles.values())

    def views_of(self, query_id: int) -> List[ViewHandle]:
        """Handles of the views maintained on one query."""
        return [
            self._view_handles[name]
            for name, view in self._views.items()
            if view.query_id == query_id
        ]

    def drop_view(self, name: str) -> ViewHandle:
        """Stop maintaining a view (its frames stay readable).

        The delivery subscription is cancelled and the view is removed
        from the registry; the returned (now inactive) handle keeps the
        frame buffer readable, mirroring how ``STOP`` leaves a query's
        result buffer readable.
        """
        view = self._views.pop(name, None)
        if view is None:
            raise ViewError(f"no view is named {name!r}")
        view.detach()
        return self._view_handles.pop(name)

    def views(self) -> List[ViewSessionInfo]:
        """One :class:`~repro.views.ViewSessionInfo` row per maintained view
        (the ``SHOW VIEWS`` output)."""
        return [view.info() for view in self._views.values()]

    # ------------------------------------------------------------------
    # Statement execution (the query language's session surface)
    # ------------------------------------------------------------------
    def execute(self, statement):
        """Execute one query-language statement against the live engine.

        ``statement`` is an AST node from
        :func:`repro.query.parse_statements`, or a string holding exactly
        one statement.  Returns

        * :class:`QueryHandle` for ``ACQUIRE`` (the new session) and
          ``ALTER`` (the updated session),
        * the deleted query's :class:`QueryHandle` for ``STOP`` (its buffer
          stays readable),
        * a list of :class:`QuerySessionInfo` rows for ``SHOW QUERIES``,
        * :class:`~repro.views.ViewHandle` for ``CREATE VIEW`` (the live
          view) and ``DROP VIEW`` (the detached view, frames still
          readable),
        * a list of :class:`~repro.views.ViewSessionInfo` rows for ``SHOW
          VIEWS``,
        * the rendered plan string for ``EXPLAIN <query|view>``.
        """
        # Imported lazily: repro.query imports repro.core.query, so a
        # module-level import would be order-sensitive during package init.
        from ..query.ast import (
            AlterStatement,
            CreateViewStatement,
            DropViewStatement,
            ExplainStatement,
            ParsedQuery,
            ShowQueriesStatement,
            ShowViewsStatement,
            StopStatement,
        )
        from ..query.parser import parse_statements

        if isinstance(statement, str):
            statements = parse_statements(statement)
            if len(statements) != 1:
                raise QueryError(
                    f"execute() takes exactly one statement, got "
                    f"{len(statements)}; parse_statements() + a loop runs scripts"
                )
            statement = statements[0]
        if isinstance(statement, ParsedQuery):
            return self.register_query(statement.to_query())
        if isinstance(statement, AlterStatement):
            handle = self.query(statement.name)
            rate = statement.rate_spec()
            region = statement.region.to_region() if statement.region is not None else None
            return self.update_query(handle.query_id, rate=rate, region=region)
        if isinstance(statement, StopStatement):
            handle = self.query(statement.name)
            self.delete_query(handle.query_id)
            return handle
        if isinstance(statement, ShowQueriesStatement):
            return self.sessions()
        if isinstance(statement, CreateViewStatement):
            handle = self.query(statement.query_name)
            return self.create_view(
                handle.query_id, statement.to_spec(), name=statement.name
            )
        if isinstance(statement, DropViewStatement):
            return self.drop_view(statement.name)
        if isinstance(statement, ShowViewsStatement):
            return self.views()
        if isinstance(statement, ExplainStatement):
            return self.explain(statement.name)
        raise QueryError(
            f"cannot execute a {type(statement).__name__}; expected a parsed "
            f"ACQUIRE/ALTER/STOP/SHOW QUERIES/CREATE VIEW/DROP VIEW/SHOW "
            f"VIEWS/EXPLAIN statement or its text"
        )

    def execute_script(self, script, *, on_error: str = "raise", validate=None):
        """Parse and run a multi-statement script in order.

        ``script`` is a string of semicolon/newline-separated statements
        (or an already-parsed statement sequence).  Each statement goes
        through :meth:`execute`; the per-statement outcomes come back as a
        list of :class:`StatementResult` in script order.

        ``on_error`` picks the mid-script failure contract:

        * ``"raise"`` (default) — the first failing statement raises a
          :class:`~repro.errors.QueryError` naming its position; the
          effects of the statements before it persist (there is no
          rollback — sessions are live engine state, not a transaction).
        * ``"continue"`` — failures are captured on their
          :class:`StatementResult` (``.error``) and the script keeps
          going, the repl/server behaviour.

        Parse errors always raise: a script that does not parse has no
        statement positions to attribute results to.  ``validate`` is an
        optional per-statement hook (e.g. an attribute-catalog check) run
        before execution; a :class:`~repro.errors.CraqrError` it raises is
        handled exactly like an execution error.
        """
        from ..query.parser import parse_statements

        if on_error not in ("raise", "continue"):
            raise QueryError(
                f"on_error must be 'raise' or 'continue', got {on_error!r}"
            )
        if isinstance(script, str):
            statements = parse_statements(script)
        else:
            statements = list(script)
        results: List[StatementResult] = []
        total = len(statements)
        for index, statement in enumerate(statements):
            try:
                if validate is not None:
                    validate(statement)
                results.append(
                    StatementResult(statement=statement, result=self.execute(statement))
                )
            except CraqrError as exc:
                if on_error == "raise":
                    raise QueryError(
                        f"script statement {index + 1} of {total} failed: {exc}"
                    ) from exc
                results.append(StatementResult(statement=statement, error=exc))
        return results

    def sessions(self) -> List[QuerySessionInfo]:
        """One :class:`QuerySessionInfo` row per registered query."""
        rows: List[QuerySessionInfo] = []
        degraded = self.degraded_pairs()
        for handle in self._handles.values():
            buffer = handle.buffer
            achieved: Optional[float] = None
            if buffer.batches_completed > 0:
                achieved = handle.achieved_rate().achieved_rate
            degraded_cells: Tuple[CellKey, ...] = ()
            if degraded:
                attribute = handle.query.attribute
                degraded_cells = tuple(
                    cell
                    for cell in self._planner.cells_for_query(handle.query_id)
                    if (attribute, cell) in degraded
                )
            rows.append(
                QuerySessionInfo(
                    label=handle.query.label,
                    query_id=handle.query_id,
                    attribute=handle.query.attribute,
                    requested_rate=handle.query.rate,
                    region_area=handle.query.region.area,
                    paused=handle.is_paused(),
                    total_tuples=buffer.total_tuples,
                    batches_completed=buffer.batches_completed,
                    achieved_rate=achieved,
                    views=sum(
                        1
                        for view in self._views.values()
                        if view.query_id == handle.query_id
                    ),
                    degraded_pairs=degraded_cells,
                )
            )
        return rows

    # ------------------------------------------------------------------
    # Batch execution
    # ------------------------------------------------------------------
    def run_batch(self) -> EngineReport:
        """Acquire and fabricate one batch window.

        Acquisition and fabrication move whole :class:`TupleBatch` columns:
        the handler answers every ``(attribute, cell)`` round as one batch,
        the fabricator buckets rows by cell and every chain runs as one
        compiled program (:mod:`repro.plan`).  When the world runs in
        fast-sim mode (:attr:`~repro.sensing.WorldConfig.vectorized_rng`),
        sensor movement and acquisition sampling additionally vectorise
        across the whole crowd — the handler then serves each attribute
        with one fused
        :meth:`~repro.sensing.RequestResponseHandler.acquire_attribute_batch`
        round instead of one round per ``(attribute, cell)`` pair — faster
        still, but statistically rather than bit-for-bit reproducible.
        """
        duration = self._config.batch_duration
        batch = self._batch_index
        self._planner.open_window(self._world.now)
        attribute_cells = self._planner.attribute_cells()
        batches, handler_report = self._handler.acquire_batches(
            attribute_cells, duration=duration
        )
        # Move the world forward to the end of the batch window.
        self._world.advance(duration)
        self._crash_barrier(CrashPoint.POST_ACQUISITION, batch)
        fabrication = self._fabricator.process_batch_columnar(
            batches, self._compiled_programs()
        )
        self._crash_barrier(CrashPoint.POST_MERGE, batch)
        degraded: FrozenSet[Tuple[str, CellKey]] = frozenset()
        if self._degradation is not None:
            degraded = self._degradation.update(handler_report)
        decisions = self._tuner.tune(fabrication.violations, degraded=degraded)
        self._crash_barrier(CrashPoint.PRE_VIEW_FOLD, batch)
        # Snapshot: a subscriber callback firing inside end_batch may
        # register or delete queries, mutating the buffer dict.
        self._ending_batch = True
        try:
            for query_id, buffer in list(self._buffers.items()):
                # Paused queries freeze their batch accounting: the pause
                # window neither counts batches nor dilutes the achieved rate.
                if not self._planner.is_paused(query_id):
                    buffer.end_batch()
        finally:
            self._ending_batch = False
        report = EngineReport(
            batch_index=self._batch_index,
            handler=handler_report,
            fabrication=fabrication,
            budget_decisions=decisions,
            degraded_pairs=degraded,
        )
        self._reports.append(report)
        retention = self._config.retention_batches
        if retention is not None and len(self._reports) > retention:
            del self._reports[: len(self._reports) - retention]
        self._batch_index += 1
        # Advance the continuous views' window clocks.  Deliveries already
        # arrived through the subscription path inside end_batch above;
        # this closes every window whose end the sim clock just passed —
        # including windows of paused or quiet queries, which emit empty
        # frames so the frame sequence stays gap-free in sim time.
        if self._views:
            now = self._batch_index * duration
            for view in list(self._views.values()):
                if view.is_active:  # failed views are quarantined, not advanced
                    view.advance_to(now)
        # The batch is fully committed: acquisition, deliveries, tuning,
        # dispatch and view folds are all done — the crash-consistent point
        # where a periodic checkpoint captures the engine.
        if self._checkpoints is not None:
            every = self._config.checkpoints.every
            if every is not None and self._batch_index % every == 0:
                self._write_checkpoint(batch)
        return report

    def run(self, batches: int) -> List[EngineReport]:
        """Run several consecutive batches."""
        if batches <= 0:
            raise QueryError("the number of batches must be positive")
        return [self.run_batch() for _ in range(batches)]

    # ------------------------------------------------------------------
    # Checkpoints, crash injection and recovery
    # ------------------------------------------------------------------
    @property
    def checkpoint_store(self) -> Optional[CheckpointStore]:
        """The periodic checkpoint store (``None`` without a
        :class:`~repro.config.CheckpointConfig`)."""
        return self._checkpoints

    def arm_crash(self, injector: Optional[CrashInjector]) -> None:
        """Arm (or with ``None`` disarm) a process-crash injection.

        Test plumbing for the recovery harness: the armed
        :class:`~repro.faults.CrashInjector` fires at its
        :class:`~repro.faults.CrashPoint` barrier of the batch loop.  An
        armed injector is never checkpointed — a restored engine does not
        inherit the crash plan.
        """
        self._crash = injector

    def _crash_barrier(self, point: CrashPoint, batch_index: int) -> None:
        if self._crash is not None:
            self._crash.barrier(point, batch_index)

    def snapshot(self) -> EngineSnapshot:
        """Capture the complete engine state, in memory.

        Only valid at a batch boundary (never from inside a subscriber
        callback): result buffers have closed their batch and operator
        scratch buffers are empty, which is what makes the capture
        crash-consistent.
        """
        if self._ending_batch:
            raise RecoveryError(
                "cannot snapshot from inside a batch's subscriber dispatch; "
                "checkpoint at a batch boundary instead"
            )
        return EngineSnapshot.capture(self)

    def checkpoint(self, path: Optional[str] = None) -> pathlib.Path:
        """Write a checkpoint file and return its path.

        With ``path`` the snapshot goes to that exact file; without it the
        engine's configured :class:`~repro.recovery.CheckpointStore` names
        the file after the batch index and prunes past the retention cap.
        Raises :class:`~repro.errors.RecoveryError` when neither is
        available.
        """
        snap = self.snapshot()
        if path is not None:
            return snap.write(pathlib.Path(path))
        if self._checkpoints is None:
            raise RecoveryError(
                "no checkpoint directory configured "
                "(EngineConfig.checkpoints); pass an explicit path"
            )
        return self._checkpoints.write(snap)

    def _write_checkpoint(self, batch: int) -> pathlib.Path:
        """Periodic checkpoint with the mid-write crash barrier threaded in."""

        def mid_write() -> None:
            self._crash_barrier(CrashPoint.MID_CHECKPOINT_WRITE, batch)

        return self._checkpoints.write(self.snapshot(), pre_replace_hook=mid_write)

    @classmethod
    def restore(cls, path) -> "CraqrEngine":
        """Rebuild a live engine from one checkpoint file.

        The restored engine resumes exactly where the checkpoint left off:
        its next batch is seeded byte-identical to the batch the
        uninterrupted engine ran next (the contract pinned by
        ``tests/recovery/``).  Engine-managed view subscriptions are
        re-attached; user push subscriptions and cursors held by callers do
        not survive — re-subscribe after restore.
        """
        from ..recovery import restore_engine

        return restore_engine(path)

    @classmethod
    def restore_latest(cls, directory) -> "CraqrEngine":
        """Rebuild a live engine from the newest good checkpoint in a directory.

        Skips over torn or corrupt files (a crash mid-write leaves the
        previous checkpoint intact) and over files whose payload names a
        global an engine snapshot never contains; raises
        :class:`~repro.errors.RecoveryError` when no file loads.
        """
        from ..recovery import restore_latest

        return restore_latest(directory)

    def __getstate__(self):
        # An armed crash injector is test plumbing for the run being
        # captured, not engine state: a restored engine must replay the
        # crashed batch to completion, not crash again.
        state = dict(self.__dict__)
        state["_crash"] = None
        # The compiled-plan cache is derived state: it holds no RNG, no
        # counters and no results, and is rebuilt lazily from the restored
        # topology (the recovery contract of tests/plan/).
        state["_plan_cache"] = None
        return state

    def _reattach_after_restore(self) -> None:
        """Re-wire the subscription plumbing a snapshot deliberately drops.

        Buffers pickle without their subscriber lists, so after a restore
        every active view is re-subscribed to its query's delivery stream —
        in ``_views`` insertion order, with the same ``view.accept`` bound
        method ``create_view`` registered, so dispatch order (and therefore
        the replayed run) is identical to the captured engine's.
        Quarantined views stay detached, exactly as they were.
        """
        for view in self._views.values():
            if not view.is_active:
                continue
            handle = self._handles.get(view.query_id)
            if handle is None:  # pragma: no cover - drop_view removes these
                continue
            view.attach(handle.subscribe(view.accept))
            self._install_shared_sort(view)

    # ------------------------------------------------------------------
    # Summaries
    # ------------------------------------------------------------------
    def total_requests_sent(self) -> int:
        """Acquisition requests sent since the engine was created."""
        return self._handler.total_requests

    def total_tuples_acquired(self) -> int:
        """Raw tuples collected since the engine was created."""
        return self._handler.total_responses

    def total_tuples_delivered(self) -> int:
        """Tuples delivered to query streams since the engine was created.

        Exact across deletions: deliveries to since-deleted queries are
        carried in a running total after their buffers are dropped.
        """
        return (
            sum(buffer.total_tuples for buffer in self._buffers.values())
            + self._delivered_dropped
        )

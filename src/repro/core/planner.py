"""Topology construction, query insertion and query deletion (Section V).

The planner maintains the hashmap from grid-cell coordinates to
:class:`~repro.core.topology.CellTopology` and the per-query merge stage
(the U-operators of Fig. 2c).  Only the grid cells with at least one
overlapping query are materialised ("in reality only the grid cells that are
useful for query processing are materialized").

Query insertion computes the overlap of the query region with every grid
cell, registers the query with the affected cell topologies and rebuilds
only those topologies; query deletion removes the query from its cells and
drops cells (hashmap entries) that become empty — the paper's delete-right-
to-left-until-a-branching-point rule expressed over the canonical form.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from itertools import islice
from operator import itemgetter
from typing import Dict, List, Optional, Set, Tuple

import numpy as np

from ..errors import PlanningError, QueryError
from ..geometry import Grid, GridCell, Region
from ..rng import ensure_rng
from ..streams import CallbackSink, SensorTuple, TupleBatch
from .pmat import UnionOperator
from .pmat.flatten import estimate_segments
from .query import AcquisitionalQuery
from .topology import CellTopology, DeliverBatchFn, DeliverFn, QueryDelivery

CellKey = Tuple[int, int]


def _drop_delivery(query_id: int, item: SensorTuple) -> None:
    """Fallback result handler of queries registered without a callback."""


@dataclass
class PlannerStats:
    """Aggregate statistics about the planner's current state."""

    queries: int = 0
    materialized_cells: int = 0
    pmat_operators: int = 0
    union_operators: int = 0
    rebuilds: int = 0
    insertions: int = 0
    deletions: int = 0
    updates: int = 0
    paused_queries: int = 0
    cells_touched_by_last_change: int = 0


@dataclass(frozen=True)
class QueryUpdate:
    """Outcome of one in-flight :meth:`QueryPlanner.update_query`.

    Attributes
    ----------
    query:
        The updated query object (same ``query_id``, new rate/region).
    added / removed / kept:
        Grid-cell keys the query newly overlaps, no longer overlaps, and
        keeps overlapping.  Only ``added`` cells need fresh budget seeding;
        ``kept`` and ``removed`` cells preserve their budget state.
    """

    query: AcquisitionalQuery
    added: List[CellKey]
    removed: List[CellKey]
    kept: List[CellKey]


@dataclass
class _QueryPlan:
    """Book-keeping for one registered query."""

    query: AcquisitionalQuery
    cells: List[CellKey]
    union: UnionOperator
    union_sink: CallbackSink
    overlaps: Dict[CellKey, Region] = field(default_factory=dict)


class QueryPlanner:
    """Builds and maintains the per-cell execution topologies."""

    def __init__(
        self,
        grid: Grid,
        *,
        batch_duration: float = 1.0,
        headroom: float = 1.25,
        online_estimation: bool = False,
        discard_recorder=None,
        report_history: Optional[int] = None,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        self._grid = grid
        self._batch_duration = batch_duration
        self._headroom = headroom
        self._online = online_estimation
        self._discard_recorder = discard_recorder
        #: bound on every chain's Flatten report history (None keeps all).
        self._report_history = report_history
        self._rng = ensure_rng(rng)
        #: the hashmap of Section V: grid-cell key -> execution topology
        self._cells: Dict[CellKey, CellTopology] = {}
        self._plans: Dict[int, _QueryPlan] = {}
        self._result_handlers: Dict[int, DeliverFn] = {}
        self._batch_handlers: Dict[int, DeliverBatchFn] = {}
        self._paused: Set[int] = set()
        self._insertions = 0
        self._deletions = 0
        self._updates = 0
        self._last_touched = 0

    # ------------------------------------------------------------------
    @property
    def grid(self) -> Grid:
        """The logical grid over the deployment region."""
        return self._grid

    @property
    def materialized_cells(self) -> List[CellKey]:
        """Keys of the grid cells that currently have a topology."""
        return list(self._cells.keys())

    @property
    def queries(self) -> List[AcquisitionalQuery]:
        """All currently registered queries."""
        return [plan.query for plan in self._plans.values()]

    def has_query(self, query_id: int) -> bool:
        """Whether a query with this id is registered."""
        return query_id in self._plans

    def cell_topology(self, key: CellKey) -> CellTopology:
        """The topology materialised for a grid cell."""
        try:
            return self._cells[key]
        except KeyError:
            raise PlanningError(f"no topology materialised for cell {key}") from None

    def cells_for_query(self, query_id: int) -> List[CellKey]:
        """The grid cells a query's region overlaps."""
        return list(self._plan(query_id).cells)

    def union_operator(self, query_id: int) -> UnionOperator:
        """The merge-stage Union operator of a registered query."""
        return self._plan(query_id).union

    def _plan(self, query_id: int) -> _QueryPlan:
        try:
            return self._plans[query_id]
        except KeyError:
            raise PlanningError(f"query id {query_id} is not registered") from None

    # ------------------------------------------------------------------
    # Query insertion (Section V, "Query Insertions")
    # ------------------------------------------------------------------
    def insert_query(
        self,
        query: AcquisitionalQuery,
        *,
        on_result: Optional[DeliverFn] = None,
        on_result_batch: Optional[DeliverBatchFn] = None,
    ) -> List[CellKey]:
        """Insert a query; returns the keys of the grid cells it touches.

        Parameters
        ----------
        query:
            The acquisitional query to register.
        on_result:
            Callback ``(query_id, tuple)`` invoked for every tuple of the
            query's final, merged crowdsensed data stream when the cells
            are walked per tuple (:meth:`route_cell_batch`).
        on_result_batch:
            Callback ``(query_id, batch)`` invoked once per batch the
            compiled programs deliver to the query
            (:meth:`process_columnar`).  Each callback serves its own path
            only: without ``on_result_batch`` a compiled delivery is
            counted by the query's Union operator and dropped, as a walked
            tuple is without ``on_result``.
        """
        if query.query_id in self._plans:
            raise PlanningError(f"query {query.label} is already registered")
        query.validate_against(self._grid.region, self._grid.cell_area)

        overlapping = self._grid.overlapping_cells(query.region)
        if not overlapping:
            raise QueryError(
                f"query {query.label} does not overlap any grid cell"
            )
        with self._all_or_nothing([cell.key for cell in overlapping]):
            # The merge stage: one U-operator per query aggregates the per-cell
            # partial streams into the final MCDS (Fig. 2c).
            union = UnionOperator(
                rate=query.rate,
                attribute=query.attribute,
                name=f"U:{query.label}",
                rng=np.random.default_rng(self._rng.integers(0, 2 ** 63 - 1)),
            )
            handler = on_result or _drop_delivery
            union_sink = CallbackSink(
                QueryDelivery(handler, query.query_id),
                name=f"result:{query.label}",
            )
            union_sink.attach(union.output)

            plan = _QueryPlan(query=query, cells=[], union=union, union_sink=union_sink)
            self._plans[query.query_id] = plan
            self._result_handlers[query.query_id] = handler
            if on_result_batch is not None:
                self._batch_handlers[query.query_id] = on_result_batch

            touched: List[CellKey] = []
            for cell in overlapping:
                overlap = query.region.intersection(cell.region)
                if overlap is None:
                    continue
                self._topology_for(cell).add_query(query, overlap)
                plan.overlaps[cell.key] = overlap
                touched.append(cell.key)
            plan.cells = touched

            self._rebuild_cells(touched)
            self._insertions += 1
            self._last_touched = len(touched)
            return touched

    def _topology_for(self, cell) -> CellTopology:
        """The cell's topology, materialising the hashmap entry on demand."""
        topology = self._cells.get(cell.key)
        if topology is None:
            topology = CellTopology(
                cell,
                batch_duration=self._batch_duration,
                headroom=self._headroom,
                online_estimation=self._online,
                discard_recorder=self._discard_recorder,
                report_history=self._report_history,
                rng=np.random.default_rng(self._rng.integers(0, 2 ** 63 - 1)),
            )
            self._cells[cell.key] = topology
        return topology

    # ------------------------------------------------------------------
    # In-flight query mutation (the session API's ALTER path)
    # ------------------------------------------------------------------
    def update_query(
        self,
        query_id: int,
        *,
        rate=None,
        region=None,
    ) -> QueryUpdate:
        """Replan a registered query's rate and/or region in place.

        The query keeps its id, result routing and merge stage; only the
        per-cell PMAT topology is adjusted: cells the new region no longer
        overlaps drop the query (and are dematerialised when empty), cells
        it keeps are re-taped with the new rate/overlap, and newly
        overlapped cells are materialised.  Cells of *other* queries are
        untouched, so their operators, accounting and budget state survive.

        Parameters
        ----------
        rate:
            New requested rate (a number or
            :class:`~repro.core.query.RateSpec`); ``None`` keeps the rate.
        region:
            New query region (a :class:`~repro.geometry.Region` or
            :class:`~repro.geometry.Rectangle`); ``None`` keeps the region.
        """
        plan = self._plan(query_id)
        if rate is None and region is None:
            raise PlanningError("update_query needs a new rate and/or region")
        old_query = plan.query
        changes = {}
        if rate is not None:
            changes["rate"] = rate
        if region is not None:
            changes["region"] = region
        new_query = replace(old_query, **changes)
        new_query.validate_against(self._grid.region, self._grid.cell_area)

        new_overlaps: Dict[CellKey, Tuple] = {}
        for cell in self._grid.overlapping_cells(new_query.region):
            overlap = new_query.region.intersection(cell.region)
            if overlap is not None:
                new_overlaps[cell.key] = (cell, overlap)
        if not new_overlaps:
            raise QueryError(
                f"query {new_query.label} does not overlap any grid cell"
            )
        with self._all_or_nothing({*plan.cells, *new_overlaps}):
            old_keys = set(plan.cells)
            removed = [key for key in plan.cells if key not in new_overlaps]
            kept = [key for key in plan.cells if key in new_overlaps]
            added = [key for key in new_overlaps if key not in old_keys]

            for key in removed:
                topology = self._cells.get(key)
                if topology is None:
                    continue
                topology.remove_query(old_query)
                if topology.is_empty:
                    del self._cells[key]
            for key in kept:
                topology = self._cells[key]
                topology.remove_query(old_query)
                topology.add_query(new_query, new_overlaps[key][1])
            for key in added:
                cell, overlap = new_overlaps[key]
                self._topology_for(cell).add_query(new_query, overlap)
            rebuild = [key for key in removed if key in self._cells] + kept + added
            self._rebuild_cells(rebuild)

            if rate is not None:
                plan.union.set_rate(new_query.rate)
            plan.query = new_query
            plan.cells = list(new_overlaps.keys())
            plan.overlaps = {key: overlap for key, (_, overlap) in new_overlaps.items()}
            self._updates += 1
            self._last_touched = len(rebuild)
            return QueryUpdate(query=new_query, added=added, removed=removed, kept=kept)

    # ------------------------------------------------------------------
    # Pause / resume (detach acquisition without tearing down topology)
    # ------------------------------------------------------------------
    def set_paused(self, query_id: int, paused: bool) -> None:
        """Mark a query paused (or resumed).

        A paused query keeps its whole topology, but it no longer demands
        acquisition (:meth:`attribute_cells` skips (attribute, cell) pairs
        whose every query is paused) and its rate violations are not
        reported to the budget tuner (:meth:`violations` applies the same
        filter).  The engine suppresses deliveries to paused queries, so
        data acquired for co-located active queries is not forwarded.
        """
        self._plan(query_id)  # validate registration
        if paused:
            self._paused.add(query_id)
        else:
            self._paused.discard(query_id)

    def is_paused(self, query_id: int) -> bool:
        """Whether the query is currently paused (``False`` for unknown ids)."""
        return query_id in self._paused

    def _all_paused(self, query_ids: List[int]) -> bool:
        """Whether every one of the chain's queries is paused."""
        return bool(self._paused) and all(
            query_id in self._paused for query_id in query_ids
        )

    # ------------------------------------------------------------------
    # Query deletion (Section V, "Query Deletions")
    # ------------------------------------------------------------------
    def delete_query(self, query_id: int) -> List[CellKey]:
        """Delete a query; returns the keys of the grid cells it touched.

        Cells whose topology no longer serves any query are dropped from the
        hashmap entirely, matching the paper's "until all the streams and the
        key in the hashmap are deleted".
        """
        plan = self._plan(query_id)
        touched: List[CellKey] = []
        for key in plan.cells:
            topology = self._cells.get(key)
            if topology is None:
                continue
            topology.remove_query(plan.query)
            touched.append(key)
            if topology.is_empty:
                del self._cells[key]
        self._rebuild_cells([key for key in touched if key in self._cells])
        del self._plans[query_id]
        self._result_handlers.pop(query_id, None)
        self._batch_handlers.pop(query_id, None)
        self._paused.discard(query_id)
        self._deletions += 1
        self._last_touched = len(touched)
        return touched

    # ------------------------------------------------------------------
    # Internal plumbing
    # ------------------------------------------------------------------
    def _deliver(self, query_id: int, item: SensorTuple) -> None:
        """Route a per-cell partial-stream tuple into the query's merge stage.

        Paused queries are skipped before the merge stage: tuples acquired
        for co-located active queries must not leak into a detached
        session's stream or accounting.
        """
        plan = self._plans.get(query_id)
        if plan is None or query_id in self._paused:
            return
        plan.union.accept(item)

    def _deliver_batch(self, query_id: int, batch: TupleBatch) -> None:
        """Route a query's batch into its merge stage.

        The compiled programs deliver each query's batch whole, its cells'
        partial streams already merged.  The merge stage's Union operator
        accounts for the batch and the query's batch handler receives it in
        one call; a query registered without one has the batch accounted
        and dropped, as the per-tuple walk drops a query's tuples without
        ``on_result``.
        """
        plan = self._plans.get(query_id)
        if plan is None or query_id in self._paused:
            return
        n = len(batch)
        plan.union.account_batch(n, n)
        handler = self._batch_handlers.get(query_id)
        if handler is not None:
            handler(query_id, batch)

    @contextmanager
    def _all_or_nothing(self, keys):
        """Run a plan change to the cells at ``keys`` that completes or
        leaves the plan as it was.

        An operator can refuse what a change asks of it part-way through
        (a rate whose Flatten headroom overflows, say); a cell left holding
        a chain that was never built would fail every later batch.  So a
        change that raises puts back the planner's RNG state, its cells,
        plans and handlers, and the chains, operators and RNG states of
        every existing cell at ``keys``, then re-raises: the plan runs on
        as if it never came.
        """
        state = self._rng.bit_generator.state
        cells = dict(self._cells)
        mementos = [(cells[key], cells[key].memento()) for key in keys if key in cells]
        plans = dict(self._plans)
        handlers = dict(self._result_handlers)
        batch_handlers = dict(self._batch_handlers)
        try:
            yield
        except BaseException:
            self._rng.bit_generator.state = state
            for topology, memento in mementos:
                topology.restore(memento)
            self._cells.clear()
            self._cells.update(cells)
            self._plans.clear()
            self._plans.update(plans)
            self._result_handlers.clear()
            self._result_handlers.update(handlers)
            self._batch_handlers.clear()
            self._batch_handlers.update(batch_handlers)
            raise

    def _rebuild_cells(self, keys: List[CellKey]) -> None:
        for key in keys:
            topology = self._cells.get(key)
            if topology is not None and not topology.is_empty:
                topology.rebuild(self._deliver)

    # ------------------------------------------------------------------
    # Batch processing helpers used by the fabricator
    # ------------------------------------------------------------------
    def attribute_cells(self) -> Dict[str, List[GridCell]]:
        """Which grid cells each attribute must be acquired from.

        The request/response handler uses this to know where to send
        acquisition requests: exactly the (attribute, cell) pairs with at
        least one overlapping query.  Pairs whose every overlapping query
        is paused are excluded — a paused query keeps its topology but
        stops demanding acquisition.
        """
        needed: Dict[str, List[GridCell]] = {}
        for key, topology in self._cells.items():
            cell = self._grid.cell(*key)
            for attribute in topology.attributes:
                if self._all_paused(topology.chain(attribute).query_ids):
                    continue
                needed.setdefault(attribute, []).append(cell)
        return needed

    def route_cell_batch(self, key: CellKey, items: List[SensorTuple]) -> int:
        """Inject one cell's batch of raw tuples into its topology."""
        topology = self._cells.get(key)
        if topology is None:
            return 0
        return topology.inject_many(items)

    def process_columnar(self, mapped: Dict, programs: Dict[str, object]) -> int:
        """Columnar process phase: run every materialised chain for one window.

        ``mapped`` is the map phase's (cell, time)-ordered rows and cell
        segments per attribute (:data:`~repro.core.fabricator.MappedAttribute`);
        ``programs`` the compiled plan's attribute programs (see
        :mod:`repro.plan`), each running all of its attribute's chains at
        once.  Chains without tuples this round still run (their Flatten
        operators report a full shortfall, as the object path's flush
        does); rows mapped to cells without a topology are dropped,
        mirroring :meth:`route_cell_batch` returning 0.  Returns the number
        of tuples routed to materialised cells, counting rows of attributes
        without a chain in the cell too — the object path injects those into
        the cell's entry stream as well, and that cross-attribute total is
        what every chain's router counts in.

        The programs hand back their deliveries and discards instead of
        emitting them; they are emitted here in the object path's order —
        cells in planner order, a cell's chains in attribute order — which
        is what orders the discard store and the per-query delivery
        accounting.  Each query's batch arrives as one delivery at the
        place of its first tap, so its result buffer gains one chunk per
        batch.  Before any program runs, every chain with rows, whatever
        its attribute, has its intensity chosen in one
        :func:`~repro.core.pmat.flatten.estimate_segments` call, which
        reads each chain's rows where they lie: the attribute batches
        ``mapped`` holds, at the offsets of their segment tables.
        """
        rows_per_cell: Dict[CellKey, int] = {}
        for _batch, segments in mapped.values():
            for key, start, stop in segments:
                rows_per_cell[key] = rows_per_cell.get(key, 0) + stop - start
        # Every chain with rows, all attributes in one estimate call over
        # the attribute batches as they lie; each program takes its own
        # chains' results.
        chains = {attribute: program.segments(mapped.get(attribute))
                  for attribute, program in programs.items()}
        batches, flattens, segments = [], [], []
        for attribute, each in chains.items():
            if each:
                batches.append(mapped[attribute][0])
                for flatten, start, stop in each:
                    flattens.append(flatten)
                    segments.append((len(batches) - 1, start, stop))
        estimates = iter(estimate_segments(flattens, batches, segments) if flattens else ())
        emissions = []
        for attribute, program in programs.items():
            chosen = list(islice(estimates, len(chains[attribute])))
            emissions.extend(
                program.run(mapped.get(attribute), chosen, self._deliver_batch, rows_per_cell)
            )
        emissions.sort(key=itemgetter(0, 1))  # (chain position, step in chain)
        for _chain, _step, emit, arguments in emissions:
            emit(*arguments)
        return sum(
            rows for key, rows in rows_per_cell.items() if key in self._cells
        )

    def open_window(self, t_start: float) -> None:
        """Open the batch window starting at ``t_start`` on every Flatten operator."""
        for topology in self._cells.values():
            for attribute in topology.attributes:
                topology.chain(attribute).flatten.open_window(t_start)

    def flush_all(self) -> None:
        """Flush every materialised cell topology (end of batch)."""
        for topology in self._cells.values():
            topology.flush()

    def violations(self) -> Dict[Tuple[str, CellKey], float]:
        """Last-batch ``N_v`` per (attribute, cell) pair.

        Pairs whose every query is paused are excluded: no acquisition was
        requested for them, so their Flatten shortfall is not a signal the
        budget tuner should react to.
        """
        report: Dict[Tuple[str, CellKey], float] = {}
        for key, topology in self._cells.items():
            for attribute, violation in topology.violations().items():
                if self._all_paused(topology.chain(attribute).query_ids):
                    continue
                report[(attribute, key)] = violation
        return report

    def check_invariants(self) -> None:
        """Check the structural invariants of every materialised topology."""
        for topology in self._cells.values():
            topology.check_invariants()

    # ------------------------------------------------------------------
    def stats(self) -> PlannerStats:
        """A snapshot of the planner's current state."""
        return PlannerStats(
            queries=len(self._plans),
            materialized_cells=len(self._cells),
            pmat_operators=sum(t.operator_count() for t in self._cells.values()),
            union_operators=len(self._plans),
            rebuilds=sum(t.rebuilds for t in self._cells.values()),
            insertions=self._insertions,
            deletions=self._deletions,
            updates=self._updates,
            paused_queries=len(self._paused),
            cells_touched_by_last_change=self._last_touched,
        )

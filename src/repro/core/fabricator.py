"""The crowdsensed stream fabricator (paper Section IV-B).

"This is the most important component responsible for performing the
operations required for answering acquisitional queries."  Given the raw
tuples the request/response handler collected for one batch window, the
fabricator runs the map / process / merge pipeline of Fig. 2:

* **map** — assign each tuple to the hashmap key (grid cell) it falls in;
  the handler already groups tuples by cell, and any stray tuples are
  re-mapped here via the grid.
* **process** — inject each cell's tuples into that cell's execution
  topology (PMAT operators) and flush, producing per-cell partial streams.
* **merge** — the per-query Union operators (owned by the planner) combine
  the partial streams into the final MCDS delivered to result buffers.

The fabricator also collects the rate violations every Flatten operator
reported for the batch, which the budget tuner consumes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

import numpy as np

from ..errors import PlanningError
from ..geometry import Grid
from ..streams import SensorTuple, TupleBatch
from .planner import QueryPlanner

CellKey = Tuple[int, int]


#: The map phase's output for one attribute: its rows sorted by (cell,
#: time), and ``(cell key, start, stop)`` for every occupied cell in row
#: order — cell ``key``'s rows are the batch's rows ``start:stop``.
MappedAttribute = Tuple[TupleBatch, List[Tuple[CellKey, int, int]]]


@dataclass
class BatchResult:
    """Outcome of fabricating one batch.

    Attributes
    ----------
    tuples_in:
        Raw tuples that entered the fabricator.
    tuples_routed:
        Tuples delivered to a materialised cell topology.
    tuples_delivered:
        Tuples delivered to query result streams (across all queries).
    delivered_per_query:
        Breakdown of delivered tuples per query id.
    violations:
        Percent rate violation per (attribute, cell) pair for this batch.
    """

    tuples_in: int = 0
    tuples_routed: int = 0
    tuples_delivered: int = 0
    delivered_per_query: Dict[int, int] = field(default_factory=dict)
    violations: Dict[Tuple[str, CellKey], float] = field(default_factory=dict)

    @property
    def sharing_factor(self) -> float:
        """Delivered tuples per routed tuple — >1 means data re-use across queries."""
        if self.tuples_routed == 0:
            return 0.0
        return self.tuples_delivered / self.tuples_routed


class StreamFabricator:
    """Runs the map/process/merge pipeline over acquired batches."""

    def __init__(self, planner: QueryPlanner, grid: Grid) -> None:
        self._planner = planner
        self._grid = grid
        self._delivered_per_query: Dict[int, int] = {}
        #: per-batch scratch populated while a batch is being processed
        self._current_delivered: Dict[int, int] = {}
        self._batches = 0

    # ------------------------------------------------------------------
    @property
    def planner(self) -> QueryPlanner:
        """The planner whose topologies this fabricator executes."""
        return self._planner

    @property
    def batches_processed(self) -> int:
        """Number of batches fabricated so far."""
        return self._batches

    def delivered_total(self, query_id: int) -> int:
        """Total tuples delivered to one query since the fabricator was created."""
        return self._delivered_per_query.get(query_id, 0)

    # ------------------------------------------------------------------
    def register_delivery(self, query_id: int) -> None:
        """Account one delivered tuple for a query (called by the engine's sink)."""
        self._delivered_per_query[query_id] = self._delivered_per_query.get(query_id, 0) + 1
        self._current_delivered[query_id] = self._current_delivered.get(query_id, 0) + 1

    def register_delivery_batch(self, query_id: int, count: int) -> None:
        """Account a whole delivered batch for a query in one call."""
        self._delivered_per_query[query_id] = (
            self._delivered_per_query.get(query_id, 0) + count
        )
        self._current_delivered[query_id] = (
            self._current_delivered.get(query_id, 0) + count
        )

    def map_tuples(
        self, tuples_by_cell: Dict[CellKey, List[SensorTuple]]
    ) -> Dict[CellKey, List[SensorTuple]]:
        """The map phase: make sure every tuple is keyed by the cell it lies in.

        The handler already groups tuples by the cell it targeted, but a
        mobile sensor may have moved across a cell boundary between request
        and response; such tuples are re-assigned to the cell containing
        their reported coordinates.
        """
        mapped: Dict[CellKey, List[SensorTuple]] = {}
        for key, items in tuples_by_cell.items():
            for item in items:
                cell = self._grid.locate(item.x, item.y)
                mapped.setdefault(cell.key, []).append(item)
        for items in mapped.values():
            items.sort(key=lambda item: item.t)
        return mapped

    def map_batches_fused(
        self, batch_per_attribute: Dict[str, TupleBatch]
    ) -> Dict[str, MappedAttribute]:
        """The columnar map phase: sort whole batches by grid cell.

        For each attribute the batch's coordinates go through one vectorised
        :meth:`Grid.cells_for_points` call; tuples are then ordered cell code
        major, time minor — ``np.lexsort((t, codes))``'s order, ties in input
        order — so every cell's rows form one contiguous, time-ordered
        segment: no per-tuple ``locate`` calls and no comparison sort of
        object lists.  The sort is one stable argsort of the codes (cheap:
        the handler delivers rows grouped by cell) and one stable argsort of
        each cell's times, which costs a cell's share of a whole-batch time
        sort.  Each attribute's columns are reordered *once*; the segment
        table says where each occupied cell's rows are.  The input is one
        batch per attribute either way the handler produced it: the strict
        path concatenates its per-cell rounds, the fast-sim path hands over
        the fused attribute-level round directly.
        """
        side = self._grid.side
        mapped: Dict[str, MappedAttribute] = {}
        for attribute, batch in batch_per_attribute.items():
            if batch.is_empty:
                continue
            q, r = self._grid.cells_for_points(batch.x, batch.y)
            codes = r * side + q
            by_cell = np.argsort(codes, kind="stable")
            sorted_codes = codes[by_cell]
            starts = np.concatenate(([0], np.nonzero(np.diff(sorted_codes))[0] + 1))
            stops = np.append(starts[1:], sorted_codes.shape[0])
            first = sorted_codes[starts]
            table = np.stack((first % side, first // side, starts, stops), axis=1)
            order = np.empty_like(by_cell)
            segments = []
            for cell_q, cell_r, start, stop in table.tolist():  # craqr: ignore[CRQ401] - per segment, never per row
                rows = by_cell[start:stop]
                order[start:stop] = rows[np.argsort(batch.t[rows], kind="stable")]
                segments.append(((cell_q, cell_r), start, stop))
            mapped[attribute] = (batch.select(order), segments)
        return mapped

    def process_batch_columnar(
        self,
        batch_per_attribute: Dict[str, TupleBatch],
        programs: Dict[str, object],
    ) -> BatchResult:
        """Columnar :meth:`process_batch`: map, process and merge whole batches.

        Identical accounting to the object path — tuples in, tuples routed
        to materialised cells, per-query deliveries and per-(attribute,
        cell) violations — but every stage moves :class:`TupleBatch`
        columns instead of per-tuple callbacks: the map phase sorts whole
        batches by cell and each attribute's chains run as its compiled
        program (``programs``, keyed by attribute; see :mod:`repro.plan`).
        """
        self._current_delivered = {}
        result = BatchResult()
        result.tuples_in = sum(len(b) for b in batch_per_attribute.values())
        mapped = self.map_batches_fused(batch_per_attribute)
        result.tuples_routed = self._planner.process_columnar(mapped, programs)
        result.violations = self._planner.violations()
        result.delivered_per_query = dict(self._current_delivered)
        result.tuples_delivered = sum(self._current_delivered.values())
        self._batches += 1
        return result

    def process_batch(
        self, tuples_by_cell: Dict[CellKey, List[SensorTuple]]
    ) -> BatchResult:
        """Fabricate one batch: map, process and merge.

        Returns a :class:`BatchResult` with routing, delivery and violation
        accounting for the batch.
        """
        self._current_delivered = {}
        result = BatchResult()
        mapped = self.map_tuples(tuples_by_cell)
        for items in mapped.values():
            result.tuples_in += len(items)
        for key, items in mapped.items():
            routed = self._planner.route_cell_batch(key, items)
            result.tuples_routed += routed
        # The flush triggers every Flatten operator's batch processing, which
        # pushes tuples down the chains and into the per-query merge stage.
        self._planner.flush_all()
        result.violations = self._planner.violations()
        result.delivered_per_query = dict(self._current_delivered)
        result.tuples_delivered = sum(self._current_delivered.values())
        self._batches += 1
        return result

"""Naive per-query acquisition: no sharing across queries.

Section III: "The naive strategy of processing each query from scratch
(i.e., individually), is not cost effective especially for the human-sensed
attributes.  This is because the data acquired for a particular attribute
will not be re-used across queries."

This baseline does exactly that: every registered query runs its own
acquisition round against the sensing world each batch — its own requests,
its own responses, its own flattening — even when another query wants the
same attribute from the same cells.  Request counts therefore scale linearly
with the number of queries, which is the comparison the multi-query sharing
benchmark draws.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..config import EngineConfig
from ..core.pmat.flatten import FlattenOperator, estimate_segments
from ..core.query import AcquisitionalQuery
from ..errors import QueryError
from ..geometry import Grid
from ..pointprocess import EventBatch, flatten_events
from ..sensing import RequestResponseHandler, SensingWorld
from ..streams import SensorTuple

CellKey = Tuple[int, int]


@dataclass
class NaiveQueryResult:
    """Accumulated results and cost for one query under the naive strategy."""

    query: AcquisitionalQuery
    delivered: List[SensorTuple] = field(default_factory=list)
    requests_sent: int = 0
    responses_received: int = 0
    per_batch_counts: List[int] = field(default_factory=list)

    def achieved_rate(self, batch_duration: float) -> float:
        """Achieved rate over all completed batches."""
        if not self.per_batch_counts:
            return 0.0
        duration = batch_duration * len(self.per_batch_counts)
        return len(self.delivered) / (self.query.region.area * duration)


class NaivePerQueryEngine:
    """Processes every acquisitional query independently, with no re-use."""

    def __init__(self, config: EngineConfig, world: SensingWorld) -> None:
        self._config = config
        self._world = world
        self._grid = Grid(world.region, config.grid_side)
        self._rng = np.random.default_rng(config.seed)
        self._results: Dict[int, NaiveQueryResult] = {}
        # One handler per query: completely separate acquisition pipelines.
        self._handlers: Dict[int, RequestResponseHandler] = {}
        self._batches = 0

    # ------------------------------------------------------------------
    @property
    def grid(self) -> Grid:
        """The logical grid (same geometry as the shared engine uses)."""
        return self._grid

    @property
    def batches_run(self) -> int:
        """Number of batches executed."""
        return self._batches

    def register_query(self, query: AcquisitionalQuery) -> NaiveQueryResult:
        """Register a query; returns its (mutable) result record."""
        if query.query_id in self._results:
            raise QueryError(f"query {query.label} is already registered")
        query.validate_against(self._grid.region, self._grid.cell_area)
        result = NaiveQueryResult(query=query)
        self._results[query.query_id] = result
        self._handlers[query.query_id] = RequestResponseHandler(
            self._world,
            self._grid,
            default_budget=self._config.budget.initial,
        )
        return result

    def results(self) -> List[NaiveQueryResult]:
        """Result records of every registered query."""
        return list(self._results.values())

    # ------------------------------------------------------------------
    def _flatten_to_rate(
        self,
        items: List[SensorTuple],
        query: AcquisitionalQuery,
        duration: float,
    ) -> List[SensorTuple]:
        """Per-query flattening of one batch of raw tuples to the query rate.

        The fit runs over the batch window, which starts at the world's
        clock (the world advances once every query's batch is flattened).
        """
        in_region = [
            item for item in items if query.region.contains(item.x, item.y, closed=True)
        ]
        if not in_region:
            return []
        batch = EventBatch.from_rows([(it.t, it.x, it.y) for it in in_region])
        t_start = self._world.now
        span = max(batch.time_span()[1] - t_start, duration)
        # The engine's estimator rule: a converged maximum-likelihood fit
        # over the batch window, else the batch's constant empirical rate.
        flatten = FlattenOperator(
            query.rate, region=query.region, batch_duration=duration, rng=self._rng
        )
        flatten.open_window(t_start)
        [(intensity, _estimator)] = estimate_segments([flatten], [batch], [(0, 0, len(batch))])
        target_expected = query.rate * query.region.area * span
        outcome = flatten_events(batch, intensity, target_expected, rng=self._rng)
        return [item for item, keep in zip(in_region, outcome.keep_mask) if keep]

    def run_batch(self) -> Dict[int, int]:
        """Run one batch for every query independently.

        Returns the number of tuples delivered to each query this batch.
        """
        duration = self._config.batch_duration
        delivered_counts: Dict[int, int] = {}
        for query_id, result in self._results.items():
            handler = self._handlers[query_id]
            cells = self._grid.overlapping_cells(result.query.region)
            tuples_by_cell, report = handler.acquire(
                {result.query.attribute: cells}, duration=duration
            )
            raw = [item for items in tuples_by_cell.values() for item in items]
            result.requests_sent += report.requests_sent
            result.responses_received += report.responses_received
            delivered = self._flatten_to_rate(raw, result.query, duration)
            result.delivered.extend(delivered)
            result.per_batch_counts.append(len(delivered))
            delivered_counts[query_id] = len(delivered)
        # A single advance per batch: all queries observe the same world window.
        self._world.advance(duration)
        self._batches += 1
        return delivered_counts

    def run(self, batches: int) -> None:
        """Run several consecutive batches."""
        if batches <= 0:
            raise QueryError("the number of batches must be positive")
        for _ in range(batches):
            self.run_batch()

    # ------------------------------------------------------------------
    def total_requests_sent(self) -> int:
        """Requests sent across all per-query handlers."""
        return sum(result.requests_sent for result in self._results.values())

    def total_responses_received(self) -> int:
        """Responses collected across all per-query handlers."""
        return sum(result.responses_received for result in self._results.values())

    def total_tuples_delivered(self) -> int:
        """Tuples delivered to queries across the run."""
        return sum(len(result.delivered) for result in self._results.values())

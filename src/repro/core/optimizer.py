"""Query optimisation (Section VI extension).

The paper lists query optimisation as future work: "We should define the
cost of processing a single query, and prepare an execution topology that
minimizes this cost.  Response time, power consumption, communication cost
due to operator placement are some of the aspects that we plan to consider."

This module provides a concrete, working version of that plan:

* :class:`TopologyCostModel` — prices an execution plan by its three cost
  drivers: communication (acquisition requests sent to mobile sensors),
  server-side processing (tuples crossing PMAT operators), and response
  latency (batches needed before the query's rate stabilises).
* :func:`estimate_query_cost` — the per-query cost of the plan the planner
  would build, computed from the query's geometry and the handler budgets,
  without running the system.
* :class:`GridGranularityAdvisor` — chooses the grid parameter ``h``
  (ablation A2, ``benchmarks/bench_grid_granularity.py``): finer grids
  track query boundaries more accurately (less over-acquisition for
  partially overlapping queries) but materialise more per-cell chains and
  send more per-cell requests.
  The advisor evaluates candidate grid sides against a query workload and
  recommends the cheapest one that keeps the expected over-acquisition
  below a tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..errors import PlanningError
from ..geometry import Grid, Rectangle
from .query import AcquisitionalQuery
from .topology import DEFAULT_HEADROOM


@dataclass(frozen=True)
class TopologyCostModel:
    """Unit prices for the cost drivers of an execution plan.

    Attributes
    ----------
    cost_per_request:
        Communication/energy price of one acquisition request sent to a
        mobile sensor (the dominant cost for human-sensed attributes).
    cost_per_operator_tuple:
        Server-side price of pushing one tuple through one PMAT operator.
    cost_per_cell_chain:
        Fixed price of materialising one per-cell attribute chain
        (memory + bookkeeping).
    """

    cost_per_request: float = 1.0
    cost_per_operator_tuple: float = 0.001
    cost_per_cell_chain: float = 0.5

    def __post_init__(self) -> None:
        if min(self.cost_per_request, self.cost_per_operator_tuple, self.cost_per_cell_chain) < 0:
            raise PlanningError("cost-model prices cannot be negative")


@dataclass(frozen=True)
class QueryCostEstimate:
    """Predicted per-batch cost of serving one query.

    Attributes
    ----------
    query_id:
        The query the estimate belongs to.
    cells:
        Number of grid cells the query overlaps.
    requests_per_batch:
        Acquisition requests needed per batch to feed the query's cells.
    over_acquisition:
        Expected fraction of acquired tuples that fall outside the query
        region (they are acquired because budgets are per cell, then dropped
        by the Partition operator).  0 for cell-aligned queries.
    operator_tuples_per_batch:
        Tuples crossing PMAT operators per batch for this query.
    total:
        Monetised per-batch cost under the cost model.
    """

    query_id: int
    cells: int
    requests_per_batch: float
    over_acquisition: float
    operator_tuples_per_batch: float
    total: float


def _expected_requests_for_rate(
    rate: float,
    cell_area: float,
    batch_duration: float,
    response_probability: float,
    headroom: float,
) -> float:
    """Requests needed per cell so expected responses cover the Flatten target."""
    needed_tuples = headroom * rate * cell_area * batch_duration
    return needed_tuples / max(response_probability, 1e-9)


def estimate_query_cost(
    query: AcquisitionalQuery,
    grid: Grid,
    *,
    cost_model: Optional[TopologyCostModel] = None,
    response_probability: float = 0.6,
    batch_duration: float = 1.0,
    headroom: float = DEFAULT_HEADROOM,
    chain_depth: int = 3,
) -> QueryCostEstimate:
    """Predict the per-batch cost of serving ``query`` on ``grid``.

    The estimate assumes the budget tuner has converged to the minimal
    sufficient budget for the query's rate (the steady state of Section V's
    feedback loop), so it reflects the long-run cost, not the warm-up.
    """
    cost_model = cost_model or TopologyCostModel()
    if not 0 < response_probability <= 1:
        raise PlanningError("response_probability must be in (0, 1]")
    if batch_duration <= 0:
        raise PlanningError("batch_duration must be positive")
    if chain_depth <= 0:
        raise PlanningError("chain_depth must be positive")

    overlapping = grid.overlapping_cells(query.region)
    if not overlapping:
        raise PlanningError("the query does not overlap any grid cell")

    requests = 0.0
    acquired_tuples = 0.0
    useful_tuples = 0.0
    for cell in overlapping:
        per_cell_requests = _expected_requests_for_rate(
            query.rate, cell.area, batch_duration, response_probability, headroom
        )
        requests += per_cell_requests
        cell_tuples = per_cell_requests * response_probability
        acquired_tuples += cell_tuples
        useful_tuples += cell_tuples * grid.overlap_fraction(query.region, cell)

    over_acquisition = 0.0
    if acquired_tuples > 0:
        over_acquisition = max(0.0, 1.0 - useful_tuples / acquired_tuples)
    operator_tuples = acquired_tuples * chain_depth
    total = (
        requests * cost_model.cost_per_request
        + operator_tuples * cost_model.cost_per_operator_tuple
        + len(overlapping) * cost_model.cost_per_cell_chain
    )
    return QueryCostEstimate(
        query_id=query.query_id,
        cells=len(overlapping),
        requests_per_batch=requests,
        over_acquisition=over_acquisition,
        operator_tuples_per_batch=operator_tuples,
        total=total,
    )


@dataclass
class GranularityRecommendation:
    """Outcome of a grid-granularity search."""

    side: int
    grid_cells: int
    total_cost: float
    mean_over_acquisition: float
    per_side_costs: Dict[int, float] = field(default_factory=dict)
    per_side_over_acquisition: Dict[int, float] = field(default_factory=dict)


class GridGranularityAdvisor:
    """Chooses the grid side (``sqrt(h)``) for a query workload.

    Parameters
    ----------
    region:
        The deployment region ``R``.
    cost_model:
        Prices used to compare candidate grids.
    response_probability, batch_duration, headroom:
        Steady-state assumptions forwarded to :func:`estimate_query_cost`.
    """

    def __init__(
        self,
        region: Rectangle,
        *,
        cost_model: Optional[TopologyCostModel] = None,
        response_probability: float = 0.6,
        batch_duration: float = 1.0,
        headroom: float = DEFAULT_HEADROOM,
    ) -> None:
        self._region = region
        self._cost_model = cost_model or TopologyCostModel()
        self._response_probability = response_probability
        self._batch_duration = batch_duration
        self._headroom = headroom

    def evaluate(
        self, queries: Sequence[AcquisitionalQuery], side: int
    ) -> Tuple[float, float]:
        """Total per-batch cost and mean over-acquisition for one grid side."""
        if side <= 0:
            raise PlanningError("the grid side must be positive")
        grid = Grid(self._region, side)
        total = 0.0
        over = []
        for query in queries:
            estimate = estimate_query_cost(
                query,
                grid,
                cost_model=self._cost_model,
                response_probability=self._response_probability,
                batch_duration=self._batch_duration,
                headroom=self._headroom,
            )
            total += estimate.total
            over.append(estimate.over_acquisition)
        mean_over = sum(over) / len(over) if over else 0.0
        return total, mean_over

    def recommend(
        self,
        queries: Sequence[AcquisitionalQuery],
        *,
        candidate_sides: Sequence[int] = (2, 3, 4, 6, 8),
        max_over_acquisition: float = 0.25,
    ) -> GranularityRecommendation:
        """Pick the cheapest candidate grid keeping over-acquisition acceptable.

        When no candidate meets the over-acquisition tolerance the finest
        candidate (which minimises over-acquisition) is returned.
        """
        if not queries:
            raise PlanningError("granularity advice needs at least one query")
        if not candidate_sides:
            raise PlanningError("at least one candidate grid side is required")
        per_side_costs: Dict[int, float] = {}
        per_side_over: Dict[int, float] = {}
        for side in candidate_sides:
            cost, over = self.evaluate(queries, side)
            per_side_costs[side] = cost
            per_side_over[side] = over
        acceptable = [
            side for side in candidate_sides if per_side_over[side] <= max_over_acquisition
        ]
        if acceptable:
            best = min(acceptable, key=lambda side: per_side_costs[side])
        else:
            best = min(candidate_sides, key=lambda side: per_side_over[side])
        return GranularityRecommendation(
            side=best,
            grid_cells=best * best,
            total_cost=per_side_costs[best],
            mean_over_acquisition=per_side_over[best],
            per_side_costs=per_side_costs,
            per_side_over_acquisition=per_side_over,
        )

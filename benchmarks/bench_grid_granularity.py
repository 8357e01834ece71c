"""A2 (ablation, Section IV): the grid-granularity trade-off.

The grid parameter ``h`` "controls the granularity at which queries can be
processed".  A coarse grid materialises few per-cell chains and keeps the
per-cell minimum budgets low, but queries that do not align with cell
boundaries force the handler to acquire whole cells and the Partition
operator to throw part of that data away (geometric over-acquisition).  A
fine grid tracks query boundaries closely at the price of more chains, more
per-cell bookkeeping and a larger total budget floor.

The sweep evaluates a workload of non-aligned queries on grids of side 2..8
with the cost model of ``repro.core.optimizer`` and reports the advisor's
recommendation; a live engine run on the recommended grid confirms the
workload is served at its requested rates there.  The benchmark times one
full advisor recommendation.
"""

import pytest

from repro import CraqrEngine
from repro.core import AcquisitionalQuery, GridGranularityAdvisor
from repro.geometry import Grid, Rectangle
from repro.metrics import ResultTable
from repro.workloads import build_rain_temperature_world, default_engine_config

REGION = Rectangle(0, 0, 4, 4)
CANDIDATE_SIDES = [2, 3, 4, 6, 8]
RESPONSE_PROBABILITY = 0.6

#: Queries deliberately not aligned with any candidate grid, but each large
#: enough (area > 4 km^2) to satisfy the minimum-area rule even on the
#: coarsest 2x2 grid, so the same workload is admissible everywhere.
WORKLOAD = [
    ("rain", Rectangle(0.3, 0.3, 2.4, 2.4), 12.0),
    ("rain", Rectangle(1.6, 1.7, 3.8, 3.9), 10.0),
    ("temp", Rectangle(0.2, 1.5, 2.3, 3.7), 8.0),
    ("temp", Rectangle(1.4, 0.2, 3.7, 2.2), 8.0),
]


def make_queries():
    return [AcquisitionalQuery(attr, rect, rate) for attr, rect, rate in WORKLOAD]


def test_grid_granularity(benchmark, record_table):
    queries = make_queries()
    advisor = GridGranularityAdvisor(REGION, response_probability=RESPONSE_PROBABILITY)

    table = ResultTable(
        "A2 - grid granularity: predicted per-batch cost and over-acquisition",
        ["grid side", "cells h", "predicted cost", "mean over-acquisition", "chains materialised"],
    )
    predictions = {}
    for side in CANDIDATE_SIDES:
        cost, over = advisor.evaluate(queries, side)
        grid = Grid(REGION, side)
        chains = sum(len(grid.overlapping_cells(q.region)) for q in queries)
        predictions[side] = (cost, over, chains)
        table.add_row(side, side * side, round(cost, 1), round(over, 3), chains)
    recommendation = advisor.recommend(
        queries, candidate_sides=CANDIDATE_SIDES, max_over_acquisition=0.4
    )
    table.add_row(
        f"-> recommended: {recommendation.side}",
        recommendation.grid_cells,
        round(recommendation.total_cost, 1),
        round(recommendation.mean_over_acquisition, 3),
        "-",
    )
    record_table("A2_grid_granularity_prediction", table)

    # Live check: the recommended grid serves the workload at its rates.
    world = build_rain_temperature_world(
        sensor_count=320, seed=1307, response_probability=RESPONSE_PROBABILITY
    )
    config = default_engine_config(grid_cells=recommendation.grid_cells, seed=1309)
    engine = CraqrEngine(config, world)
    handles = [engine.register_query(query) for query in make_queries()]
    engine.run(10)
    live = ResultTable(
        f"A2 - live run on the recommended {recommendation.side}x{recommendation.side} grid",
        ["query", "requested rate", "achieved rate (last 5)"],
    )
    for handle in handles:
        estimate = handle.achieved_rate(last_batches=5)
        live.add_row(handle.query.label, round(estimate.requested_rate, 1), round(estimate.achieved_rate, 1))
        assert estimate.relative_error < 0.4
    record_table("A2_grid_granularity_live", live)

    # Shape checks on the predictions:
    # (1) geometric over-acquisition shrinks as the grid refines, and the
    #     number of materialised chains grows;
    overs = [predictions[side][1] for side in CANDIDATE_SIDES]
    chains = [predictions[side][2] for side in CANDIDATE_SIDES]
    assert overs[0] > overs[-1]
    assert chains[-1] > chains[0]
    # (2) the advisor's pick satisfies its tolerance and is one of the
    #     candidates with acceptable waste.
    assert recommendation.mean_over_acquisition <= 0.4
    assert recommendation.side in CANDIDATE_SIDES

    benchmark(advisor.recommend, queries, candidate_sides=CANDIDATE_SIDES)

"""E1 (Fig. 1): the CrAQR architecture end to end.

Reproduces the paper's architecture figure as an executable scenario: mobile
sensors -> request/response handler -> crowdsensed stream fabricator ->
acquired crowdsensed streams, driven by query input.  The table reports, for
each pipeline stage, the volume flowing through it, which is the figure's
data-flow story in numbers.  The benchmark measures the cost of one full
acquisition batch through the whole architecture.

The paper's "if necessary, the discarded tuples can be stored separately" is
checked on a second, untimed run with ``store_discarded=True``: every
Flatten operator either keeps each tuple it is given or stores it in the
engine's discard store.
"""

from dataclasses import replace

import pytest

from repro import AcquisitionalQuery, CraqrEngine
from repro.geometry import Rectangle
from repro.metrics import ResultTable
from repro.workloads import build_rain_temperature_world, default_engine_config

BATCHES = 12


def build_engine(**config):
    world = build_rain_temperature_world(sensor_count=250, seed=101)
    engine = CraqrEngine(replace(default_engine_config(seed=103), **config), world)
    engine.register_query(
        AcquisitionalQuery("rain", Rectangle(0, 0, 2, 2), 10.0, name="rain-Q")
    )
    engine.register_query(
        AcquisitionalQuery("temp", Rectangle(1, 1, 3, 3), 6.0, name="temp-Q")
    )
    return engine


def run_architecture(engine, batches=BATCHES):
    for _ in range(batches):
        engine.run_batch()
    return engine


def test_fig1_architecture_flow(benchmark, record_table):
    engine = build_engine()
    run_architecture(engine)

    # Benchmark one additional batch through the full pipeline.
    benchmark(engine.run_batch)

    handles = engine.query_handles()
    table = ResultTable(
        "E1 / Fig.1 - data flow through the CrAQR architecture",
        ["stage", "quantity", "value"],
    )
    table.add_row("mobile sensors", "sensors in region R", engine.world.config.sensor_count)
    table.add_row("query input", "registered acquisitional queries", len(handles))
    table.add_row("request/response handler", "acquisition requests sent", engine.total_requests_sent())
    table.add_row("request/response handler", "responses (raw tuples) collected", engine.total_tuples_acquired())
    table.add_row("stream fabricator", "materialised grid-cell topologies", engine.planner_stats().materialized_cells)
    table.add_row("stream fabricator", "PMAT operators", engine.planner_stats().pmat_operators)
    table.add_row("acquired streams", "tuples delivered to queries", engine.total_tuples_delivered())
    for handle in handles:
        estimate = handle.achieved_rate(last_batches=6)
        table.add_row(
            "acquired streams",
            f"{handle.query.label} achieved vs requested rate",
            f"{estimate.achieved_rate:.2f} / {estimate.requested_rate:.2f}",
        )

    # The same run with the discard store on: per Flatten, kept + stored
    # equals what it was given.
    recorded = run_architecture(build_engine(store_discarded=True))
    stored = recorded.discarded_store.counts()
    flattens = [
        topology.chain(attribute).flatten
        for topology in map(recorded.planner.cell_topology, recorded.planner.materialized_cells)
        for attribute in topology.attributes
    ]
    given = kept = 0
    for flatten in flattens:
        reports = flatten.reports
        assert len(reports) == BATCHES
        flatten_given = sum(report.batch_size for report in reports)
        flatten_kept = sum(report.retained for report in reports)
        assert flatten_kept + stored.get(flatten.name, 0) == flatten_given, flatten.name
        given += flatten_given
        kept += flatten_kept
    assert set(stored) <= {flatten.name for flatten in flattens}
    assert sum(stored.values()) > 0
    table.add_row("stream fabricator", "tuples given to Flatten operators", given)
    table.add_row("stream fabricator", "tuples Flatten kept", kept)
    table.add_row("discarded store", "tuples Flatten stored as discarded", sum(stored.values()))
    record_table("E1_fig1_architecture", table)

    # Shape checks: the pipeline narrows monotonically (requests >= responses
    # >= deliveries) and each query gets within 35% of its requested rate.
    assert engine.total_requests_sent() >= engine.total_tuples_acquired()
    assert engine.total_tuples_acquired() >= engine.total_tuples_delivered() > 0
    for handle in handles:
        estimate = handle.achieved_rate(last_batches=6)
        assert estimate.relative_error < 0.35

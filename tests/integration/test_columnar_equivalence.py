"""Seeded end-to-end equivalence of the columnar and object engine paths.

Under the strict RNG contract (these worlds) the columnar fast path
(``EngineConfig.columnar=True``) must be a pure performance switch: for
any seed, both paths send the same requests, draw the same sensor
responses, retain the same tuples through every PMAT chain — MLE or
online-SGD intensity — and deliver byte-identical tuple sets to every
query.
"""

import numpy as np
import pytest

from repro.config import BudgetConfig, EngineConfig
from repro.core.engine import CraqrEngine
from repro.core.query import AcquisitionalQuery
from repro.geometry import Rectangle, RectRegion
from repro.sensing import (
    AlwaysRespond,
    BernoulliParticipation,
    FlatIncentive,
    RainField,
    SensingWorld,
    TemperatureField,
    WorldConfig,
)

REGION = Rectangle(0.0, 0.0, 4.0, 4.0)


def make_world(seed=42, participation=None):
    world = SensingWorld(
        WorldConfig(region=REGION, sensor_count=150, seed=seed),
        participation_factory=participation,
    )
    world.register_field(RainField(REGION, band_width=1.2, period=40.0))
    world.register_field(TemperatureField(REGION, heat_islands=[(1.0, 1.0, 3.0, 0.5)]))
    return world


def run_engine(
    columnar, *, batches=4, participation=None, incentive=None, online=False
):
    config = EngineConfig(
        grid_cells=16,
        seed=7,
        budget=BudgetConfig(initial=30, delta=5, limit=300),
        columnar=columnar,
        online_estimation=online,
    )
    engine = CraqrEngine(config, make_world(participation=participation), incentive=incentive)
    handles = [
        engine.register_query(
            AcquisitionalQuery("rain", RectRegion.from_bounds(0.0, 0.0, 2.0, 2.0), rate=25.0)
        ),
        engine.register_query(
            # Partial cell overlaps force Partition taps into the chains.
            AcquisitionalQuery("temp", RectRegion.from_bounds(0.5, 0.5, 3.5, 2.5), rate=15.0)
        ),
        engine.register_query(
            AcquisitionalQuery("rain", RectRegion.from_bounds(1.0, 1.0, 3.0, 3.0), rate=10.0)
        ),
    ]
    reports = engine.run(batches)
    return engine, handles, reports


def sorted_results(handle):
    return sorted(handle.results(), key=lambda item: item.tuple_id)


def assert_engines_equivalent(columnar_run, object_run):
    engine_col, handles_col, reports_col = columnar_run
    engine_obj, handles_obj, reports_obj = object_run
    for handle_col, handle_obj in zip(handles_col, handles_obj):
        assert sorted_results(handle_col) == sorted_results(handle_obj)
    assert engine_col.total_requests_sent() == engine_obj.total_requests_sent()
    assert engine_col.total_tuples_acquired() == engine_obj.total_tuples_acquired()
    assert engine_col.total_tuples_delivered() == engine_obj.total_tuples_delivered()
    for report_col, report_obj in zip(reports_col, reports_obj):
        assert report_col.handler.requests_sent == report_obj.handler.requests_sent
        assert report_col.handler.responses_received == report_obj.handler.responses_received
        assert report_col.handler.per_cell_requests == report_obj.handler.per_cell_requests
        assert report_col.handler.per_cell_responses == report_obj.handler.per_cell_responses
        assert report_col.fabrication.tuples_in == report_obj.fabrication.tuples_in
        assert report_col.fabrication.tuples_routed == report_obj.fabrication.tuples_routed
        assert report_col.fabrication.tuples_delivered == report_obj.fabrication.tuples_delivered
        assert report_col.fabrication.violations == report_obj.fabrication.violations
        assert [d.__dict__ for d in report_col.budget_decisions] == [
            d.__dict__ for d in report_obj.budget_decisions
        ]


class TestEngineEquivalence:
    @pytest.mark.parametrize("online", [False, True], ids=["mle", "online-sgd"])
    def test_columnar_and_object_paths_deliver_identical_tuples(self, online):
        assert_engines_equivalent(
            run_engine(True, online=online), run_engine(False, online=online)
        )

    @pytest.mark.parametrize("online", [False, True], ids=["mle", "online-sgd"])
    def test_equivalence_with_non_batch_safe_participation(self, online):
        # BernoulliParticipation draws randomness per decision, so the
        # columnar handler must fall back to per-request sensor calls —
        # and still match the object path exactly.
        participation = lambda sensor_id: BernoulliParticipation(0.6, mean_latency=0.05)
        assert_engines_equivalent(
            run_engine(True, participation=participation, online=online),
            run_engine(False, participation=participation, online=online),
        )

    def test_equivalence_with_incentives(self):
        col = run_engine(True, incentive=FlatIncentive(0.25))
        obj = run_engine(False, incentive=FlatIncentive(0.25))
        assert_engines_equivalent(col, obj)
        assert col[2][0].handler.incentive_spent == pytest.approx(
            obj[2][0].handler.incentive_spent
        )

    def test_columnar_delivery_is_batched(self):
        engine, handles, reports = run_engine(True, batches=2)
        # One deliver call per (query, cell, batch): totals still add up.
        delivered = sum(report.fabrication.tuples_delivered for report in reports)
        assert delivered == engine.total_tuples_delivered()
        assert delivered == sum(len(handle.results()) for handle in handles)

    def test_results_survive_query_deletion(self):
        engine, handles, _ = run_engine(True, batches=2)
        kept = handles[0].results()
        handles[0].delete()
        engine.run_batch()
        assert handles[0].results() == kept


class TestReportsView:
    def test_reports_is_live_o1_view(self):
        engine, _, _ = run_engine(True, batches=2)
        view = engine.reports
        assert len(view) == 2
        assert engine.reports is view  # no per-access copy
        engine.run_batch()
        assert len(view) == 3  # live view tracks new batches
        assert view[-1].batch_index == 2
        with pytest.raises(TypeError):
            view[0] = None  # read-only

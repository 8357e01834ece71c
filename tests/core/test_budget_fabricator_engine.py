"""Unit tests for budget tuning, the stream fabricator and the CrAQR engine."""

import numpy as np
import pytest

from repro.baselines import OracleBudgetController
from repro.config import BudgetConfig, EngineConfig
from repro.core import AcquisitionalQuery, BudgetTuner, CraqrEngine, QueryPlanner, StreamFabricator
from repro.errors import BudgetError, PlanningError, QueryError
from repro.geometry import Grid, Rectangle, RectRegion
from repro.pointprocess import HomogeneousMDPP
from repro.sensing import (
    RainField,
    RequestResponseHandler,
    SensingWorld,
    TemperatureField,
    WorldConfig,
)
from repro.streams import SensorTuple
from tests.conftest import make_world

REGION = Rectangle(0, 0, 4, 4)
GRID = Grid(REGION, side=4)


def make_handler(seed=3, response_probability=1.0, default_budget=40):
    world = make_world(REGION, seed=seed, response_probability=response_probability)
    return RequestResponseHandler(world, GRID, default_budget=default_budget), world


class TestBudgetTuner:
    def make_tuner(self, **kwargs):
        handler, _ = make_handler()
        config = BudgetConfig(
            initial=kwargs.get("initial", 50),
            delta=kwargs.get("delta", 10),
            limit=kwargs.get("limit", 100),
            floor=kwargs.get("floor", 10),
            violation_threshold=kwargs.get("threshold", 5.0),
        )
        return BudgetTuner(handler, config), handler

    def test_initial_budget_installed_once(self):
        tuner, handler = self.make_tuner(initial=50)
        tuner.ensure_initial_budget("rain", (0, 0))
        assert handler.budget_for("rain", (0, 0)) == 50

    def test_violation_above_threshold_increases_budget(self):
        tuner, handler = self.make_tuner()
        decisions = tuner.tune({("rain", (0, 0)): 20.0})
        assert decisions[0].direction == 1
        assert handler.budget_for("rain", (0, 0)) == 60

    def test_violation_below_threshold_decreases_budget(self):
        tuner, handler = self.make_tuner()
        decisions = tuner.tune({("rain", (0, 0)): 0.0})
        assert decisions[0].direction == -1
        assert handler.budget_for("rain", (0, 0)) == 40

    def test_budget_respects_floor(self):
        tuner, handler = self.make_tuner(initial=15, delta=10, floor=10)
        tuner.tune({("rain", (0, 0)): 0.0})
        assert handler.budget_for("rain", (0, 0)) == 10
        tuner.tune({("rain", (0, 0)): 0.0})
        assert handler.budget_for("rain", (0, 0)) == 10

    def test_budget_saturates_at_limit(self):
        tuner, handler = self.make_tuner(initial=95, delta=10, limit=100)
        decisions = tuner.tune({("rain", (0, 0)): 50.0})
        assert handler.budget_for("rain", (0, 0)) == 100
        assert decisions[0].saturated
        assert ("rain", (0, 0)) in tuner.saturated_pairs

    def test_saturation_clears_when_violations_stop(self):
        tuner, _ = self.make_tuner(initial=95, delta=10, limit=100)
        tuner.tune({("rain", (0, 0)): 50.0})
        tuner.tune({("rain", (0, 0)): 0.0})
        assert tuner.saturated_pairs == []

    def test_negative_violation_rejected(self):
        tuner, _ = self.make_tuner()
        with pytest.raises(BudgetError):
            tuner.tune({("rain", (0, 0)): -1.0})

    def test_history_accumulates(self):
        tuner, _ = self.make_tuner()
        tuner.tune({("rain", (0, 0)): 10.0})
        tuner.tune({("rain", (0, 0)): 0.0})
        assert len(tuner.history) == 2

    def test_feedback_loop_converges_towards_sufficient_budget(self):
        # A toy closed loop: violations occur whenever the budget is below
        # the (hidden) required budget of 80; the tuner should climb to >= 80
        # and then hover around it.
        tuner, handler = self.make_tuner(initial=20, delta=10, limit=200)
        required = 80
        for _ in range(20):
            budget = handler.budget_for("rain", (0, 0))
            violation = 50.0 if budget < required else 0.0
            tuner.tune({("rain", (0, 0)): violation})
        assert handler.budget_for("rain", (0, 0)) >= required - 10


class TestOracleBudgetController:
    def test_required_budget_accounts_for_response_probability(self):
        handler, world = make_handler(response_probability=1.0)
        oracle = OracleBudgetController(world, handler, response_probability=0.5, headroom=1.0)
        cell = GRID.cell(0, 0)
        assert oracle.required_budget(10.0, cell, 1.0) == 20

    def test_apply_sets_handler_budget(self):
        handler, world = make_handler()
        oracle = OracleBudgetController(world, handler, response_probability=0.8)
        cell = GRID.cell(1, 1)
        budget = oracle.apply("rain", cell, 16.0, 1.0)
        assert handler.budget_for("rain", cell.key) == budget

    def test_max_budget_cap(self):
        handler, world = make_handler()
        oracle = OracleBudgetController(
            world, handler, response_probability=0.1, max_budget=50
        )
        assert oracle.required_budget(100.0, GRID.cell(0, 0), 1.0) == 50

    def test_validation(self):
        handler, world = make_handler()
        with pytest.raises(BudgetError):
            OracleBudgetController(world, handler, response_probability=0.0)
        oracle = OracleBudgetController(world, handler, response_probability=0.5)
        with pytest.raises(BudgetError):
            oracle.required_budget(0.0, GRID.cell(0, 0), 1.0)


class TestStreamFabricator:
    def make_setup(self, rate=25.0, seed=0):
        planner = QueryPlanner(GRID, rng=np.random.default_rng(seed))
        fabricator = StreamFabricator(planner, GRID)
        delivered = {}

        def deliver(query_id, item):
            delivered.setdefault(query_id, []).append(item)
            fabricator.register_delivery_batch(query_id, 1)

        query = AcquisitionalQuery("rain", Rectangle(0, 0, 2, 2), rate)
        planner.insert_query(query, on_result=deliver)
        return planner, fabricator, query, delivered

    def raw_tuples(self, rate=300.0, seed=1):
        tuples_by_cell = {}
        for key in [(0, 0), (1, 0), (0, 1), (1, 1)]:
            cell = GRID.cell(*key)
            batch = HomogeneousMDPP(rate, cell.rect).sample(
                1.0, rng=np.random.default_rng(seed + key[0] * 10 + key[1])
            )
            tuples_by_cell[key] = [
                SensorTuple(tuple_id=i, attribute="rain", t=float(t), x=float(x), y=float(y))
                for i, (t, x, y) in enumerate(zip(batch.t, batch.x, batch.y))
            ]
        return tuples_by_cell

    def test_map_phase_reassigns_moved_tuples(self):
        planner, fabricator, _, _ = self.make_setup()
        # A tuple reported under cell (0,0) but whose coordinates are in (1,1).
        stray = SensorTuple(tuple_id=1, attribute="rain", t=0.1, x=1.5, y=1.5)
        mapped = fabricator.map_tuples({(0, 0): [stray]})
        assert (1, 1) in mapped
        assert mapped[(1, 1)] == [stray]

    def test_process_batch_delivers_and_reports(self):
        planner, fabricator, query, delivered = self.make_setup(rate=30.0)
        result = fabricator.process_batch(self.raw_tuples())
        assert result.tuples_in > 0
        assert result.tuples_routed > 0
        assert result.tuples_delivered == len(delivered[query.query_id])
        assert result.delivered_per_query[query.query_id] == result.tuples_delivered
        assert ("rain", (0, 0)) in result.violations

    def test_two_queries_share_one_routed_batch(self):
        planner = QueryPlanner(GRID, rng=np.random.default_rng(5))
        fabricator = StreamFabricator(planner, GRID)

        def deliver(query_id, item):
            fabricator.register_delivery_batch(query_id, 1)

        for rate in (30.0, 15.0):
            planner.insert_query(
                AcquisitionalQuery("rain", Rectangle(0, 0, 2, 2), rate), on_result=deliver
            )
        result = fabricator.process_batch(self.raw_tuples(seed=6))
        # Two queries re-use the same routed tuples: both are delivered to
        # from one acquisition.
        assert result.tuples_delivered > 0
        assert len(result.delivered_per_query) == 2
        assert sum(result.delivered_per_query.values()) == result.tuples_delivered


class TestCraqrEngine:
    def make_engine(self, response_probability=1.0, seed=2, **config_kwargs):
        world = make_world(REGION, seed=seed, response_probability=response_probability)
        config = EngineConfig(
            grid_cells=16,
            batch_duration=1.0,
            budget=BudgetConfig(initial=60, delta=10, limit=400, violation_threshold=5.0),
            seed=seed,
            **config_kwargs,
        )
        return CraqrEngine(config, world)

    def test_register_and_run_delivers_rate(self):
        engine = self.make_engine()
        handle = engine.register_query(
            AcquisitionalQuery("temp", Rectangle(0, 0, 2, 2), 10.0)
        )
        engine.run(8)
        estimate = handle.achieved_rate()
        assert estimate.achieved_rate == pytest.approx(10.0, rel=0.35)
        assert engine.batches_run == 8
        assert len(engine.reports) == 8

    def test_duplicate_registration_rejected(self):
        engine = self.make_engine()
        query = AcquisitionalQuery("temp", Rectangle(0, 0, 1, 1), 5.0)
        engine.register_query(query)
        with pytest.raises(QueryError):
            engine.register_query(query)

    def test_run_requires_positive_batches(self):
        engine = self.make_engine()
        with pytest.raises(QueryError):
            engine.run(0)

    def test_delete_query_stops_future_deliveries(self):
        engine = self.make_engine()
        handle = engine.register_query(
            AcquisitionalQuery("temp", Rectangle(0, 0, 1, 1), 8.0)
        )
        engine.run(3)
        delivered_before = handle.buffer.total_tuples
        handle.delete()
        assert not handle.is_active()
        engine.register_query(AcquisitionalQuery("temp", Rectangle(1, 1, 2, 2), 8.0))
        engine.run(3)
        assert handle.buffer.total_tuples == delivered_before

    def test_delete_unknown_query_raises(self):
        engine = self.make_engine()
        with pytest.raises(PlanningError):
            engine.delete_query(999999)

    def test_reports_contain_budget_decisions(self):
        engine = self.make_engine(response_probability=0.4)
        engine.register_query(AcquisitionalQuery("rain", Rectangle(0, 0, 2, 2), 30.0))
        report = engine.run_batch()
        assert report.handler.requests_sent > 0
        assert isinstance(report.budget_decisions, list)
        assert 0 < report.handler.responses_received <= report.handler.requests_sent

    def test_budget_increases_under_persistent_violations(self):
        engine = self.make_engine(response_probability=0.3)
        engine.register_query(AcquisitionalQuery("rain", Rectangle(0, 0, 1, 1), 50.0))
        initial_budget = engine.handler.budget_for("rain", (0, 0))
        engine.run(6)
        assert engine.handler.budget_for("rain", (0, 0)) > initial_budget

    def test_world_clock_advances_with_batches(self):
        engine = self.make_engine()
        engine.register_query(AcquisitionalQuery("temp", Rectangle(0, 0, 1, 1), 5.0))
        engine.run(4)
        assert engine.world.now == pytest.approx(4.0)

    def test_totals_are_consistent(self):
        engine = self.make_engine()
        handle = engine.register_query(
            AcquisitionalQuery("temp", Rectangle(0, 0, 2, 2), 12.0)
        )
        engine.run(5)
        assert engine.total_tuples_delivered() == handle.buffer.total_tuples
        assert engine.total_requests_sent() >= engine.total_tuples_acquired()

    def test_queries_only_receive_their_attribute(self):
        engine = self.make_engine()
        rain = engine.register_query(AcquisitionalQuery("rain", Rectangle(0, 0, 2, 2), 10.0))
        temp = engine.register_query(AcquisitionalQuery("temp", Rectangle(0, 0, 2, 2), 10.0))
        engine.run(4)
        assert all(item.attribute == "rain" for item in rain.results())
        assert all(item.attribute == "temp" for item in temp.results())

    def test_results_lie_inside_query_region(self):
        engine = self.make_engine()
        region = Rectangle(1, 1, 3, 3)
        handle = engine.register_query(AcquisitionalQuery("temp", region, 10.0))
        engine.run(4)
        for item in handle.results():
            assert region.contains(item.x, item.y, closed=True)

    def test_discarded_store_populated_when_enabled(self):
        engine = self.make_engine(store_discarded=True)
        engine.register_query(AcquisitionalQuery("temp", Rectangle(0, 0, 2, 2), 5.0))
        engine.run(4)
        store = engine.discarded_store
        assert store is not None
        # The Flatten operators drop the surplus above the (low) target rate
        # and those tuples land in the separate store, keyed by operator name.
        counts = store.counts()
        assert sum(counts.values()) > 0
        assert all(name.startswith("F:temp") for name in counts)

    def test_every_flatten_keeps_or_stores_each_tuple(self):
        engine = self.make_engine(store_discarded=True)
        engine.register_query(AcquisitionalQuery("temp", Rectangle(0, 0, 2, 2), 5.0))
        engine.register_query(AcquisitionalQuery("rain", Rectangle(1, 1, 3, 3), 4.0))
        engine.run(4)
        stored = engine.discarded_store.counts()
        flattens = [
            topology.chain(attribute).flatten
            for topology in map(engine.planner.cell_topology, engine.planner.materialized_cells)
            for attribute in topology.attributes
        ]
        assert set(stored) <= {flatten.name for flatten in flattens}
        for flatten in flattens:
            given = sum(report.batch_size for report in flatten.reports)
            kept = sum(report.retained for report in flatten.reports)
            assert kept + stored.get(flatten.name, 0) == given

    def test_a_query_is_accepted_once_the_world_senses_its_attribute(self):
        world = SensingWorld(WorldConfig(region=REGION, sensor_count=120, seed=7))
        world.register_field(RainField(REGION))
        engine = CraqrEngine(EngineConfig(grid_cells=16, seed=3), world)
        query = AcquisitionalQuery("temp", Rectangle(0, 0, 2, 2), 5.0)
        with pytest.raises(QueryError, match=r"senses no attribute 'temp'; it senses \['rain'\]"):
            engine.register_query(query)
        assert engine.planner.materialized_cells == []
        world.register_field(TemperatureField(REGION))
        handle = engine.register_query(query)
        engine.run(2)
        assert handle.buffer.total_tuples > 0

    def test_no_discarded_store_by_default(self):
        engine = self.make_engine()
        assert engine.discarded_store is None

    def test_planner_stats_accessible(self):
        engine = self.make_engine()
        engine.register_query(AcquisitionalQuery("temp", Rectangle(0, 0, 2, 2), 10.0))
        stats = engine.planner_stats()
        assert stats.queries == 1
        assert stats.materialized_cells == 4

"""Additional engine, handler-incentive and online-estimation coverage."""

import numpy as np
import pytest

from repro.config import BudgetConfig, EngineConfig
from repro.core import AcquisitionalQuery, CraqrEngine
from repro.core.pmat import FlattenOperator
from repro.geometry import Grid, Rectangle
from repro.pointprocess import InhomogeneousMDPP, LinearIntensity
from repro.sensing import FlatIncentive, RequestResponseHandler
from repro.streams import CollectingSink, SensorTuple
from tests.conftest import make_world

REGION = Rectangle(0, 0, 4, 4)


def make_engine(seed=71, response_probability=1.0, **config_kwargs):
    world = make_world(REGION, seed=seed, response_probability=response_probability)
    config = EngineConfig(
        grid_cells=16,
        batch_duration=1.0,
        budget=BudgetConfig(initial=50, delta=10, limit=300, floor=20),
        seed=seed,
        **config_kwargs,
    )
    return CraqrEngine(config, world)


class TestEngineVariants:
    def test_online_estimation_mode_runs(self):
        engine = make_engine(online_estimation=True)
        handle = engine.register_query(
            AcquisitionalQuery("temp", Rectangle(0, 0, 2, 2), 8.0)
        )
        engine.run(6)
        assert handle.buffer.total_tuples > 0
        assert handle.achieved_rate(last_batches=3).achieved_rate == pytest.approx(8.0, rel=0.45)

    def test_rate_spec_hours_still_served(self):
        from repro.core import RateSpec

        engine = make_engine(seed=73)
        handle = engine.register_query(
            AcquisitionalQuery(
                "temp", Rectangle(0, 0, 2, 2), RateSpec(600.0, area_unit="km2", time_unit="hour")
            )
        )
        assert handle.query.rate == pytest.approx(10.0)
        engine.run(5)
        assert handle.achieved_rate(last_batches=3).achieved_rate == pytest.approx(10.0, rel=0.4)

    def test_two_engines_same_seed_agree(self):
        def run_once():
            engine = make_engine(seed=77)
            handle = engine.register_query(
                AcquisitionalQuery("temp", Rectangle(0, 0, 2, 2), 10.0)
            )
            engine.run(3)
            return handle.buffer.total_tuples

        assert run_once() == run_once()

    def test_queries_added_mid_run_get_served(self):
        engine = make_engine(seed=79)
        first = engine.register_query(AcquisitionalQuery("temp", Rectangle(0, 0, 2, 2), 8.0))
        engine.run(3)
        second = engine.register_query(AcquisitionalQuery("rain", Rectangle(2, 2, 4, 4), 6.0))
        engine.run(4)
        assert first.buffer.total_tuples > 0
        assert second.buffer.total_tuples > 0
        # The second query only has the batches after its registration.
        assert len(second.buffer.per_batch_counts) <= len(first.buffer.per_batch_counts)

    def test_planner_invariants_after_heavy_churn(self):
        engine = make_engine(seed=83)
        handles = [
            engine.register_query(AcquisitionalQuery("temp", Rectangle(q, r, q + 2, r + 2), 5.0 + q))
            for q, r in [(0, 0), (1, 1), (2, 2), (0, 2), (2, 0)]
        ]
        engine.run(2)
        for handle in handles[::2]:
            handle.delete()
        engine.run(2)
        engine.planner.check_invariants()
        assert engine.planner_stats().queries == len(handles) - len(handles[::2])


class TestHandlerWithIncentives:
    def test_incentive_scheme_increases_response_rate(self):
        world_plain = make_world(REGION, seed=91, response_probability=0.3)
        world_paid = make_world(REGION, seed=91, response_probability=0.3)
        grid = Grid(REGION, side=4)
        plain = RequestResponseHandler(world_plain, grid, default_budget=50)
        paid = RequestResponseHandler(
            world_paid, grid, default_budget=50, incentive=FlatIncentive(2.0)
        )
        _, report_plain = plain.acquire({"rain": grid.cells()}, duration=1.0)
        _, report_paid = paid.acquire({"rain": grid.cells()}, duration=1.0)
        assert report_paid.response_rate > report_plain.response_rate
        assert report_paid.incentive_spent > 0
        assert report_plain.incentive_spent == 0

    def test_incentive_metadata_recorded_on_tuples(self):
        world = make_world(REGION, seed=93, response_probability=0.8)
        grid = Grid(REGION, side=4)
        handler = RequestResponseHandler(
            world, grid, default_budget=20, incentive=FlatIncentive(0.5)
        )
        cell = grid.cell(1, 1)
        tuples_by_cell, _ = handler.acquire({"rain": [cell]}, duration=1.0)
        items = tuples_by_cell.get(cell.key, [])
        assert items
        assert all(item.metadata["incentive"] == 0.5 for item in items)


class TestFlattenOnlineMode:
    def test_online_estimator_used_after_warmup(self):
        cell = Rectangle(0, 0, 1, 1)
        intensity = LinearIntensity(20.0, 0.0, 150.0, 0.0)
        process = InhomogeneousMDPP(intensity, cell)
        op = FlattenOperator(
            30.0, region=cell, online=True, min_batch_for_fit=10,
            rng=np.random.default_rng(5),
        )
        sink = CollectingSink().attach(op.output)
        rng = np.random.default_rng(6)
        for batch_index in range(6):
            batch = process.sample(1.0, t_start=float(batch_index), rng=rng)
            for i, (t, x, y) in enumerate(zip(batch.t, batch.x, batch.y)):
                op.accept(
                    SensorTuple(
                        tuple_id=batch_index * 10000 + i,
                        attribute="rain",
                        t=float(t),
                        x=float(x),
                        y=float(y),
                    )
                )
            op.flush()
        assert len(op.reports) == 6
        # Later batches should be near the target once the estimate warms up.
        recent = op.reports[-1]
        assert recent.retained == pytest.approx(30.0, rel=0.5)
        assert len(sink) > 0

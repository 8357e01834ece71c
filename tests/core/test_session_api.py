"""Engine-level tests of the query-session surface (ISSUE 4).

Covers: cursor/subscription equivalence with ``results()`` (seeded,
byte-identical tuples), batched delivery accounting, in-flight
``set_rate``/``set_region`` replanning, pause/resume, label lookup,
``execute()`` round-trips of the session DDL, bounded retention on a live
engine, the live ``reports`` view and the ``delete_query`` buffer-leak
regression.
"""

import pytest

from repro.config import BudgetConfig, EngineConfig
from repro.core.engine import CraqrEngine, QuerySessionInfo
from repro.core.query import AcquisitionalQuery
from repro.errors import PlanningError, QueryError, StorageError
from repro.geometry import Rectangle, RectRegion
from repro.sensing import RainField, SensingWorld, TemperatureField, WorldConfig

REGION = Rectangle(0.0, 0.0, 4.0, 4.0)


def make_world(seed=42, sensors=150):
    world = SensingWorld(WorldConfig(region=REGION, sensor_count=sensors, seed=seed))
    world.register_field(RainField(REGION, band_width=1.2, period=40.0))
    world.register_field(TemperatureField(REGION, heat_islands=[(1.0, 1.0, 3.0, 0.5)]))
    return world


def make_engine(retention=None, seed=7, **world_kwargs):
    config = EngineConfig(
        grid_cells=16,
        seed=seed,
        budget=BudgetConfig(initial=30, delta=5, limit=300),
        retention_batches=retention,
    )
    return CraqrEngine(config, make_world(**world_kwargs))


def run_three_queries(batches):
    """Two rain queries and a temp query with partial cell overlaps."""
    engine = make_engine()
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


def by_id(items):
    return sorted(items, key=lambda item: item.tuple_id)


class TestCursorSubscriptionEquivalence:
    def test_cursor_and_subscription_match_results(self):
        engine = make_engine()
        handle = engine.register_query(
            AcquisitionalQuery("rain", RectRegion.from_bounds(0.0, 0.0, 2.0, 2.0), rate=20.0)
        )
        cursor = handle.cursor()
        batch_cursor = handle.cursor()
        pushed = []
        handle.subscribe(lambda batch: pushed.extend(batch.to_tuples()))
        streamed = []
        streamed_columnar = []
        for _ in range(5):
            engine.run_batch()
            streamed.extend(cursor.fetch())
            streamed_columnar.extend(batch_cursor.fetch_batch().to_tuples())
        polled = handle.results()
        assert by_id(streamed) == by_id(polled)
        assert by_id(streamed_columnar) == by_id(polled)
        assert by_id(pushed) == by_id(polled)

    def test_columnar_delivery_is_batched(self):
        engine, handles, reports = run_three_queries(batches=2)
        # One deliver call per (query, cell, batch): totals still add up.
        delivered = sum(report.fabrication.tuples_delivered for report in reports)
        assert delivered == engine.total_tuples_delivered()
        assert delivered == sum(len(handle.results()) for handle in handles)

    def test_subscription_cancel_stops_callbacks(self):
        engine = make_engine()
        handle = engine.register_query(
            AcquisitionalQuery("rain", RectRegion.from_bounds(0.0, 0.0, 2.0, 2.0), rate=20.0)
        )
        calls = []
        subscription = handle.subscribe(lambda batch: calls.append(len(batch)))
        engine.run_batch()
        subscription.cancel()
        engine.run_batch()
        assert len(calls) == 1


class TestInFlightMutation:
    def test_set_rate_converges_without_resetting_buffer(self):
        engine = make_engine(sensors=250)
        handle = engine.register_query(
            AcquisitionalQuery(
                "rain", RectRegion.from_bounds(0.0, 0.0, 2.0, 2.0), rate=20.0, name="Storm"
            )
        )
        engine.run(10)
        total_before = handle.buffer.total_tuples
        batches_before = handle.buffer.batches_completed
        query_id = handle.query_id

        handle.set_rate(8.0)
        assert handle.query.rate == 8.0
        assert handle.query_id == query_id  # same session, not a re-registration
        assert handle.buffer.total_tuples == total_before  # buffer preserved
        assert handle.buffer.batches_completed == batches_before

        engine.run(12)
        estimate = handle.achieved_rate(last_batches=5)
        assert estimate.requested_rate == 8.0
        # The tuner's normal horizon: converged to the new target.
        assert estimate.relative_error < 0.30
        assert handle.buffer.batches_completed == batches_before + 12

    def test_set_rate_preserves_other_querys_budget_state(self):
        engine = make_engine(sensors=250)
        altered = engine.register_query(
            AcquisitionalQuery("rain", RectRegion.from_bounds(0.0, 0.0, 2.0, 2.0), rate=20.0)
        )
        bystander = engine.register_query(
            AcquisitionalQuery("temp", RectRegion.from_bounds(2.0, 2.0, 4.0, 4.0), rate=10.0)
        )
        engine.run(6)
        bystander_budgets = {
            key: engine.handler.budget_for("temp", key)
            for key in engine.planner.cells_for_query(bystander.query_id)
        }
        altered.set_rate(5.0)
        assert {
            key: engine.handler.budget_for("temp", key)
            for key in engine.planner.cells_for_query(bystander.query_id)
        } == bystander_budgets

    def test_set_region_moves_cells_and_keeps_results(self):
        engine = make_engine()
        handle = engine.register_query(
            AcquisitionalQuery("rain", RectRegion.from_bounds(0.0, 0.0, 2.0, 2.0), rate=15.0)
        )
        engine.run(4)
        total_before = handle.buffer.total_tuples
        old_cells = set(engine.planner.cells_for_query(handle.query_id))

        handle.set_region(Rectangle(2.0, 2.0, 4.0, 4.0))
        new_cells = set(engine.planner.cells_for_query(handle.query_id))
        assert new_cells and new_cells.isdisjoint(old_cells)
        assert handle.query.region.area == pytest.approx(4.0)
        assert handle.buffer.total_tuples == total_before

        engine.run(4)
        assert handle.buffer.total_tuples > total_before
        # Vacated cells are dematerialised (no other query used them).
        assert old_cells.isdisjoint(engine.planner.materialized_cells)

    def test_update_query_seeds_budgets_only_for_added_cells(self):
        engine = make_engine(sensors=250)
        handle = engine.register_query(
            AcquisitionalQuery("rain", RectRegion.from_bounds(0.0, 0.0, 2.0, 2.0), rate=25.0)
        )
        engine.run(8)  # let the tuner move budgets away from the initial
        kept_budgets = {
            key: engine.handler.budget_for("rain", key)
            for key in engine.planner.cells_for_query(handle.query_id)
        }
        handle.set_region(Rectangle(0.0, 0.0, 3.0, 2.0))  # superset region
        for key, budget in kept_budgets.items():
            assert engine.handler.budget_for("rain", key) == budget

    def test_update_requires_a_change(self):
        engine = make_engine()
        handle = engine.register_query(
            AcquisitionalQuery("rain", RectRegion.from_bounds(0.0, 0.0, 2.0, 2.0), rate=15.0)
        )
        with pytest.raises(PlanningError):
            engine.update_query(handle.query_id)

    def test_update_unknown_query_raises(self):
        engine = make_engine()
        with pytest.raises(PlanningError):
            engine.update_query(424242, rate=5.0)

    def test_invalid_rate_rejected_and_state_unchanged(self):
        engine = make_engine()
        handle = engine.register_query(
            AcquisitionalQuery("rain", RectRegion.from_bounds(0.0, 0.0, 2.0, 2.0), rate=15.0)
        )
        with pytest.raises(QueryError):
            handle.set_rate(-3.0)
        assert handle.query.rate == 15.0
        engine.run_batch()  # the topology must still be intact


class TestPauseResume:
    def test_pause_stops_deliveries_and_freezes_accounting(self):
        engine = make_engine()
        handle = engine.register_query(
            AcquisitionalQuery("rain", RectRegion.from_bounds(0.0, 0.0, 2.0, 2.0), rate=15.0)
        )
        engine.run(3)
        total = handle.buffer.total_tuples
        batches = handle.buffer.batches_completed
        requests = engine.total_requests_sent()

        handle.pause()
        assert handle.is_paused()
        engine.run(3)
        assert handle.buffer.total_tuples == total
        assert handle.buffer.batches_completed == batches
        # The only query is paused: no acquisition at all happens.
        assert engine.total_requests_sent() == requests

        handle.resume()
        assert not handle.is_paused()
        engine.run(3)
        assert handle.buffer.total_tuples > total
        assert handle.buffer.batches_completed == batches + 3

    def test_pause_does_not_leak_shared_cell_tuples(self):
        engine = make_engine()
        paused = engine.register_query(
            AcquisitionalQuery("rain", RectRegion.from_bounds(0.0, 0.0, 2.0, 2.0), rate=15.0)
        )
        active = engine.register_query(
            AcquisitionalQuery("rain", RectRegion.from_bounds(0.0, 0.0, 2.0, 2.0), rate=10.0)
        )
        paused.pause()
        engine.run(3)
        # The co-located active query keeps the cells acquiring, but none
        # of those tuples may reach the detached session.
        assert paused.buffer.total_tuples == 0
        assert active.buffer.total_tuples > 0

    def test_paused_cells_send_no_violation_feedback(self):
        engine = make_engine()
        handle = engine.register_query(
            AcquisitionalQuery("rain", RectRegion.from_bounds(0.0, 0.0, 2.0, 2.0), rate=15.0)
        )
        handle.pause()
        report = engine.run_batch()
        assert report.fabrication.violations == {}
        assert report.budget_decisions == []

    def test_pause_unknown_query_raises(self):
        engine = make_engine()
        with pytest.raises(PlanningError):
            engine.pause_query(99)


class TestLabelLookupAndExecute:
    def test_query_by_label_and_default_label(self):
        engine = make_engine()
        named = engine.register_query(
            AcquisitionalQuery(
                "rain", RectRegion.from_bounds(0.0, 0.0, 2.0, 2.0), rate=15.0, name="Storm"
            )
        )
        unnamed = engine.register_query(
            AcquisitionalQuery("temp", RectRegion.from_bounds(1.0, 1.0, 3.0, 3.0), rate=8.0)
        )
        assert engine.query("Storm") is named
        assert engine.query(f"Q{unnamed.query_id}") is unnamed

    def test_query_miss_and_duplicate_raise(self):
        engine = make_engine()
        with pytest.raises(QueryError, match="no registered query"):
            engine.query("Nope")
        for _ in range(2):
            engine.register_query(
                AcquisitionalQuery(
                    "rain", RectRegion.from_bounds(0.0, 0.0, 2.0, 2.0), rate=15.0, name="Twin"
                )
            )
        with pytest.raises(QueryError, match="ambiguous"):
            engine.query("Twin")

    def test_execute_acquire_alter_show_stop_round_trip(self):
        engine = make_engine(sensors=250)
        handle = engine.execute(
            "ACQUIRE rain FROM RECT(0, 0, 2, 2) AT RATE 20 PER KM2 PER MIN AS Storm"
        )
        assert handle.query.label == "Storm"
        engine.run(5)

        altered = engine.execute("ALTER Storm SET RATE 8 PER KM2 PER MIN")
        assert altered is handle
        assert handle.query.rate == pytest.approx(8.0)

        engine.execute("ALTER Storm SET REGION RECT(1, 1, 3, 3)")
        assert handle.query.region.area == pytest.approx(4.0)

        rows = engine.execute("SHOW QUERIES")
        assert [type(row) for row in rows] == [QuerySessionInfo]
        assert rows[0].label == "Storm" and not rows[0].paused
        assert rows[0].total_tuples == handle.buffer.total_tuples

        stopped = engine.execute("STOP Storm")
        assert stopped is handle
        assert not handle.is_active()
        assert engine.execute("SHOW QUERIES") == []
        with pytest.raises(QueryError):
            engine.execute("ALTER Storm SET RATE 5")

    def test_execute_accepts_parsed_statements(self):
        from repro.query import parse_statements

        engine = make_engine()
        statements = parse_statements(
            "ACQUIRE rain FROM RECT(0,0,2,2) RATE 10 AS A; SHOW QUERIES"
        )
        handle = engine.execute(statements[0])
        assert handle.query.label == "A"
        assert len(engine.execute(statements[1])) == 1

    def test_execute_rejects_multiple_statements_in_one_string(self):
        engine = make_engine()
        with pytest.raises(QueryError, match="exactly one"):
            engine.execute("STOP A; STOP B")

    def test_execute_rejects_non_statements(self):
        engine = make_engine()
        with pytest.raises(QueryError):
            engine.execute(42)


class TestRetention:
    def test_engine_retention_bounds_memory_and_keeps_totals(self):
        engine = make_engine(retention=4, sensors=250)
        handle = engine.register_query(
            AcquisitionalQuery("rain", RectRegion.from_bounds(0.0, 0.0, 2.0, 2.0), rate=20.0)
        )
        sizes = []
        for _ in range(12):
            engine.run_batch()
            sizes.append((len(engine.reports), len(handle.buffer.per_batch_counts)))
        assert engine.batches_run == 12
        assert len(engine.reports) == 4
        assert len(handle.buffer.per_batch_counts) == 4
        assert max(count for count, _ in sizes) <= 4
        assert len(engine.budget_tuner.history) <= 4 * len(
            engine.planner.cells_for_query(handle.query_id)
        )
        # Whole-history accounting stays exact through running totals.
        assert handle.achieved_rate().tuples == handle.buffer.total_tuples
        assert handle.buffer.batches_completed == 12
        assert engine.total_tuples_delivered() == handle.buffer.total_tuples
        # Windowed reads beyond the retained window fail loudly.
        with pytest.raises(StorageError, match="retained"):
            handle.achieved_rate(last_batches=8)

    def test_retention_config_validation(self):
        from repro.errors import CraqrError

        with pytest.raises(CraqrError):
            EngineConfig(retention_batches=0)


class TestReportsView:
    def test_reports_is_live_o1_view(self):
        engine, _, _ = run_three_queries(batches=2)
        view = engine.reports
        assert len(view) == 2
        assert engine.reports is view  # no per-access copy
        engine.run_batch()
        assert len(view) == 3  # live view tracks new batches
        assert view[-1].batch_index == 2
        with pytest.raises(TypeError):
            view[0] = None  # read-only


class TestDeleteQueryLeak:
    def test_results_survive_query_deletion(self):
        engine, handles, _ = run_three_queries(batches=2)
        kept = handles[0].results()
        handles[0].delete()
        engine.run_batch()
        assert handles[0].results() == kept

    def test_delete_drops_engine_buffer_but_handle_keeps_results(self):
        engine = make_engine()
        keep = engine.register_query(
            AcquisitionalQuery("rain", RectRegion.from_bounds(0.0, 0.0, 2.0, 2.0), rate=15.0)
        )
        doomed = engine.register_query(
            AcquisitionalQuery("temp", RectRegion.from_bounds(1.0, 1.0, 3.0, 3.0), rate=8.0)
        )
        engine.run(4)
        delivered_before = engine.total_tuples_delivered()
        doomed_results = doomed.results()
        assert doomed_results

        doomed.delete()
        # The engine-side reference is gone (this was the leak) ...
        assert doomed.query_id not in engine._buffers
        # ... the handle still reads everything ...
        assert doomed.results() == doomed_results
        # ... and lifetime delivery accounting is unchanged.
        assert engine.total_tuples_delivered() == delivered_before

        engine.run(3)
        assert doomed.buffer.total_tuples == len(doomed_results)
        assert keep.buffer.total_tuples > 0

    def test_register_run_delete_churn_leaves_no_buffers(self):
        engine = make_engine()
        for i in range(6):
            handle = engine.register_query(
                AcquisitionalQuery(
                    "rain", RectRegion.from_bounds(0.0, 0.0, 2.0, 2.0), rate=10.0 + i
                )
            )
            engine.run_batch()
            handle.delete()
        assert engine._buffers == {}
        assert engine.query_handles() == []
        # The running total still reflects every delivery ever made.
        assert engine.total_tuples_delivered() > 0


class TestEngineSurface:
    @pytest.mark.parametrize("vectorized", [False, True])
    def test_fast_sim_follows_the_world_contract(self, vectorized):
        world = SensingWorld(
            WorldConfig(region=REGION, sensor_count=20, seed=1, vectorized_rng=vectorized)
        )
        assert CraqrEngine(EngineConfig(seed=2), world).fast_sim is vectorized

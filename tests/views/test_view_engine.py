"""Engine-level tests of the continuous-view serving surface (ISSUE 5).

Covers: ``QueryHandle.view`` and the ``CREATE VIEW`` / ``DROP VIEW`` /
``SHOW VIEWS`` execute() round-trips, frame correctness against the raw
stream, survival across ALTER SET REGION (vacated cells close, added cells
appear), pause/resume (empty frames, exact lifetime totals), retention
eviction, STOP auto-detach, and the extended SHOW QUERIES session rows.
"""

import pytest

from repro.config import BudgetConfig, EngineConfig
from repro.core.engine import CraqrEngine
from repro.core.query import AcquisitionalQuery
from repro.errors import PlanningError, ViewError
from repro.geometry import Rectangle, RectRegion
from repro.sensing import RainField, SensingWorld, WorldConfig
from repro.views import ViewHandle, ViewSessionInfo, ViewSpec

REGION = Rectangle(0.0, 0.0, 4.0, 4.0)


def make_engine(retention=None, seed=7, sensors=150):
    world = SensingWorld(WorldConfig(region=REGION, sensor_count=sensors, seed=42))
    world.register_field(RainField(REGION, band_width=1.2, period=40.0))
    config = EngineConfig(
        grid_cells=16,
        seed=seed,
        budget=BudgetConfig(initial=30, delta=5, limit=300),
        retention_batches=retention,
    )
    return CraqrEngine(config, world)


def register_storm(engine, rate=20.0):
    return engine.register_query(
        AcquisitionalQuery(
            "rain", RectRegion(Rectangle(0.0, 0.0, 2.0, 2.0)), rate=rate, name="Storm"
        )
    )


class TestViewLifecycle:
    def test_handle_view_and_frames(self):
        engine = make_engine()
        handle = register_storm(engine)
        view = handle.view(ViewSpec(aggregate="COUNT", window=2.0))
        assert isinstance(view, ViewHandle)
        assert view.is_active()
        engine.run(4)
        frames = view.frames()
        assert [f.window_start for f in frames] == [0.0, 2.0]
        # A whole-region COUNT frame is a single "*" group whose value is
        # its own tuple count.
        for frame in frames:
            assert list(frame.keys) == ["*"]
            assert frame.values.tolist() == [float(frame.tuples)]
        assert view.buffer.tuples_total == sum(f.tuples for f in frames)
        assert handle.views() == [view]

    def test_latest_and_info_follow_the_newest_frame(self):
        engine = make_engine()
        view = register_storm(engine).view(ViewSpec(aggregate="COUNT", window=2.0))
        assert view.latest() is None
        engine.run(4)
        frames = view.frames()
        assert view.latest().frame_index == frames[-1].frame_index == 1
        info = view.info()
        assert (info.query_label, info.aggregate, info.window) == ("Storm", "COUNT", 2.0)
        assert info.frames_emitted == info.frames_retained == 2
        assert info.tuples_total == sum(f.tuples for f in frames)
        assert info.last_window_end == 4.0 and info.active

    def test_frame_counts_match_raw_stream(self):
        engine = make_engine()
        handle = register_storm(engine)
        view = handle.view(ViewSpec(aggregate="COUNT", window=1.0))
        cursor = handle.cursor()
        engine.run(5)
        raw = cursor.fetch()
        frames = view.frames()
        # Tuples with t beyond the last closed window are still pending.
        closed_end = frames[-1].window_end
        in_closed = [item for item in raw if item.t < closed_end]
        assert sum(f.tuples for f in frames) == len(in_closed)

    def test_auto_named_views_are_unique(self):
        engine = make_engine()
        handle = register_storm(engine)
        a = handle.view(ViewSpec(aggregate="COUNT", window=1.0))
        b = handle.view(ViewSpec(aggregate="AVG", window=1.0))
        assert a.name != b.name
        assert {v.name for v in engine.view_handles()} == {a.name, b.name}

    def test_auto_naming_skips_user_taken_names(self):
        engine = make_engine()
        handle = register_storm(engine)
        handle.view(ViewSpec(aggregate="COUNT", window=1.0), name="V1")
        unnamed = handle.view(ViewSpec(aggregate="COUNT", window=1.0))
        assert unnamed.name != "V1"
        assert engine.view(unnamed.name).view is unnamed.view

    def test_view_created_inside_a_subscriber_starts_at_the_next_batch(self):
        # A subscription callback fires mid-batch, after the batch's
        # deliveries were dispatched: a view created there must not claim
        # to have observed that batch's window.
        engine = make_engine()
        handle = register_storm(engine)
        created = []

        def create_late(batch):
            if not created:
                created.append(handle.view(ViewSpec(aggregate="COUNT", window=1.0)))

        handle.subscribe(create_late)
        engine.run(3)
        (view,) = created
        frames = view.frames()
        # Created during batch 0's end_batch: the first fully observed
        # window is [1, 2) — and no emitted frame under-reports coverage.
        assert [f.window_start for f in frames] == [1.0, 2.0]
        assert all(f.tuples > 0 for f in frames)

    def test_duplicate_names_rejected(self):
        engine = make_engine()
        handle = register_storm(engine)
        handle.view(ViewSpec(aggregate="COUNT", window=1.0), name="W")
        with pytest.raises(ViewError, match="already exists"):
            handle.view(ViewSpec(aggregate="AVG", window=1.0), name="W")

    def test_view_on_unregistered_query_rejected(self):
        engine = make_engine()
        with pytest.raises(PlanningError):
            engine.create_view(99, ViewSpec(aggregate="COUNT", window=1.0))

    def test_misaligned_window_rejected_at_creation(self):
        engine = make_engine()
        handle = register_storm(engine)
        with pytest.raises(ViewError, match="batch duration"):
            handle.view(ViewSpec(aggregate="COUNT", window=1.5))

    def test_drop_view_keeps_frames_readable(self):
        engine = make_engine()
        handle = register_storm(engine)
        view = handle.view(ViewSpec(aggregate="COUNT", window=1.0), name="W")
        engine.run(2)
        dropped = engine.drop_view("W")
        assert not dropped.is_active()
        assert "W" not in {row.name for row in engine.views()}
        frames_at_drop = len(dropped.frames())
        engine.run(2)  # no further maintenance
        assert len(dropped.frames()) == frames_at_drop
        with pytest.raises(ViewError):
            engine.drop_view("W")

    def test_stop_query_detaches_its_views(self):
        engine = make_engine()
        handle = register_storm(engine)
        view = handle.view(ViewSpec(aggregate="COUNT", window=1.0), name="W")
        engine.run(2)
        engine.execute("STOP Storm")
        assert not view.is_active()
        assert engine.views() == []
        assert len(view.frames()) == 2  # still readable

    def test_view_created_mid_run_sees_only_the_future(self):
        engine = make_engine()
        handle = register_storm(engine)
        engine.run(3)
        view = handle.view(ViewSpec(aggregate="COUNT", window=1.0))
        engine.run(2)
        frames = view.frames()
        assert [f.window_start for f in frames] == [3.0, 4.0]


class TestFailedViewQuarantine:
    def test_non_numeric_stream_quarantines_the_view_not_the_batch(self):
        from scaffolding import ConstantField

        world = SensingWorld(WorldConfig(region=REGION, sensor_count=150, seed=42))
        world.register_field(ConstantField(constant="wet", attribute="rain"))
        config = EngineConfig(
            grid_cells=16, seed=7, budget=BudgetConfig(initial=30, delta=5, limit=300)
        )
        engine = CraqrEngine(config, world)
        handle = register_storm(engine)
        healthy = handle.view(ViewSpec(aggregate="COUNT", window=1.0), name="Healthy")
        broken = handle.view(ViewSpec(aggregate="AVG", window=1.0), name="Broken")
        # The AVG fold raises on the string-valued stream; the engine must
        # quarantine that view instead of aborting the batch.
        report = engine.run_batch()
        engine.run_batch()
        assert report.tuples_delivered > 0
        assert engine.batches_run == 2
        assert not broken.is_active()
        assert isinstance(broken.error, ViewError)
        assert "numeric" in str(broken.error)
        # The healthy view and the query session kept going.
        assert healthy.is_active() and healthy.error is None
        assert [f.tuples for f in healthy.frames()][0] > 0
        assert handle.buffer.batches_completed == 2
        # SHOW VIEWS surfaces the failure instead of listing a zombie.
        by_name = {row.name: row for row in engine.views()}
        assert by_name["Healthy"].active and by_name["Healthy"].error is None
        assert not by_name["Broken"].active
        assert "numeric" in by_name["Broken"].error
        # DROP VIEW removes the quarantined view; the name becomes reusable.
        engine.drop_view("Broken")
        assert "Broken" not in {row.name for row in engine.views()}
        handle.view(ViewSpec(aggregate="COUNT", window=1.0), name="Broken")


class TestExecuteRoundTrip:
    def test_create_show_drop_via_statements(self):
        engine = make_engine()
        engine.execute(
            "ACQUIRE rain FROM RECT(0, 0, 2, 2) AT RATE 20 PER KM2 PER MIN AS Storm"
        )
        view = engine.execute(
            "CREATE VIEW Wetness ON Storm AS AVG(value) GROUP BY CELL "
            "WINDOW 2 SLIDE 1"
        )
        assert isinstance(view, ViewHandle)
        assert view.name == "Wetness"
        assert view.spec.group_by == "cell" and view.spec.is_sliding
        engine.run(4)
        rows = engine.execute("SHOW VIEWS")
        assert [type(row) for row in rows] == [ViewSessionInfo]
        (row,) = rows
        assert row.name == "Wetness" and row.query_label == "Storm"
        assert row.frames_emitted == len(view.frames()) == 3
        dropped = engine.execute("DROP VIEW Wetness")
        assert dropped.name == "Wetness" and not dropped.is_active()
        assert engine.execute("SHOW VIEWS") == []

    def test_show_queries_rows_carry_view_counts_and_state(self):
        engine = make_engine()
        engine.execute(
            "ACQUIRE rain FROM RECT(0, 0, 2, 2) AT RATE 20 PER KM2 PER MIN AS Storm"
        )
        engine.execute("CREATE VIEW W ON Storm AS COUNT(*) WINDOW 1")
        engine.run(3)
        (row,) = engine.execute("SHOW QUERIES")
        assert row.views == 1
        assert row.paused is False
        assert row.total_tuples == engine.query("Storm").buffer.total_tuples
        engine.query("Storm").pause()
        (row,) = engine.execute("SHOW QUERIES")
        assert row.paused is True

    def test_create_view_on_unknown_query_is_a_query_error(self):
        engine = make_engine()
        from repro.errors import QueryError

        with pytest.raises(QueryError, match="no registered query"):
            engine.execute("CREATE VIEW W ON Ghost AS COUNT(*) WINDOW 1")


class TestViewsSurviveSessionMutation:
    def test_alter_region_closes_vacated_cells_and_opens_new_ones(self):
        engine = make_engine()
        handle = register_storm(engine)
        view = handle.view(
            ViewSpec(aggregate="COUNT", window=2.0, group_by="cell"), name="W"
        )
        engine.run(2)
        before = view.frames()[-1]
        cells_before = set(before.keys)
        assert cells_before  # the 2x2 km query spans cells (0..1, 0..1)
        # Move the query to the opposite corner of the region.
        engine.execute("ALTER Storm SET REGION RECT(2, 2, 4, 4)")
        engine.run(2)
        after = view.frames()[-1]
        cells_after = set(after.keys)
        assert cells_after
        assert cells_before.isdisjoint(cells_after)
        assert all(q >= 2 and r >= 2 for q, r in cells_after)

    def test_pause_emits_empty_frames_and_totals_stay_exact(self):
        engine = make_engine()
        handle = register_storm(engine)
        view = handle.view(ViewSpec(aggregate="COUNT", window=1.0), name="W")
        engine.run(2)
        handle.pause()
        engine.run(3)
        handle.resume()
        engine.run(2)
        frames = view.frames()
        assert len(frames) == 7  # gap-free in sim time
        assert [f.is_empty for f in frames[2:5]] == [True, True, True]
        assert frames[5].tuples > 0 or frames[6].tuples > 0
        # Lifetime totals: every delivered tuple inside closed windows is
        # accounted exactly once (tumbling).
        closed_end = frames[-1].window_end
        delivered = [item for item in handle.results() if item.t < closed_end]
        assert view.buffer.tuples_total == len(delivered)

    def test_alter_rate_keeps_the_view_attached(self):
        engine = make_engine()
        handle = register_storm(engine)
        view = handle.view(ViewSpec(aggregate="COUNT", window=1.0), name="W")
        engine.run(1)
        engine.execute("ALTER Storm SET RATE 5")
        engine.run(1)
        assert view.is_active()
        assert len(view.frames()) == 2


class TestViewRetention:
    def test_frames_evict_with_exact_lifetime_totals(self):
        engine = make_engine(retention=4)
        handle = register_storm(engine)
        view = handle.view(ViewSpec(aggregate="COUNT", window=2.0), name="W")
        cursor = view.frame_cursor()
        raw_cursor = handle.cursor()
        seen = []
        raw = []
        for _ in range(20):
            engine.run_batch()
            seen.extend(cursor.fetch())
            raw.extend(raw_cursor.fetch())
        # 20 batches -> 10 closed windows; retention 4 batches -> 2 frames.
        assert view.buffer.frames_emitted == 10
        assert len(view.buffer) == 2
        assert view.buffer.retention_frames == 2
        # The incremental reader saw every frame despite eviction ...
        assert [f.frame_index for f in seen] == list(range(10))
        # ... and lifetime totals survive eviction exactly: every delivered
        # tuple inside a closed window is accounted once.
        assert view.buffer.tuples_total == sum(f.tuples for f in seen)
        closed_end = seen[-1].window_end
        assert view.buffer.tuples_total == sum(1 for item in raw if item.t < closed_end)

    def test_lagging_frame_cursor_raises(self):
        from repro.errors import StorageError

        engine = make_engine(retention=2)
        handle = register_storm(engine)
        view = handle.view(ViewSpec(aggregate="COUNT", window=1.0), name="W")
        lagging = view.frame_cursor()
        engine.run(6)
        with pytest.raises(StorageError, match="evicted"):
            lagging.fetch()

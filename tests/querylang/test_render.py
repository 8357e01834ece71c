"""Golden renders of the shared session tables (``repro.query.render``).

The repl and the serving layer's text mode both show these tables; the
goldens pin the exact text so neither surface can drift.  Synthetic
session rows keep the goldens fully deterministic (no engine run in the
way of the byte-for-byte comparison); a live-engine test then checks the
repl and the server read from the same functions.
"""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np

from repro import cli
from repro.core.engine import QuerySessionInfo
from repro.query import frames_table, health_table, sessions_table, views_table
from repro.query import render
from repro.views.frames import ViewFrame
from repro.views.view import ViewSessionInfo

STORM = QuerySessionInfo(
    label="Storm",
    query_id=1,
    attribute="rain",
    requested_rate=8.0,
    region_area=4.0,
    paused=False,
    total_tuples=117,
    batches_completed=3,
    achieved_rate=9.75,
    views=1,
    degraded_pairs=((0, 1),),
)

RAIN = ViewSessionInfo(
    name="Rain",
    query_label="Storm",
    query_id=1,
    aggregate="AVG",
    group_by="CELL",
    window=2.0,
    slide=2.0,
    frames_emitted=3,
    frames_retained=3,
    tuples_total=117,
    last_window_end=6.0,
    active=True,
    error=None,
)


class TestSessionsGolden:
    def test_empty_table(self):
        assert sessions_table([]).render() == (
            "== query sessions ==\n"
            "query  attribute  area  rate  achieved  tuples  batches  views  health  state\n"
            "-----  ---------  ----  ----  --------  ------  -------  -----  ------  -----"
        )

    def test_one_degraded_session(self):
        assert sessions_table([STORM]).render() == (
            "== query sessions ==\n"
            "query  attribute  area  rate  achieved  tuples  batches  views  health      state\n"
            "-----  ---------  ----  ----  --------  ------  -------  -----  ----------  -----\n"
            "Storm  rain       4     8     9.75      117     3        1      1 degraded  live "
        )

    def test_paused_session_without_rate(self):
        info = QuerySessionInfo(
            label="Heat",
            query_id=2,
            attribute="temp",
            requested_rate=6.0,
            region_area=4.0,
            paused=True,
            total_tuples=0,
            batches_completed=0,
            achieved_rate=None,
            views=0,
            degraded_pairs=(),
        )
        rendered = sessions_table([info]).render()
        row = rendered.splitlines()[-1]
        assert "paused" in row
        assert "ok" in row
        assert "  -  " in f" {row} "  # achieved column shows the dash


class TestViewsGolden:
    def test_empty_table(self):
        assert views_table([]).render() == (
            "== continuous views ==\n"
            "view  on  aggregate  group by  window  slide  frames  tuples  last close  state\n"
            "----  --  ---------  --------  ------  -----  ------  ------  ----------  -----"
        )

    def test_one_live_view(self):
        assert views_table([RAIN]).render() == (
            "== continuous views ==\n"
            "view  on     aggregate  group by  window  slide  frames  tuples  last close  state\n"
            "----  -----  ---------  --------  ------  -----  ------  ------  ----------  -----\n"
            "Rain  Storm  AVG        CELL      2       2      3       117     6           live "
        )

    def test_failed_view_shows_the_error(self):
        from dataclasses import replace

        dead = replace(RAIN, active=False, error="fold exploded")
        assert "failed: fold exploded" in views_table([dead]).render()


class TestFramesGolden:
    def test_frames_with_groups_and_an_empty_window(self):
        spec = SimpleNamespace(
            aggregate="avg",
            describe=lambda: "AVG(value) GROUP BY CELL WINDOW 2",
        )
        view = SimpleNamespace(name="Rain", spec=spec)
        keys = np.empty(2, dtype=object)
        keys[:] = [(0, 0), (1, 1)]
        full = ViewFrame(
            frame_index=0,
            window_start=0.0,
            window_end=2.0,
            keys=keys,
            values=np.array([0.5, -1.25]),
            counts=np.array([4, 2], dtype=np.int64),
        )
        empty = ViewFrame(
            frame_index=1,
            window_start=2.0,
            window_end=4.0,
            keys=np.empty(0, dtype=object),
            values=np.empty(0),
            counts=np.empty(0, dtype=np.int64),
        )
        assert frames_table(view, [full, empty]).render() == (
            "== view Rain: AVG(value) GROUP BY CELL WINDOW 2 ==\n"
            "frame  window  group   AVG    tuples\n"
            "-----  ------  ------  -----  ------\n"
            "0      [0, 2)  (0, 0)  0.5    4     \n"
            "0      [0, 2)  (1, 1)  -1.25  2     \n"
            "1      [2, 4)  -       -      0     "
        )


class TestSharedSurface:
    def test_cli_aliases_are_the_render_functions(self):
        # The repl renders through the exact same callables the server's
        # text mode uses — no drift possible.
        assert cli.sessions_table is render.sessions_table
        assert cli.views_table is render.views_table
        assert cli.health_table is render.health_table
        assert cli.frames_table is render.frames_table

    def test_query_package_reexports(self):
        from repro import query

        assert query.sessions_table is render.sessions_table
        assert query.views_table is render.views_table
        assert query.health_table is render.health_table
        assert query.frames_table is render.frames_table

    def test_health_table_shape_on_a_live_engine(self, small_config, city_world):
        from repro.core import CraqrEngine

        engine = CraqrEngine(small_config, city_world)
        handle = engine.execute(
            "ACQUIRE rain FROM RECT(0, 0, 2, 2) AT RATE 8 PER KM2 PER MIN AS Storm"
        )
        engine.run(2)
        table = health_table(engine, handle)
        rendered = table.render()
        assert rendered.startswith("== health of Storm (rain), last batch ==")
        assert table.headers == [
            "cell", "requests", "responses", "timeouts", "drops", "retries",
            "rate ewma", "state",
        ]
        assert len(table.rows) == len(engine.planner.cells_for_query(handle.query_id))
        assert all(row[-1] in ("ok", "degraded") for row in table.rows)

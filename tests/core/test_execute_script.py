"""``CraqrEngine.execute_script``: per-statement results, error recovery."""

from __future__ import annotations

import pytest

from repro.config import BudgetConfig, EngineConfig
from repro.core import CraqrEngine, StatementResult
from repro.errors import QueryError, QueryParseError, ViewError
from repro.geometry import Rectangle
from repro.query.parser import parse_statements
from repro.sensing import RainField, SensingWorld, TemperatureField, WorldConfig

REGION = Rectangle(0.0, 0.0, 4.0, 4.0)

ACQUIRE = "ACQUIRE rain FROM RECT(0, 0, 2, 2) AT RATE 8 PER KM2 PER MIN AS Storm"
VIEW = "CREATE VIEW Rain ON Storm AS AVG(value) GROUP BY CELL WINDOW 2"


def make_engine():
    world = SensingWorld(WorldConfig(region=REGION, sensor_count=80, seed=11))
    world.register_field(RainField(REGION, band_width=1.2, period=60.0))
    world.register_field(TemperatureField(REGION))
    config = EngineConfig(
        grid_cells=16, seed=7, budget=BudgetConfig(initial=30, delta=5, limit=300)
    )
    return CraqrEngine(config, world)


class TestHappyPath:
    def test_results_come_back_in_statement_order(self):
        engine = make_engine()
        results = engine.execute_script(f"{ACQUIRE}; {VIEW}; SHOW QUERIES")
        assert len(results) == 3
        assert all(isinstance(r, StatementResult) for r in results)
        assert all(r.ok for r in results)
        assert results[0].result.query.label == "Storm"
        assert results[1].result.name == "Rain"
        assert [info.label for info in results[2].result] == ["Storm"]

    def test_statement_result_carries_the_parsed_statement(self):
        engine = make_engine()
        (result,) = engine.execute_script("SHOW QUERIES")
        assert type(result.statement).__name__ == "ShowQueriesStatement"
        assert result.error is None

    def test_accepts_pre_parsed_statements(self):
        engine = make_engine()
        statements = parse_statements(f"{ACQUIRE}; SHOW QUERIES")
        results = engine.execute_script(statements)
        assert [r.ok for r in results] == [True, True]

    def test_empty_script_is_a_parse_error(self):
        engine = make_engine()
        with pytest.raises(QueryParseError, match="empty"):
            engine.execute_script("")

    def test_empty_statement_list_returns_no_results(self):
        engine = make_engine()
        assert engine.execute_script([]) == []


class TestErrorRecovery:
    def test_on_error_raise_wraps_with_statement_position(self):
        engine = make_engine()
        engine.execute(ACQUIRE)
        engine.execute(VIEW)
        with pytest.raises(QueryError, match=r"script statement 1 of 2 failed") as err:
            engine.execute_script(f"{VIEW}; SHOW QUERIES")
        assert isinstance(err.value.__cause__, ViewError)

    def test_on_error_continue_collects_and_keeps_going(self):
        # Satellite 2 regression: a failing statement mid-script must not
        # abort the rest, and earlier effects must persist.
        engine = make_engine()
        results = engine.execute_script(
            f"{ACQUIRE}; {VIEW}; {VIEW}; SHOW VIEWS", on_error="continue"
        )
        assert [r.ok for r in results] == [True, True, False, True]
        failed = results[2]
        assert isinstance(failed.error, ViewError)
        assert failed.result is None
        # Effects before and after the failure persisted: the query and
        # the first view exist, and SHOW VIEWS ran on the live engine.
        assert engine.query("Storm").is_active()
        assert [info.name for info in results[3].result] == ["Rain"]

    def test_effects_before_a_raise_persist(self):
        engine = make_engine()
        with pytest.raises(QueryError):
            engine.execute_script(f"{ACQUIRE}; CREATE VIEW X ON Nope AS AVG(value) WINDOW 2")
        assert engine.query("Storm").is_active()

    def test_parse_errors_always_raise(self):
        engine = make_engine()
        with pytest.raises(QueryParseError):
            engine.execute_script("FROB the stream", on_error="continue")
        # Nothing ran: the script failed to parse as a whole.
        assert engine.sessions() == []

    def test_bad_on_error_value_rejected(self):
        engine = make_engine()
        with pytest.raises(QueryError, match="on_error must be"):
            engine.execute_script("SHOW QUERIES", on_error="ignore")


HUMIDITY = "ACQUIRE humidity FROM RECT(0, 0, 2, 2) AT RATE 5"


class TestUnsensedAttribute:
    """A query on an attribute the world does not sense is refused up front.

    Accepting it would make every later batch fail to acquire it, and the
    healthy queries would stop with it.
    """

    def test_register_query_refuses_it_naming_the_worlds_attributes(self):
        engine = make_engine()
        storm = engine.execute(ACQUIRE)
        cells = engine.planner.materialized_cells
        query = parse_statements(HUMIDITY)[0].to_query()
        with pytest.raises(QueryError, match=r"humidity.*\['rain', 'temp'\]"):
            engine.register_query(query)
        assert engine.planner.materialized_cells == cells
        assert [info.label for info in engine.sessions()] == ["Storm"]
        engine.run_batch()
        assert storm.buffer.total_tuples > 0

    def test_a_script_keeps_going_and_the_other_queries_deliver(self):
        engine = make_engine()
        results = engine.execute_script(
            f"{ACQUIRE}; {HUMIDITY}; SHOW QUERIES", on_error="continue"
        )
        assert [r.ok for r in results] == [True, False, True]
        assert "humidity" in str(results[1].error)
        report = engine.run_batch()
        assert report.tuples_delivered > 0
        assert results[0].result.buffer.total_tuples == report.tuples_delivered

    def test_a_raising_script_names_the_statement(self):
        engine = make_engine()
        with pytest.raises(QueryError, match="script statement 2 of 2 failed"):
            engine.execute_script(f"{ACQUIRE}; {HUMIDITY}")
        assert engine.run_batch().tuples_delivered > 0

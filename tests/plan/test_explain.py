"""``EXPLAIN <query|view>`` — the plan made visible through the DDL.

The statement parses like the rest of the session DDL, executes against a
live engine, and renders the chains the query taps in the order the
compiled programs run them: each Flatten, Thin level and Partition with
the queries sharing it, the flat merge, the views with their shared sorts
and the seed-era cost-model estimate.  ``test_explain_golden.py`` pins the
full text.
"""

import io

import pytest

from repro.config import BudgetConfig, EngineConfig
from repro.core import CraqrEngine
from repro.query import ExplainStatement, parse_statements
from repro.errors import QueryError
from repro.geometry import Rectangle
from repro.sensing import SensingWorld, WorldConfig

from recovery_harness import engine_digest, make_engine, run_to
from scaffolding import ConstantField


@pytest.fixture
def engine():
    return run_to(make_engine(), 2)


class TestParsing:
    def test_explain_parses_to_statement(self):
        (stmt,) = parse_statements("EXPLAIN Storm")
        assert stmt == ExplainStatement(name="Storm")

    def test_explain_is_case_insensitive_and_batchable(self):
        stmts = parse_statements("explain Storm; EXPLAIN Rain")
        assert [s.name for s in stmts] == ["Storm", "Rain"]

    def test_explain_requires_a_name(self):
        with pytest.raises(QueryError, match="query or view name"):
            parse_statements("EXPLAIN")


class TestRendering:
    def test_query_target_shows_the_full_plan(self, engine):
        text = engine.execute("EXPLAIN Storm")
        assert isinstance(text, str)
        assert text.startswith("EXPLAIN query 'Storm'")
        # One Flatten per chain the query taps, each with its Thin level.
        for label in ("F:rain@(0, 0)", "T:rain@(0, 0)#0", "F:rain@(1, 1)"):
            assert label in text
        assert "chains (4):" in text
        assert "merge stage: U:Storm flat union over 4 per-cell streams" in text
        assert "cost estimate (steady-state, seed cost model):" in text

    def test_view_target_scopes_to_that_view(self, engine):
        engine.execute("CREATE VIEW Other ON Storm AS COUNT(*) WINDOW 4")
        text = engine.execute("EXPLAIN Rain")
        assert text.startswith("EXPLAIN view 'Rain' on query 'Storm'")
        assert "view:Rain" in text
        # The sibling view is pruned from this view's plan.
        assert "view:Other" not in text
        assert "sort (slide=2, cell)" in text

    def test_paused_query_says_so(self, engine):
        storm = engine.query("Storm").query_id
        engine.pause_query(storm)
        assert (
            "merge stage: U:Storm flat union over 4 per-cell streams "
            "(paused: deliveries suppressed)"
        ) in engine.execute("EXPLAIN Storm")
        engine.resume_query(storm)
        assert "paused" not in engine.execute("EXPLAIN Storm")

    def test_view_named_like_a_query_is_ambiguous(self, engine):
        engine.execute("CREATE VIEW Storm ON Storm AS COUNT(*) WINDOW 2")
        with pytest.raises(QueryError, match="ambiguous.*view 'Storm'.*query labelled 'Storm'"):
            engine.execute("EXPLAIN Storm")
        engine.execute("DROP VIEW Storm")
        assert engine.execute("EXPLAIN Storm").startswith("EXPLAIN query 'Storm'")

    def test_unknown_name_is_a_clear_error(self, engine):
        with pytest.raises(QueryError, match="matches no registered query"):
            engine.execute("EXPLAIN Nope")

    def test_view_target_on_a_paused_query_says_so(self, engine):
        engine.pause_query(engine.query("Storm").query_id)
        text = engine.execute("EXPLAIN Rain")
        assert text.startswith("EXPLAIN view 'Rain' on query 'Storm'")
        assert "(paused: deliveries suppressed)" in text

    def test_ambiguous_query_label_keeps_the_engines_message(self, engine):
        engine.execute("ACQUIRE rain FROM RECT(1, 1, 3, 3) AT RATE 5 AS Storm")
        with pytest.raises(QueryError, match="label 'Storm' is ambiguous") as excinfo:
            engine.execute("EXPLAIN Storm")
        assert "matches no registered query" not in str(excinfo.value)

    def test_stopped_query_and_its_views_are_gone(self, engine):
        engine.execute("STOP Storm")
        for name in ("Storm", "Rain"):
            with pytest.raises(QueryError, match="matches no registered query"):
                engine.execute(f"EXPLAIN {name}")

    def test_quarantined_view_is_left_out(self):
        world = SensingWorld(
            WorldConfig(region=Rectangle(0.0, 0.0, 4.0, 4.0), sensor_count=150, seed=42)
        )
        world.register_field(ConstantField(constant="wet", attribute="rain"))
        config = EngineConfig(
            grid_cells=16, seed=7, budget=BudgetConfig(initial=30, delta=5, limit=300)
        )
        engine = CraqrEngine(config, world)
        engine.execute("ACQUIRE rain FROM RECT(0, 0, 2, 2) AT RATE 8 AS Storm")
        engine.execute("CREATE VIEW Healthy ON Storm AS COUNT(*) WINDOW 1")
        engine.execute("CREATE VIEW Broken ON Storm AS AVG(value) WINDOW 1")
        assert "view:Broken" in engine.execute("EXPLAIN Storm")
        # The AVG fold raises on the string-valued stream: Broken is
        # quarantined, folds nothing and shares no sort.
        engine.run_batch()
        text = engine.execute("EXPLAIN Storm")
        assert "views (1):\n  view:Healthy  COUNT(value) WINDOW 1  sort (slide=1, region)\n" in text
        assert "Broken" not in text


class TestNoSideEffects:
    def test_explain_between_batches_leaves_the_run_byte_identical(self):
        plain = run_to(make_engine(), 4)
        explained = run_to(make_engine(), 2)
        for name in ("Storm", "Rain"):
            explained.execute(f"EXPLAIN {name}")
        run_to(explained, 4)
        assert engine_digest(explained) == engine_digest(plain)


class TestReplIntegration:
    def test_repl_prints_the_plan(self):
        from repro.cli import main

        lines = []
        code = main(
            ["repl", "--scenario", "uniform", "--sensors", "120", "--seed", "3"],
            out=lines.append,
            in_stream=io.StringIO(
                "ACQUIRE rain FROM RECT(0,0,2,2) RATE 5 AS Storm\nrun 2\nEXPLAIN Storm\n"
            ),
        )
        assert code == 0
        out = "\n".join(lines)
        assert "EXPLAIN query 'Storm'" in out
        assert "merge stage: U:Storm flat union" in out

    def test_repl_help_mentions_explain(self):
        from repro.cli import _REPL_HELP

        assert "EXPLAIN <query|view>" in _REPL_HELP

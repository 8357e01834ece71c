"""``EXPLAIN <query|view>`` — the plan made visible through the DDL.

The statement parses like the rest of the session DDL, executes against a
live engine, and renders the optimized dataflow graph: every node with its
inputs, the fused kernels, the merge-stage choice (flat vs tree), the
seed-era cost-model estimate and the optimizer's sharing notes.
"""

import io

import pytest

from repro.query import ExplainStatement, parse_statements
from repro.errors import QueryError

from recovery_harness import make_engine, run_to


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
        assert "execution mode: compiled (fused kernels)" in text
        # The dataflow section lists every operator kind in the chain.
        for label in (
            "source:rain@(0, 0)",
            "F:rain@(0, 0)",
            "T:rain@(0, 0)#0",
            "gather:q1@(0, 0)",
            "U:Storm",
            "buffer:Storm",
        ):
            assert label in text
        assert "fused kernels (4):" in text
        assert "merge stage: flat union over 4 per-cell streams" in text
        assert "tree alternative (fan-in 2): depth 2, 3 union operators" in text
        assert "cost estimate (steady-state, seed cost model):" in text
        assert "keep-mask fusion: 4 chains -> 4 fused kernels" in text

    def test_view_target_scopes_to_that_view(self, engine):
        engine.execute("CREATE VIEW Other ON Storm AS COUNT(*) WINDOW 4")
        text = engine.execute("EXPLAIN Rain")
        assert text.startswith("EXPLAIN view 'Rain' on query 'Storm'")
        assert "view:Rain" in text
        # The sibling view's sink is pruned from this view's plan.
        assert "view:Other" not in text
        assert "sort:q1/slide=2" in text

    def test_unknown_name_is_a_clear_error(self, engine):
        with pytest.raises(QueryError, match="matches no registered query"):
            engine.execute("EXPLAIN Nope")


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
        assert "fused kernels" in out

    def test_repl_help_mentions_explain(self):
        from repro.cli import _REPL_HELP

        assert "EXPLAIN <query|view>" in _REPL_HELP

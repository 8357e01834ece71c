"""The repl and the wire show one rendering of every statement.

One script covering all eight statement kinds plus a failing statement
runs through the repl and over both transports, each against a fresh
engine of the same scenario; the repl's lines must equal the rows'
``text``, and ``health`` on the cell-outage scenario must read the same
on both surfaces.
"""

from __future__ import annotations

import io

import pytest

from repro.cli import _scenario_engine, build_parser, main
from repro.serve import ServeClient, ServeConfig, serve_in_thread

from serve_harness import simulate_fresh_process

ARGS = ["repl", "--scenario", "cell-outage", "--sensors", "240", "--seed", "19"]

FIRST = (
    "ACQUIRE temp FROM RECT(0,0,2,2) AT RATE 10 PER KM2 PER MIN AS Quad; "
    "ALTER Quad SET RATE 8 PER KM2 PER MIN; "
    "CREATE VIEW Tiles ON Quad AS AVG(value) GROUP BY CELL WINDOW 2; "
    "STOP Nobody; "
    "EXPLAIN Quad"
)
SECOND = "SHOW QUERIES; SHOW VIEWS; DROP VIEW Tiles; STOP Quad; SHOW QUERIES"


def repl_lines():
    """What the repl prints for the session, banner and farewell cut."""
    simulate_fresh_process()
    lines = []
    script = f"{FIRST}\nrun 6\nhealth Quad\n{SECOND}\n"
    assert main(ARGS, out=lines.append, in_stream=io.StringIO(script)) == 0
    return lines[2:-1]


def wire_session(transport):
    """The same session over the wire: (first rows, health text, second rows)."""
    simulate_fresh_process()
    _, engine = _scenario_engine(build_parser().parse_args(ARGS))
    _, (host, port), stop = serve_in_thread(engine, ServeConfig())
    try:
        with ServeClient(host, port, transport=transport) as client:
            first = client.execute(FIRST)
            client.run(6)
            health = client.health("Quad")
            second = client.execute(SECOND)
    finally:
        stop()
    return first, health, second


@pytest.fixture(scope="module")
def repl():
    return repl_lines()


@pytest.fixture(scope="module", params=["tcp", "ws"])
def wire(request):
    return wire_session(request.param)


def test_repl_prints_the_rows_text(repl, wire):
    first, health, second = wire
    kinds = {row["statement"] for row in first + second}
    assert len(kinds) == 8
    assert [row["ok"] for row in first] == [True, True, True, False, True]
    expected = (
        [row["text"] for row in first]
        + ["ran 6 batch(es); 6 total", health]
        + [row["text"] for row in second]
    )
    assert repl == expected


def test_wire_health_carries_the_quarantine_line(wire):
    _, health, _ = wire
    assert health.startswith("== health of Quad (temp), last batch ==")
    assert "\nquarantined sensors: " in health


def test_every_row_carries_text(wire):
    first, _, second = wire
    assert all(row["text"] for row in first + second)
    assert first[3]["text"] == f"error: {first[3]['error']}"

"""Unit tests for the command-line interface."""

import io
import os
import pathlib
import subprocess
import sys

import pytest

from repro.cli import SCENARIOS, _scenario_engine, build_parser, main

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"


class _Capture:
    def __init__(self):
        self.lines = []

    def __call__(self, text):
        self.lines.append(str(text))

    @property
    def text(self):
        return "\n".join(self.lines)


class TestParser:
    def test_run_requires_query(self):
        parser = build_parser()
        with pytest.raises(SystemExit):
            parser.parse_args(["run"])

    def test_run_defaults(self):
        args = build_parser().parse_args(["run", "--query", "ACQUIRE rain FROM RECT(0,0,2,2) RATE 10"])
        assert args.scenario == "rain-temperature"
        assert args.batches == 20

    def test_unknown_scenario_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--scenario", "mars", "--query", "x"])

    def test_command_is_required(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])


#: The sub-commands that build a scenario engine, with the argv tail each
#: needs to parse.
ENGINE_COMMANDS = {
    "run": ["--query", "ACQUIRE rain FROM RECT(0,0,2,2) RATE 5"],
    "repl": [],
    "serve": [],
}
FAULT_SCENARIOS = {"flaky-crowd", "crash-recovery", "cell-outage"}


class TestScenarioOptions:
    """``run``, ``repl`` and ``serve`` share one set of scenario options."""

    @pytest.mark.parametrize("command", sorted(ENGINE_COMMANDS))
    def test_shared_options_parse_alike(self, command):
        args = build_parser().parse_args(
            [
                command,
                "--scenario", "hotspot",
                "--sensors", "40",
                "--grid-cells", "4",
                "--seed", "11",
                "--checkpoint-dir", "ckpts",
                *ENGINE_COMMANDS[command],
            ]
        )
        assert (args.scenario, args.sensors, args.grid_cells, args.seed) == (
            "hotspot", 40, 4, 11,
        )
        assert args.checkpoint_dir == "ckpts"

    @pytest.mark.parametrize(
        "command, expected", [("run", 10), ("repl", None), ("serve", None)]
    )
    def test_checkpoint_every_default_is_per_command(self, command, expected):
        # run's default of 10 must not leak into the sibling sub-commands.
        args = build_parser().parse_args([command, *ENGINE_COMMANDS[command]])
        assert args.checkpoint_every == expected
        assert args.retention_batches is None

    @pytest.mark.parametrize("command", sorted(ENGINE_COMMANDS))
    def test_non_positive_checkpoint_every_is_refused(self, command):
        capture = _Capture()
        code = main(
            [command, "--checkpoint-every", "0", *ENGINE_COMMANDS[command]],
            out=capture,
            in_stream=io.StringIO("quit\n"),
        )
        assert code == 1
        assert "checkpoint-every must be positive" in capture.text

    @pytest.mark.parametrize("command", ["repl", "serve"])
    def test_non_positive_retention_is_refused(self, command):
        capture = _Capture()
        code = main(
            [command, "--retention-batches", "-2"],
            out=capture,
            in_stream=io.StringIO("quit\n"),
        )
        assert code == 1
        assert "retention-batches must be positive" in capture.text

    def test_run_has_no_retention_option(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["run", "--retention-batches", "3", *ENGINE_COMMANDS["run"]]
            )

    @pytest.mark.parametrize("scenario", sorted(SCENARIOS))
    def test_scenario_engine_builds_the_named_world(self, scenario):
        args = build_parser().parse_args(
            [
                "repl",
                "--scenario", scenario,
                "--sensors", "24",
                "--grid-cells", "4",
                "--seed", "5",
                "--retention-batches", "3",
            ]
        )
        description, engine = _scenario_engine(args)
        assert description == SCENARIOS[scenario][0]
        assert len(engine.world.sensors) == 24
        config = engine.config
        assert (config.grid_cells, config.seed, config.retention_batches) == (4, 6, 3)
        faulty = scenario in FAULT_SCENARIOS
        assert (config.faults is not None) == faulty
        assert (config.resilience is not None) == faulty
        assert config.checkpoints is None

    def test_scenario_engine_checkpoints_into_the_directory(self, tmp_path):
        args = build_parser().parse_args(
            [
                "run",
                "--sensors", "24",
                "--checkpoint-dir", str(tmp_path),
                *ENGINE_COMMANDS["run"],
            ]
        )
        _, engine = _scenario_engine(args)
        checkpoints = engine.config.checkpoints
        assert (checkpoints.directory, checkpoints.every) == (str(tmp_path), 10)


class TestCommands:
    def test_scenarios_lists_all(self):
        capture = _Capture()
        assert main(["scenarios"], out=capture) == 0
        for name in SCENARIOS:
            assert name in capture.text

    def test_attributes_lists_catalog(self):
        capture = _Capture()
        assert main(["attributes"], out=capture) == 0
        assert "rain" in capture.text
        assert "temp" in capture.text
        assert "human" in capture.text

    def test_run_end_to_end(self):
        capture = _Capture()
        code = main(
            [
                "run",
                "--scenario",
                "uniform",
                "--sensors",
                "120",
                "--batches",
                "4",
                "--seed",
                "3",
                "--show-samples",
                "2",
                "--query",
                "ACQUIRE rain FROM RECT(0,0,2,2) AT RATE 8 PER KM2 PER MIN AS Storm",
                "--query",
                "ACQUIRE temp FROM RECT(1,1,3,3) AT RATE 5 PER KM2 PER MIN AS Heat",
            ],
            out=capture,
        )
        assert code == 0
        assert "Storm" in capture.text
        assert "Heat" in capture.text
        assert "achieved rate" in capture.text
        assert "first tuples of Storm" in capture.text

    def test_run_rejects_unknown_attribute(self):
        capture = _Capture()
        code = main(
            [
                "run",
                "--batches",
                "2",
                "--query",
                "ACQUIRE humidity FROM RECT(0,0,2,2) RATE 5",
            ],
            out=capture,
        )
        assert code == 1
        assert "error" in capture.text

    def test_run_rejects_bad_query_text(self):
        capture = _Capture()
        code = main(["run", "--batches", "2", "--query", "SELECT * FROM rain"], out=capture)
        assert code == 1
        assert "error" in capture.text

    def test_run_rejects_non_positive_batches(self):
        capture = _Capture()
        code = main(
            ["run", "--batches", "0", "--query", "ACQUIRE rain FROM RECT(0,0,2,2) RATE 5"],
            out=capture,
        )
        assert code == 1

    def test_run_rejects_a_negative_seed(self):
        capture = _Capture()
        code = main(
            ["run", "--seed", "-1", "--batches", "2",
             "--query", "ACQUIRE rain FROM RECT(0,0,2,2) RATE 5"],
            out=capture,
        )
        assert code == 1
        assert capture.text.startswith("error: ")
        assert "seed" in capture.text

    def test_a_negative_seed_exits_without_a_traceback(self):
        process = subprocess.run(
            [sys.executable, "-m", "repro.cli", "run", "--seed", "-1", "--batches", "1",
             "--query", "ACQUIRE rain FROM RECT(0,0,2,2) RATE 5"],
            capture_output=True, text=True, timeout=60,
            env={**os.environ, "PYTHONPATH": str(SRC)},
        )
        assert process.returncode == 1
        assert process.stdout.startswith("error: ")
        assert "Traceback" not in process.stderr


def run_repl(script, *args):
    capture = _Capture()
    code = main(
        ["repl", "--scenario", "uniform", "--sensors", "120", "--seed", "3", *args],
        out=capture,
        in_stream=io.StringIO(script),
    )
    return code, capture


class TestRepl:
    def test_full_session_smoke(self):
        script = """
        ACQUIRE rain FROM RECT(0,0,2,2) AT RATE 10 PER KM2 PER MIN AS Storm
        run 4
        SHOW QUERIES
        ALTER Storm SET RATE 5 PER KM2 PER MIN
        run 3
        ALTER Storm SET REGION RECT(1,1,3,3)
        STOP Storm
        SHOW QUERIES
        quit
        """
        code, capture = run_repl(script)
        assert code == 0
        assert "registered Storm" in capture.text
        assert "ran 4 batch(es)" in capture.text
        assert "altered Storm: rate 5" in capture.text
        assert "stopped Storm" in capture.text
        assert "query sessions" in capture.text
        assert "bye: 7 batches run" in capture.text

    def test_errors_do_not_kill_the_session(self):
        script = """
        STOP Nobody
        nonsense statement
        ACQUIRE unknown_attr FROM RECT(0,0,2,2) RATE 5
        run x
        ACQUIRE rain FROM RECT(0,0,2,2) RATE 5 AS Ok
        run 1
        """
        code, capture = run_repl(script)
        assert code == 0
        assert capture.text.count("error:") == 4
        assert "registered Ok" in capture.text
        assert "ran 1 batch(es)" in capture.text

    def test_help_comments_and_eof(self):
        code, capture = run_repl("# a comment\nhelp\n")
        assert code == 0
        assert "ALTER <name> SET RATE" in capture.text
        assert "bye: 0 batches run" in capture.text

    def test_retention_flag_validation(self):
        code, capture = run_repl("quit\n", "--retention-batches", "0")
        assert code == 1
        assert "retention-batches must be positive" in capture.text

    def test_retention_flag_accepted(self):
        script = "ACQUIRE rain FROM RECT(0,0,2,2) RATE 8 AS Bounded\nrun 6\nSHOW QUERIES\n"
        code, capture = run_repl(script, "--retention-batches", "3")
        assert code == 0
        assert "registered Bounded" in capture.text
        assert "ran 6 batch(es)" in capture.text
        # The session row survives retention eviction with exact totals.
        assert "Bounded" in capture.text.split("query sessions")[1]

    def test_repl_continuous_views_round_trip(self):
        script = """
        ACQUIRE rain FROM RECT(0,0,2,2) AT RATE 8 PER KM2 PER MIN AS Storm
        CREATE VIEW Tiles ON Storm AS AVG(value) GROUP BY CELL WINDOW 2
        run 4
        SHOW VIEWS
        SHOW QUERIES
        frames Tiles 2
        DROP VIEW Tiles
        frames Tiles
        """
        code, capture = run_repl(script)
        assert code == 0
        assert "created view Tiles on Storm" in capture.text
        views_table = capture.text.split("continuous views")[1]
        assert "Tiles" in views_table and "live" in views_table
        # The extended session row reflects the attached view count.
        sessions_table = capture.text.split("query sessions")[1]
        assert "views" in sessions_table
        assert "view Tiles: AVG(value) GROUP BY CELL WINDOW 2" in capture.text
        assert "dropped view Tiles after 2 frames" in capture.text
        # After DROP the repl can no longer resolve the name (and says so).
        assert "error: no view is named 'Tiles'" in capture.text

    def test_repl_frames_command_errors(self):
        script = """
        frames
        frames Ghost
        frames Ghost nope
        """
        code, capture = run_repl(script)
        assert code == 0
        assert "'frames' takes a view name" in capture.text
        assert "no view is named 'Ghost'" in capture.text
        assert "'frames' takes a count" in capture.text

    def test_health_command_without_resilience(self):
        script = """
        ACQUIRE rain FROM RECT(0,0,2,2) AT RATE 8 PER KM2 PER MIN AS Storm
        run 2
        health Storm
        health
        health Ghost
        """
        code, capture = run_repl(script)
        assert code == 0
        assert "health of Storm (rain)" in capture.text
        assert "rate ewma" in capture.text
        assert "sensor health monitoring is off" in capture.text
        assert "'health' takes exactly one query name" in capture.text
        assert "no registered query is labelled 'Ghost'" in capture.text

    def test_sessions_table_has_health_column(self):
        script = """
        ACQUIRE rain FROM RECT(0,0,2,2) AT RATE 8 PER KM2 PER MIN AS Storm
        run 2
        SHOW QUERIES
        """
        code, capture = run_repl(script)
        assert code == 0
        sessions_table = capture.text.split("query sessions")[1]
        assert "health" in sessions_table
        assert "ok" in sessions_table


class TestFaultScenarios:
    def test_run_flaky_crowd_scenario(self):
        capture = _Capture()
        code = main(
            [
                "run",
                "--scenario",
                "flaky-crowd",
                "--sensors",
                "200",
                "--batches",
                "4",
                "--query",
                "ACQUIRE temp FROM RECT(0,0,3,3) AT RATE 6 PER KM2 PER MIN AS Heat",
            ],
            out=capture,
        )
        assert code == 0
        assert "unreliable crowd" in capture.text
        assert "Heat" in capture.text

    def test_repl_health_on_cell_outage_scenario(self):
        capture = _Capture()
        script = """
        ACQUIRE temp FROM RECT(0,0,2,2) AT RATE 10 PER KM2 PER MIN AS Quad
        run 6
        health Quad
        SHOW QUERIES
        """
        code = main(
            ["repl", "--scenario", "cell-outage", "--sensors", "240", "--seed", "19"],
            out=capture,
            in_stream=io.StringIO(script),
        )
        assert code == 0
        assert "health of Quad (temp)" in capture.text
        assert "quarantined sensors:" in capture.text
        # Six batches in, the outage window is open and responses are lost.
        assert "degraded" in capture.text or "drops" in capture.text


class TestLint:
    """The ``lint`` sub-command: craqr-lint with the 0/1/2 exit contract."""

    def _write_violation(self, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_text(
            "import numpy as np\n\n"
            "def fresh():\n"
            "    return np.random.default_rng()\n"
        )
        return bad

    def test_lint_clean_tree_exits_zero(self, tmp_path):
        clean = tmp_path / "ok.py"
        clean.write_text("import numpy as np\n\nrng = np.random.default_rng(7)\n")
        capture = _Capture()
        code = main(["lint", str(tmp_path), "--baseline", "none"], out=capture)
        assert code == 0
        assert "0 finding(s)" in capture.text

    def test_lint_findings_exit_one(self, tmp_path):
        self._write_violation(tmp_path)
        capture = _Capture()
        code = main(["lint", str(tmp_path), "--baseline", "none"], out=capture)
        assert code == 1
        assert "CRQ103" in capture.text

    def test_lint_missing_path_exits_two(self, tmp_path):
        capture = _Capture()
        code = main(["lint", str(tmp_path / "nope"), "--baseline", "none"], out=capture)
        assert code == 2
        assert "no such path" in capture.text

    def test_lint_usage_error_exits_two(self):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["lint", "--format", "xml"])
        assert excinfo.value.code == 2

    def test_lint_json_format(self, tmp_path):
        import json

        self._write_violation(tmp_path)
        capture = _Capture()
        code = main(
            ["lint", str(tmp_path), "--baseline", "none", "--format", "json"],
            out=capture,
        )
        assert code == 1
        payload = json.loads(capture.text)
        assert payload["ok"] is False
        assert payload["findings"][0]["code"] == "CRQ103"

    def test_lint_baseline_waives_then_reports_stale(self, tmp_path):
        bad = self._write_violation(tmp_path)
        baseline = tmp_path / "craqr-baseline.json"
        capture = _Capture()
        code = main(
            ["lint", str(tmp_path), "--baseline", str(baseline), "--write-baseline"],
            out=capture,
        )
        assert code == 0

        bad.write_text("import numpy as np\n\nrng = np.random.default_rng(7)\n")
        capture = _Capture()
        code = main(["lint", str(tmp_path), "--baseline", str(baseline)], out=capture)
        assert code == 1
        assert "CRQ002" in capture.text

    def test_lint_explain_lists_rules(self):
        capture = _Capture()
        code = main(["lint", "--explain"], out=capture)
        assert code == 0
        for family_example in ("CRQ101", "CRQ201", "CRQ302", "CRQ404", "CRQ503"):
            assert family_example in capture.text

    def test_lint_default_scan_is_clean(self):
        """Linting the installed package with the repo baseline passes."""
        capture = _Capture()
        assert main(["lint"], out=capture) == 0

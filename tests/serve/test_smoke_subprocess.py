"""Serve smoke: a real subprocess server driven by a scripted client.

This is the CI serve-smoke job: start ``python -m repro.cli serve`` as a
subprocess, parse the banner for the ephemeral port, run a scripted
session (DDL, batches, a push subscription, a pull fetch), shut the
server down cleanly and assert a zero exit code with no tracebacks on
stderr.
"""

from __future__ import annotations

import pathlib
import re
import subprocess
import sys
import time

import pytest

SRC = pathlib.Path(__file__).resolve().parents[2] / "src"

BANNER = re.compile(r"serving craqr/2 on ([0-9.]+):(\d+)")


@pytest.fixture
def server_process():
    proc = subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro.cli",
            "serve",
            "--scenario",
            "rain-temperature",
            "--sensors",
            "60",
            "--seed",
            "3",
            "--port",
            "0",
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env={"PYTHONPATH": str(SRC), "PYTHONUNBUFFERED": "1", "PATH": "/usr/bin:/bin"},
    )
    try:
        yield proc
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait(timeout=30)


def read_banner(proc) -> tuple:
    """Lines up to and including the banner; returns (host, port)."""
    deadline = time.monotonic() + 60
    while time.monotonic() < deadline:
        line = proc.stdout.readline()
        if not line:
            raise AssertionError(
                f"server exited before its banner: {proc.stderr.read()}"
            )
        match = BANNER.search(line)
        if match:
            return match.group(1), int(match.group(2))
    raise AssertionError("no banner within 60 seconds")


def test_subprocess_server_scripted_session(server_process):
    sys.path.insert(0, str(SRC))
    from repro.serve import ServeClient
    from repro.streams.codec import decode_tuple_batch, decode_view_frame

    host, port = read_banner(server_process)

    with ServeClient(host, port, timeout=60) as client:
        hello = client.hello()
        assert hello["protocol"] == "craqr/2"
        assert hello["queries"] == []

        rows = client.execute(
            "ACQUIRE rain FROM RECT(0, 0, 2, 2) AT RATE 8 PER KM2 PER MIN AS Q1; "
            "CREATE VIEW Tiles ON Q1 AS AVG(value) GROUP BY CELL WINDOW 2; "
            "SHOW QUERIES"
        )
        assert [r["ok"] for r in rows] == [True, True, True]
        assert rows[0]["query"]["label"] == "Q1"
        assert rows[1]["view"]["name"] == "Tiles"

        sub = client.subscribe(view="Tiles")
        run = client.run(4)
        assert run["batches_run"] == 4 and run["tuples_delivered"] > 0

        header, payload = client.next_event(timeout=60)
        assert header["event"] == "frame" and header["sub"] == sub["sub"]
        assert decode_view_frame(payload).frame_index == 0

        reply, payload = client.fetch(query="Q1")
        assert reply["count"] == len(decode_tuple_batch(payload)) > 0

        assert client.shutdown()["stopping"] is True

    stdout, stderr = server_process.communicate(timeout=60)
    assert server_process.returncode == 0
    assert "serve done: 4 batches run" in stdout
    assert "Traceback" not in stderr, stderr

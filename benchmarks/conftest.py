"""Shared fixtures for the benchmark harness.

Every benchmark regenerates one of the paper's figures or quantitative
claims (see DESIGN.md section 3 and EXPERIMENTS.md).  The reproduced tables
are printed to stdout and also written to ``benchmarks/results/`` so the
numbers quoted in EXPERIMENTS.md can be re-derived.

Scalar performance metrics recorded through the ``record_metric`` fixture
are additionally aggregated into ``BENCH_columnar.json`` at the repository
root at the end of the session, so the perf trajectory (e.g. the columnar
fast path's speedup) is tracked across PRs; metrics from the sensing-world
benchmarks go through ``record_world_metric`` into ``BENCH_world.json``,
session-surface metrics through ``record_session_metric`` into
``BENCH_session.json``, continuous-view metrics through
``record_view_metric`` into ``BENCH_views.json``, fault-scenario
metrics through ``record_scenario_metric`` into ``BENCH_scenarios.json``,
checkpoint/restore metrics through ``record_recovery_metric`` into
``BENCH_recovery.json`` and serving-layer metrics through
``record_serve_metric`` into ``BENCH_serve.json``.
"""

from __future__ import annotations

import json
import pathlib
import platform
from typing import Dict

import pytest

from repro.recovery import atomic_write_text

RESULTS_DIR = pathlib.Path(__file__).parent / "results"
BENCH_JSON = pathlib.Path(__file__).parent.parent / "BENCH_columnar.json"
BENCH_WORLD_JSON = pathlib.Path(__file__).parent.parent / "BENCH_world.json"
BENCH_SESSION_JSON = pathlib.Path(__file__).parent.parent / "BENCH_session.json"
BENCH_VIEWS_JSON = pathlib.Path(__file__).parent.parent / "BENCH_views.json"
BENCH_SCENARIOS_JSON = pathlib.Path(__file__).parent.parent / "BENCH_scenarios.json"
BENCH_RECOVERY_JSON = pathlib.Path(__file__).parent.parent / "BENCH_recovery.json"
BENCH_SERVE_JSON = pathlib.Path(__file__).parent.parent / "BENCH_serve.json"


@pytest.fixture(scope="session")
def results_dir() -> pathlib.Path:
    """Directory the reproduced tables are written to."""
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


@pytest.fixture
def record_table(results_dir):
    """Return a callable that prints a ResultTable and persists it to disk."""

    def _record(name: str, table) -> None:
        text = table.render()
        print("\n" + text)
        (results_dir / f"{name}.txt").write_text(text + "\n")

    return _record


#: Session-wide accumulators behind the ``record_metric`` fixtures.
_METRIC_STORE: Dict[str, dict] = {}
_WORLD_METRIC_STORE: Dict[str, dict] = {}
_SESSION_METRIC_STORE: Dict[str, dict] = {}
_VIEWS_METRIC_STORE: Dict[str, dict] = {}
_SCENARIO_METRIC_STORE: Dict[str, dict] = {}
_RECOVERY_METRIC_STORE: Dict[str, dict] = {}
_SERVE_METRIC_STORE: Dict[str, dict] = {}


def _make_recorder(store: Dict[str, dict]):
    def _record(name: str, value: float, *, unit: str = "", detail: dict = None) -> None:
        store[name] = {
            "value": float(value),
            "unit": unit,
            "detail": detail or {},
        }

    return _record


@pytest.fixture
def record_metric():
    """Return a callable recording one scalar benchmark metric.

    Metrics land in ``BENCH_columnar.json`` when the session ends (see
    :func:`pytest_sessionfinish` below).
    """
    return _make_recorder(_METRIC_STORE)


@pytest.fixture
def record_world_metric():
    """Like ``record_metric`` but routed to ``BENCH_world.json``.

    Used by the sensing-world benchmarks (``bench_world_advance.py``) so
    the simulation perf trajectory is tracked separately from the query
    pipeline's.
    """
    return _make_recorder(_WORLD_METRIC_STORE)


@pytest.fixture
def record_session_metric():
    """Like ``record_metric`` but routed to ``BENCH_session.json``.

    Used by the query-session benchmarks (``bench_session_api.py``) so the
    session-surface perf trajectory (cursor read cost, retention overhead)
    is tracked separately from the pipeline's and the simulator's.
    """
    return _make_recorder(_SESSION_METRIC_STORE)


@pytest.fixture
def record_view_metric():
    """Like ``record_metric`` but routed to ``BENCH_views.json``.

    Used by the continuous-view benchmarks (``bench_views.py``) so the
    serving-surface perf trajectory (incremental maintenance speedup,
    frame-cursor read cost) is tracked separately.
    """
    return _make_recorder(_VIEWS_METRIC_STORE)


@pytest.fixture
def record_scenario_metric():
    """Like ``record_metric`` but routed to ``BENCH_scenarios.json``.

    Used by the fault-injection benchmarks (``bench_faults.py``) so the
    fault-scenario throughput and the zero-fault overhead of the
    resilience stack are tracked separately from the healthy-path
    trajectories.
    """
    return _make_recorder(_SCENARIO_METRIC_STORE)


@pytest.fixture
def record_recovery_metric():
    """Like ``record_metric`` but routed to ``BENCH_recovery.json``.

    Used by the checkpoint/restore benchmarks (``bench_checkpoint.py``) so
    the recovery-path trajectory (snapshot latency, file size, periodic-
    checkpoint overhead) is tracked separately.
    """
    return _make_recorder(_RECOVERY_METRIC_STORE)


@pytest.fixture
def record_serve_metric():
    """Like ``record_metric`` but routed to ``BENCH_serve.json``.

    Used by the serving-layer benchmarks (``bench_serve.py``) so the
    fan-out trajectory (serialize-once encode counts, per-subscriber
    publish cost, stalled-client isolation) is tracked separately.
    """
    return _make_recorder(_SERVE_METRIC_STORE)


def _persist(path: pathlib.Path, store: Dict[str, dict]) -> None:
    existing = {}
    if path.exists():
        try:
            existing = json.loads(path.read_text())
        except (ValueError, OSError):  # pragma: no cover - corrupt file
            existing = {}
    metrics = existing.get("metrics", {})
    metrics.update(store)
    payload = {
        "python": platform.python_version(),
        "machine": platform.machine(),
        "metrics": metrics,
    }
    # The same temp-file + fsync + rename writer the checkpoint files use:
    # an interrupted benchmark session can never leave a torn BENCH_*.json
    # behind for the cross-PR trajectory tooling to choke on.
    atomic_write_text(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


@pytest.hookimpl(trylast=True)
def pytest_sessionfinish(session, exitstatus):
    if exitstatus != 0:
        # Never let a failed or interrupted run overwrite the tracked
        # cross-PR perf trajectory with partial numbers.
        return
    if _METRIC_STORE:
        _persist(BENCH_JSON, _METRIC_STORE)
    if _WORLD_METRIC_STORE:
        _persist(BENCH_WORLD_JSON, _WORLD_METRIC_STORE)
    if _SESSION_METRIC_STORE:
        _persist(BENCH_SESSION_JSON, _SESSION_METRIC_STORE)
    if _VIEWS_METRIC_STORE:
        _persist(BENCH_VIEWS_JSON, _VIEWS_METRIC_STORE)
    if _SCENARIO_METRIC_STORE:
        _persist(BENCH_SCENARIOS_JSON, _SCENARIO_METRIC_STORE)
    if _RECOVERY_METRIC_STORE:
        _persist(BENCH_RECOVERY_JSON, _RECOVERY_METRIC_STORE)
    if _SERVE_METRIC_STORE:
        _persist(BENCH_SERVE_JSON, _SERVE_METRIC_STORE)

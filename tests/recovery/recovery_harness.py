"""Shared builders for the recovery suite.

Every test in ``tests/recovery/`` runs the same workload — the flaky
crowd (every fault class firing, full mitigation bundle) serving one
query with one continuous view — so the determinism assertions compare
maximally stateful engines: per-sensor RNG streams, retry/quarantine
bookkeeping, degradation EWMAs, budget-tuner history, buffer chunks and
view pane partials all participate in every digest.

``engine_digest`` is the byte-identity oracle: it folds the delivered
streams (every tuple field), the emitted view frames (keys, values and
counts as raw bytes), the retained engine reports, the last batch's
violation set and the lifetime totals into one SHA-256.  Two engines with
equal digests delivered the same bytes to every consumer.
"""

from __future__ import annotations

import hashlib
from dataclasses import replace

import repro.core.query as _query_module
from repro.config import CheckpointConfig
from repro.core import CraqrEngine
from repro.core.query import QueryIdAllocator
from repro.geometry import Rectangle
from repro.sensing import (
    BernoulliParticipation,
    RainField,
    RandomWaypointMobility,
    SensingWorld,
    TemperatureField,
    WorldConfig,
)
from repro.workloads import (
    default_engine_config,
    default_resilience_config,
    flaky_crowd_plan,
)

REGION = Rectangle(0.0, 0.0, 4.0, 4.0)


def simulate_fresh_process() -> None:
    """Reset the process-wide query-id allocator, as a new process would.

    The recovery contract compares runs that would live in *separate*
    processes (run A uninterrupted, run B crash + restore), but the test
    suite hosts both in one interpreter.  The only process-global the
    engine touches is the query-id allocator; resetting it before each
    simulated run makes query ids — which participate in every digest —
    start from 1 exactly like a fresh ``python -m repro.cli`` would.
    """
    _query_module._query_ids = QueryIdAllocator()

QUERY = "ACQUIRE rain FROM RECT(0, 0, 2, 2) AT RATE 8 PER KM2 PER MIN AS Storm"
SECOND_QUERY = "ACQUIRE temp FROM RECT(1, 1, 3, 3) AT RATE 6 PER KM2 PER MIN AS Heat"
VIEW = "CREATE VIEW Rain ON Storm AS AVG(value) GROUP BY CELL WINDOW 2"


def make_world(
    *,
    vectorized: bool = False,
    sensor_count: int = 80,
    seed: int = 11,
    participation=None,
) -> SensingWorld:
    """A small flaky-crowd world (strict per-sensor RNGs unless ``vectorized``).

    ``participation`` is the world's participation factory; by default
    every sensor is a ``BernoulliParticipation(0.6, mean_latency=0.1)``.
    """
    world = SensingWorld(
        WorldConfig(
            region=REGION,
            sensor_count=sensor_count,
            seed=seed,
            vectorized_rng=vectorized,
        ),
        mobility_factory=lambda r: RandomWaypointMobility(r, speed=0.25, pause=0.5),
        participation_factory=participation
        or (lambda sensor_id: BernoulliParticipation(0.6, mean_latency=0.1)),
    )
    world.register_field(RainField(REGION, band_width=1.2, period=60.0))
    world.register_field(TemperatureField(REGION))
    return world


def make_engine(
    *,
    checkpoint_dir=None,
    every: int = 2,
    retain: int = 3,
    vectorized: bool = False,
    retention_batches=None,
    faults: bool = True,
    view: bool = True,
    online_estimation: bool = False,
    sensor_count: int = 80,
    participation=None,
) -> CraqrEngine:
    """A fully loaded engine: flaky-crowd faults + mitigation, query + view.

    Each call models a fresh process (see :func:`simulate_fresh_process`),
    so run A and run B of the recovery contract never share a query-id
    sequence.
    """
    simulate_fresh_process()
    config = replace(
        default_engine_config(retention_batches=retention_batches),
        online_estimation=online_estimation,
    )
    if faults:
        config = replace(
            config,
            faults=flaky_crowd_plan(),
            resilience=default_resilience_config(),
        )
    if checkpoint_dir is not None:
        config = replace(
            config,
            checkpoints=CheckpointConfig(
                directory=str(checkpoint_dir), every=every, retain=retain
            ),
        )
    engine = CraqrEngine(
        config,
        make_world(
            vectorized=vectorized, sensor_count=sensor_count, participation=participation
        ),
    )
    engine.execute(QUERY)
    if view:
        engine.execute(VIEW)
    return engine


def restore_latest_fresh(directory) -> CraqrEngine:
    """Restore the newest checkpoint the way a recovery process would.

    Resets the query-id allocator first (a real recovery runs in a brand
    new process); the restore itself then advances the allocator to the
    snapshot's high-water mark, so post-restore registrations continue the
    id sequence exactly where the crashed run left it.
    """
    simulate_fresh_process()
    return CraqrEngine.restore_latest(directory)


def engine_digest(engine: CraqrEngine) -> str:
    """SHA-256 over everything the engine has served its consumers."""
    h = hashlib.sha256()
    for handle in sorted(engine.query_handles(), key=lambda hd: hd.query_id):
        h.update(f"query:{handle.query_id}:{handle.query.label}".encode())
        for t in handle.results():
            h.update(
                repr(
                    (
                        t.tuple_id,
                        t.attribute,
                        t.sensor_id,
                        float(t.t),
                        float(t.x),
                        float(t.y),
                        None if t.value is None else float(t.value),
                    )
                ).encode()
            )
        h.update(
            repr((handle.buffer.total_tuples, handle.buffer.batches_completed)).encode()
        )
    for vh in sorted(engine.view_handles(), key=lambda v: v.name):
        h.update(f"view:{vh.name}".encode())
        for frame in vh.frames():
            keys = [tuple(k) if isinstance(k, tuple) else str(k) for k in frame.keys]
            h.update(
                repr(
                    (
                        frame.frame_index,
                        float(frame.window_start),
                        float(frame.window_end),
                        keys,
                    )
                ).encode()
            )
            h.update(frame.values.tobytes())
            h.update(frame.counts.tobytes())
    for report in engine.reports:
        h.update(
            repr(
                (
                    report.batch_index,
                    report.handler.responses_received,
                    report.tuples_delivered,
                    sorted(report.degraded_pairs),
                )
            ).encode()
        )
    for v in sorted(engine.violations(), key=lambda v: (v.attribute, v.cell)):
        h.update(
            repr(
                (v.attribute, v.cell, float(v.violation_percent), v.fault_attributed)
            ).encode()
        )
    h.update(
        repr(
            (
                engine.batches_run,
                engine.total_requests_sent(),
                engine.total_tuples_acquired(),
                engine.total_tuples_delivered(),
            )
        ).encode()
    )
    return h.hexdigest()


def online_estimator_states(engine: CraqrEngine) -> dict:
    """``(cell, attribute) -> (theta bytes, updates, events-per-window EWMA)``.

    The complete mutable state of every Flatten's online SGD estimator
    (engines built with ``online_estimation=True``).
    """
    states = {}
    for key in engine.planner.materialized_cells:
        cell = engine.planner.cell_topology(key)
        for attribute in cell.attributes:
            estimator = cell.chain(attribute).flatten._online_estimator
            states[key, attribute] = (
                estimator._theta.tobytes(),
                estimator._updates,
                estimator._events_in_window,
            )
    return states


def run_to(engine: CraqrEngine, batches: int) -> CraqrEngine:
    """Advance the engine to a total batch count and return it."""
    while engine.batches_run < batches:
        engine.run_batch()
    return engine

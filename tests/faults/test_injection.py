"""Fault injection: stream isolation and reproducibility.

The load-bearing contract is **stream isolation**: the injector owns a
private generator, so an engine with no :class:`FaultPlan` configured is
seeded byte-identical to a build where the fault subsystem does not exist
(pinned here by a golden stream hash), and a given plan seed replays the
same fault history regardless of the crowd.
"""

import hashlib
from dataclasses import replace

import numpy as np

from repro.core import CraqrEngine
from repro.faults import FaultInjector, FaultPlan
from repro.workloads import (
    build_rain_temperature_world,
    default_engine_config,
    default_resilience_config,
    flaky_crowd_plan,
)

#: sha256 of the delivered streams of the reference two-query strict run
#: with no fault subsystem involved.  A fault-free engine must reproduce it
#: bit for bit.  (Pinned before the fault subsystem existed; re-pinned by
#: the Newton MLE, from ``e66d8d1a...``, by keyed strict answers in fused
#: rounds, from ``413174e0...``, by keyed strict movement through the
#: kernels, from ``83867ce6...``, by keyed placement with sensing-time
#: stamps and batch-window fits, from ``be12ffa2...``, and by the kernels'
#: ``sqrt(dx*dx + dy*dy)`` distance, from ``9cbe2ce5...``.)
GOLDEN_STREAM_HASH = "d4e5c018023434b1451c56fd2fe712f445cd5243cbacd0edf00ee5624d701a6a"


def run_reference_engine(*, faults=None, resilience=None):
    world = build_rain_temperature_world(sensor_count=120, seed=11)
    config = replace(
        default_engine_config(seed=7),
        faults=faults,
        resilience=resilience,
    )
    engine = CraqrEngine(config, world)
    h1 = engine.execute(
        "ACQUIRE rain FROM RECT(0,0,2.5,2.5) AT RATE 8 PER KM2 PER MIN AS Storm"
    )
    h2 = engine.execute(
        "ACQUIRE temp FROM RECT(1,1,4,4) AT RATE 6 PER KM2 PER MIN AS Heat"
    )
    engine.run(8)
    return engine, h1, h2


def stream_hash(*handles):
    digest = hashlib.sha256()
    for handle in handles:
        for item in handle.results():
            digest.update(
                repr(
                    (
                        item.tuple_id,
                        item.attribute,
                        round(item.t, 9),
                        round(item.x, 9),
                        round(item.y, 9),
                        item.value,
                        item.sensor_id,
                    )
                ).encode()
            )
    return digest.hexdigest()


class _StateShim:
    """Just enough of SensorStateArrays for a standalone injector."""

    def __init__(self, count):
        self._count = count

    def __len__(self):
        return self._count


class TestNoFaultByteIdentity:
    def test_fault_free_engine_matches_golden_stream(self):
        _, h1, h2 = run_reference_engine()
        assert stream_hash(h1, h2) == GOLDEN_STREAM_HASH


class TestSeededReproducibility:
    def test_same_plan_seed_replays_the_same_fault_history(self):
        plan = flaky_crowd_plan(seed=23)
        resilience = default_resilience_config()
        runs = []
        for _ in range(2):
            engine, h1, h2 = run_reference_engine(faults=plan, resilience=resilience)
            injector = engine.fault_injector
            report = engine.reports[-1].handler
            runs.append(
                (
                    stream_hash(h1, h2),
                    injector.requests_seen,
                    injector.drops_injected,
                    injector.outliers_injected,
                    injector.stuck_replays,
                    injector.latencies_inflated,
                    report.timeouts,
                    report.retries_sent,
                )
            )
        assert runs[0] == runs[1]

    def test_faults_actually_fire(self):
        engine, _, _ = run_reference_engine(
            faults=flaky_crowd_plan(seed=23),
            resilience=default_resilience_config(),
        )
        injector = engine.fault_injector
        assert injector.drops_injected > 0
        assert injector.outliers_injected > 0
        assert injector.latencies_inflated > 0
        totals = [r.handler for r in engine.reports]
        assert sum(r.timeouts for r in totals) > 0
        assert sum(r.retries_sent for r in totals) > 0


class TestInjectorUnits:
    def _wave(self, injector, attribute, values, *, rows=None, times=None):
        n = len(values)
        rows = np.arange(n) if rows is None else np.asarray(rows)
        times = np.zeros(n) if times is None else np.asarray(times)
        return injector.apply_round(
            attribute,
            rows=rows,
            request_times=times,
            segments=np.zeros(n, dtype=np.int64),
            cell_keys=((0, 0),),
            responded=np.ones(n, dtype=bool),
            latencies=np.full(n, 0.1),
            values=np.asarray(values),
        )

    def test_stuck_sensor_replays_its_first_value(self):
        plan = FaultPlan(seed=1, stuck_fraction=1.0)
        injector = FaultInjector(plan, _StateShim(4))
        assert injector.stuck_rows.tolist() == [0, 1, 2, 3]
        first = self._wave(injector, "temp", [1.0, 2.0, 3.0, 4.0])
        # The first wave only seeds the replay values.
        assert first.values.tolist() == [1.0, 2.0, 3.0, 4.0]
        assert injector.stuck_replays == 0
        second = self._wave(injector, "temp", [9.0, 9.0, 9.0, 9.0])
        assert second.values.tolist() == [1.0, 2.0, 3.0, 4.0]
        assert injector.stuck_replays == 4
        # Replay state is per attribute: a fresh attribute seeds anew.
        other = self._wave(injector, "rain", [True, False, True, False])
        assert other.values.tolist() == [True, False, True, False]

    def test_outliers_spike_floats_only(self):
        plan = FaultPlan(seed=2, outlier_probability=1.0, outlier_scale=100.0)
        injector = FaultInjector(plan, _StateShim(8))
        floats = self._wave(injector, "temp", np.full(8, 20.0))
        assert np.all(np.abs(floats.values - 20.0) == 100.0)
        assert injector.outliers_injected == 8
        bools = self._wave(injector, "rain", np.zeros(8, dtype=bool))
        assert bools.values.dtype.kind == "b"
        assert injector.outliers_injected == 8  # unchanged

    def test_clock_skew_is_bounded(self):
        plan = FaultPlan(seed=3, clock_skew_max=0.25)
        injector = FaultInjector(plan, _StateShim(64))
        outcome = self._wave(injector, "temp", np.linspace(0.0, 1.0, 64))
        assert outcome.skew is not None
        assert np.all(np.abs(outcome.skew) <= 0.25)

    def test_outage_drops_only_inside_window_and_cells(self):
        from repro.faults import CellOutage

        plan = FaultPlan(
            seed=4,
            outages=(CellOutage(start=1.0, end=2.0, cells=((0, 0),)),),
        )
        injector = FaultInjector(plan, _StateShim(6))
        n = 6
        outcome = injector.apply_round(
            "temp",
            rows=np.arange(n),
            request_times=np.array([0.5, 1.5, 1.5, 1.5, 2.5, 1.5]),
            segments=np.array([0, 0, 0, 0, 0, 1]),
            cell_keys=((0, 0), (1, 1)),
            responded=np.ones(n, dtype=bool),
            latencies=np.full(n, 0.1),
            values=np.full(n, 20.0),
        )
        # Only requests 1..3 target the dead cell inside the window.
        assert outcome.dropped.tolist() == [False, True, True, True, False, False]

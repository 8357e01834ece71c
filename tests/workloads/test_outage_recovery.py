"""End-to-end degradation and recovery acceptance for the fault scenarios.

The headline regression: on a stationary crowd whose lower-left cells go
dark (``cell_outage_plan``), the mitigation stack (deadline + retries + quarantine with probation + degradation-aware
budget freezing) recovers at least 90% of the pre-outage delivered rate
within a few batches of the outage ending, while the mitigation-disabled
baseline — identical faults, but permanent quarantine — never recovers at
all.  The shortfall during the outage must be *fault-attributed* in
``violations()``, not mistaken for planner error.
"""

from dataclasses import replace

from repro.core import CraqrEngine
from repro.workloads import (
    build_rain_temperature_world,
    build_stationary_world,
    cell_outage_plan,
    default_engine_config,
    default_resilience_config,
    flaky_crowd_plan,
)

OUTAGE_QUERY = "ACQUIRE temp FROM RECT(0,0,2,2) AT RATE 10 PER KM2 PER MIN AS Quad"
#: Outage window in batches (duration 1.0 each): dark during [4, 10).
OUTAGE_START_BATCH = 4
OUTAGE_END_BATCH = 10
RECOVERY_DEADLINE_BATCH = 13  # within 3 batches of the lights coming back


def outage_engine(*, mitigation):
    """240 stationary sensors; the outage of ``cell_outage_plan`` from t=4 to t=10.

    ``mitigation=False`` makes quarantine permanent (no probation).
    """
    config = replace(
        default_engine_config(),
        faults=cell_outage_plan(seed=29, start=4.0, end=10.0),
        resilience=default_resilience_config(probation=mitigation),
    )
    engine = CraqrEngine(config, build_stationary_world(sensor_count=240, seed=19))
    engine.execute(OUTAGE_QUERY)
    return engine


def run_outage(*, mitigation, batches=24):
    engine = outage_engine(mitigation=mitigation)
    delivered = []
    for _ in range(batches):
        report = engine.run_batch()
        delivered.append(report.tuples_delivered)
    return engine, delivered


class TestCellOutageRecovery:
    def test_mitigated_engine_recovers_after_the_outage(self):
        engine, delivered = run_outage(mitigation=True)
        baseline = sum(delivered[:OUTAGE_START_BATCH - 1]) / (OUTAGE_START_BATCH - 1)
        assert baseline > 0
        # The outage actually bites: the dark quadrant serves the whole
        # query region, so deliveries collapse while it lasts.
        mid_outage = delivered[OUTAGE_START_BATCH + 1 : OUTAGE_END_BATCH]
        assert max(mid_outage) < 0.25 * baseline
        # ... and recovery reaches >= 90% of the pre-outage rate within
        # three batches of the outage ending.
        recovery_window = delivered[OUTAGE_END_BATCH:RECOVERY_DEADLINE_BATCH]
        assert max(recovery_window) >= 0.9 * baseline
        # Once recovered, it stays recovered.
        tail = delivered[RECOVERY_DEADLINE_BATCH:]
        assert sum(tail) / len(tail) >= 0.75 * baseline

    def test_disabled_mitigation_never_recovers(self):
        engine, delivered = run_outage(mitigation=False)
        baseline = sum(delivered[:OUTAGE_START_BATCH - 1]) / (OUTAGE_START_BATCH - 1)
        assert baseline > 0
        # Permanent quarantine: every stationary sensor that failed during
        # the outage is gone for good, so nothing is delivered again.
        assert sum(delivered[OUTAGE_END_BATCH:]) == 0
        summary = engine.health_monitor.summary()
        assert summary.quarantined > 0
        assert summary.released == 0

    def test_outage_shortfall_is_fault_attributed(self):
        engine = outage_engine(mitigation=True)
        engine.run(OUTAGE_START_BATCH + 4)  # well inside the dark window
        degraded = engine.degraded_pairs()
        assert degraded  # the dead cells are flagged
        assert all(attribute == "temp" for attribute, _ in degraded)
        violations = engine.violations()
        attributed = [v for v in violations if v.fault_attributed]
        assert attributed
        for violation in attributed:
            assert (violation.attribute, violation.cell) in degraded
            assert violation.response_rate is not None
            assert violation.response_rate < 0.25
        # The frozen pairs' budget delta was redistributed, so at least one
        # decision this batch is marked fault-attributed too.
        decisions = engine.reports[-1].budget_decisions
        assert any(d.fault_attributed for d in decisions)

    def test_sessions_surface_degraded_cells(self):
        engine = outage_engine(mitigation=True)
        engine.run(OUTAGE_START_BATCH + 4)
        (info,) = engine.sessions()
        assert info.degraded_pairs
        assert set(info.degraded_pairs) == {
            cell for _, cell in engine.degraded_pairs()
        }


class TestFlakyCrowdScenario:
    def test_mitigation_holds_rates_within_ten_percent(self):
        config = replace(
            default_engine_config(),
            faults=flaky_crowd_plan(seed=23),
            resilience=default_resilience_config(),
        )
        engine = CraqrEngine(config, build_rain_temperature_world(sensor_count=300, seed=11))
        storm = engine.execute(
            "ACQUIRE rain FROM RECT(0,0,2.5,2.5) AT RATE 8 PER KM2 PER MIN AS Storm"
        )
        heat = engine.execute(
            "ACQUIRE temp FROM RECT(1,1,4,4) AT RATE 6 PER KM2 PER MIN AS Heat"
        )
        engine.run(12)
        for handle in (storm, heat):
            estimate = handle.achieved_rate()
            assert estimate.achieved_rate >= 0.9 * estimate.requested_rate
        # Every configured fault class actually fired ...
        injector = engine.fault_injector
        assert injector.drops_injected > 0
        assert injector.outliers_injected > 0
        assert injector.stuck_replays > 0
        assert injector.latencies_inflated > 0
        # ... and the mitigation stack visibly worked against it.
        assert sum(r.handler.timeouts for r in engine.reports) > 0
        assert sum(r.handler.retries_sent for r in engine.reports) > 0
        summary = engine.health_monitor.summary()
        assert summary.quarantine_events > 0
        assert summary.released > 0  # probation keeps the crowd alive

    def test_moving_outage_sweeps_columns(self):
        outages = cell_outage_plan(moving=True).outages
        assert len(outages) > 1
        covered = [outage.cells for outage in outages]
        # Each window blacks out a different column of cells.
        assert len({cells for cells in covered}) == len(covered)

"""Retry budgeting, pay-on-accept incentives and sensor-health round-trips.

The retry contract is exact, not statistical: a cell's budget bounds its
*lifetime* request count for the round across all waves, and with a retry
policy configured the incentive ledger holds exactly one payment per
accepted response.  The health monitor's quarantine / probation cycle is
driven here directly with synthetic waves, then end-to-end through a
handler whose crowd contains sensors a fault plan has broken.
"""

import numpy as np
import pytest

from repro.faults import (
    FaultPlan,
    HealthConfig,
    ResilienceConfig,
    RetryPolicy,
    SensorHealthMonitor,
)
from repro.geometry import Grid, Rectangle
from repro.sensing import (
    BernoulliParticipation,
    FlatIncentive,
    RainField,
    RandomWaypointMobility,
    RequestResponseHandler,
    SensingWorld,
    TemperatureField,
    WorldConfig,
)

REGION = Rectangle(0.0, 0.0, 4.0, 4.0)


def make_world(*, vectorized=False, sensor_count=600, seed=31, probability=0.8):
    world = SensingWorld(
        WorldConfig(
            region=REGION,
            sensor_count=sensor_count,
            seed=seed,
            vectorized_rng=vectorized,
        ),
        mobility_factory=lambda r: RandomWaypointMobility(r, speed=0.4),
        participation_factory=lambda i: BernoulliParticipation(
            probability, mean_latency=0.05
        ),
    )
    world.register_field(RainField(REGION))
    world.register_field(TemperatureField(REGION))
    return world


def make_handler(world, *, budget=40, incentive=None, faults=None, resilience=None):
    grid = Grid(REGION, side=4)
    from repro.faults import FaultInjector

    injector = (
        FaultInjector(faults, world.state_arrays) if faults is not None else None
    )
    health = (
        SensorHealthMonitor(resilience.health, world.state_arrays)
        if resilience is not None and resilience.health is not None
        else None
    )
    return RequestResponseHandler(
        world,
        grid,
        default_budget=budget,
        incentive=incentive,
        faults=injector,
        resilience=resilience,
        health=health,
    )


def run_rounds(handler, world, attribute, rounds=4, duration=1.0):
    cells = list(handler.grid.cells())
    reports = []
    for _ in range(rounds):
        _, report = handler.acquire({attribute: cells}, duration=duration)
        world.advance(duration)
        reports.append(report)
    return reports


DROPPY = FaultPlan(seed=5, drop_probability=0.5)
RETRYING = ResilienceConfig(
    deadline=0.4,
    retry=RetryPolicy(max_attempts=3, reserve_fraction=0.25),
    health=None,
)


@pytest.mark.parametrize("vectorized", [False, True])
class TestRetryBudgetExactness:
    def test_budget_bounds_requests_across_waves(self, vectorized):
        world = make_world(vectorized=vectorized)
        handler = make_handler(world, budget=40, faults=DROPPY, resilience=RETRYING)
        reports = run_rounds(handler, world, "temp")
        assert sum(r.retries_sent for r in reports) > 0
        for report in reports:
            for pair, sent in report.per_cell_requests.items():
                assert sent <= handler.budget_for(*pair)

    def test_incentives_paid_only_for_accepted_responses(self, vectorized):
        world = make_world(vectorized=vectorized)
        incentive = FlatIncentive(0.25)
        handler = make_handler(
            world, budget=40, incentive=incentive,
            faults=DROPPY, resilience=RETRYING,
        )
        reports = run_rounds(handler, world, "temp")
        accepted = sum(r.responses_received for r in reports)
        assert incentive.payments == accepted
        assert incentive.total_spent == pytest.approx(0.25 * accepted)

    def test_reserve_never_swallows_the_whole_budget(self, vectorized):
        world = make_world(vectorized=vectorized, probability=0.95)
        # With a tiny budget, floor(budget * fraction) clamps to budget - 1
        # at most, so the first wave always sends at least one request.
        handler = make_handler(
            world,
            budget=2,
            faults=FaultPlan(seed=6, drop_probability=0.9),
            resilience=ResilienceConfig(
                retry=RetryPolicy(max_attempts=2, reserve_fraction=0.9),
                health=None,
            ),
        )
        reports = run_rounds(handler, world, "temp", rounds=2)
        for report in reports:
            for pair, sent in report.per_cell_requests.items():
                assert 1 <= sent <= handler.budget_for(*pair)


class _SoAShim:
    """Reliability/quarantine columns without a full sensing world."""

    def __init__(self, count):
        self.reliability = np.ones(count)
        self.quarantined = np.zeros(count, dtype=bool)
        self.sensor_ids = np.arange(count)

    def __len__(self):
        return len(self.sensor_ids)


class TestQuarantineRoundTrips:
    CONFIG = HealthConfig(
        ewma_alpha=0.5,
        failure_threshold=0.3,
        min_requests=4,
        quarantine_batches=2,
        probation=True,
        probation_reliability=0.5,
        recovery_threshold=0.6,
        stuck_repeats=3,
    )

    def _fail_rounds(self, monitor, rows, rounds):
        rows = np.asarray(rows)
        for _ in range(rounds):
            monitor.observe(rows, np.zeros(len(rows), dtype=bool))
            monitor.commit_round()

    def test_failure_quarantine_then_probation_release(self):
        state = _SoAShim(8)
        monitor = SensorHealthMonitor(self.CONFIG, state)
        self._fail_rounds(monitor, [0, 1], 4)
        assert state.quarantined[[0, 1]].all()
        assert not state.quarantined[2:].any()
        assert monitor.summary().quarantine_events == 2
        # Serve out the quarantine term: commits without contact.
        monitor.commit_round()
        monitor.commit_round()
        assert not state.quarantined[[0, 1]].any()
        summary = monitor.summary()
        assert summary.released == 2
        assert summary.on_probation == 2
        assert state.reliability[0] == pytest.approx(0.5)

    def test_probation_recovery_clears_the_flag(self):
        state = _SoAShim(4)
        monitor = SensorHealthMonitor(self.CONFIG, state)
        self._fail_rounds(monitor, [0], 4)
        monitor.commit_round()
        monitor.commit_round()
        assert monitor.summary().on_probation == 1
        # A clean round folds 1.0 into the EWMA: 0.5*0.5 + 0.5*1.0 = 0.75.
        monitor.observe(np.array([0]), np.ones(1, dtype=bool))
        monitor.commit_round()
        assert monitor.summary().on_probation == 0
        assert not state.quarantined[0]

    def test_disabled_probation_is_a_permanent_sentence(self):
        config = HealthConfig(
            ewma_alpha=0.5,
            failure_threshold=0.3,
            min_requests=4,
            quarantine_batches=1,
            probation=False,
        )
        state = _SoAShim(4)
        monitor = SensorHealthMonitor(config, state)
        self._fail_rounds(monitor, [0], 4)
        assert state.quarantined[0]
        for _ in range(6):
            monitor.commit_round()
        assert state.quarantined[0]
        assert monitor.summary().released == 0

    def test_a_run_of_unanswered_requests_quarantines_before_the_ewma(self):
        # The EWMA moves once per round: three silent rounds leave it at
        # 0.7**3 = 0.343, above the 0.2 threshold, however many requests
        # went unanswered.  Nine in a row (>= min_requests) quarantine row 0;
        # row 1 answered one request of round two, which resets its run.
        config = HealthConfig(min_requests=8, probation=False)
        state = _SoAShim(4)
        monitor = SensorHealthMonitor(config, state)
        for round_, asked in enumerate((1, 3, 5)):
            rows = np.repeat([0, 1], asked)
            accepted = np.zeros(rows.size, dtype=bool)
            if round_ == 1:
                accepted[-1] = True
            monitor.observe(rows, accepted)
            monitor.commit_round()
            assert state.quarantined[0] == (round_ == 2)
        assert state.reliability[0] == pytest.approx(0.7**3)
        assert not state.quarantined[1:].any()
        assert monitor.summary().quarantine_events == 1

    def test_stuck_readings_trigger_quarantine(self):
        state = _SoAShim(4)
        monitor = SensorHealthMonitor(self.CONFIG, state)
        rows = np.array([0])
        for _ in range(4):
            monitor.observe(rows, np.ones(1, dtype=bool))
            monitor.observe_values("temp", rows, np.array([21.5]))
            monitor.commit_round()
        assert state.quarantined[0]
        assert monitor.summary().stuck_quarantines == 1
        # Boolean streams never feed the detector.
        monitor.observe_values("rain", np.array([1]), np.array([True, True])[:1])
        assert not state.quarantined[1]

    @pytest.mark.parametrize("vectorized", [False, True])
    def test_quarantined_sensors_leave_candidate_populations(self, vectorized):
        world = make_world(vectorized=vectorized, sensor_count=400, probability=0.95)
        handler = make_handler(
            world,
            budget=30,
            resilience=ResilienceConfig(health=HealthConfig(min_requests=1)),
        )
        state = world.state_arrays
        healthy = set(state.sensor_ids[:5].tolist())
        state.quarantined[:] = True
        state.quarantined[:5] = False
        tuples_by_cell, report = handler.acquire(
            {"temp": list(handler.grid.cells())}, duration=1.0
        )
        assert report.requests_sent > 0
        responders = {
            item.sensor_id
            for items in tuples_by_cell.values()
            for item in items
        }
        assert responders  # the healthy remnant still serves the query
        assert responders <= healthy

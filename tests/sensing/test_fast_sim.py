"""Fast-sim mode: statistical equivalence with the strict per-sensor path.

``WorldConfig.vectorized_rng=True`` trades byte-identical per-sensor random
streams for one shared stream, so these tests assert *distributional*
agreement — spatial density of the moved crowd, acquisition response rates —
rather than exact trajectories.  All tolerances are comfortably wide for the
seeded populations used, so the tests are deterministic.
"""

import numpy as np
import pytest

from repro.core.fabricator import StreamFabricator
from repro.core.planner import QueryPlanner
from repro.geometry import Grid, Rectangle
from repro.sensing import (
    AlwaysRespond,
    BernoulliParticipation,
    FatigueParticipation,
    HotspotMobility,
    ParticipationModel,
    RainField,
    RandomWaypointMobility,
    RequestResponseHandler,
    ResponseDecision,
    SensingWorld,
    TemperatureField,
    WorldConfig,
)
from repro.sensing import handler as handler_module
from scaffolding import rows_in

REGION = Rectangle(0.0, 0.0, 4.0, 4.0)


class MoodyParticipation(ParticipationModel):
    """A custom model without stationary params, decided request by request."""

    def decide(self, sensor_id, t, uniforms, *, incentive_multiplier=1.0):
        u_respond, u_latency = uniforms
        if u_respond >= 0.7:
            return ResponseDecision.no_response()
        return ResponseDecision(responds=True, latency=-0.1 * np.log1p(-u_latency))


def make_world(vectorized, *, sensor_count=2000, seed=29, mobility=None, participation=None):
    world = SensingWorld(
        WorldConfig(
            region=REGION,
            sensor_count=sensor_count,
            seed=seed,
            vectorized_rng=vectorized,
        ),
        mobility_factory=mobility or (lambda r: RandomWaypointMobility(r, speed=0.4)),
        participation_factory=participation,
    )
    world.register_field(RainField(REGION))
    world.register_field(TemperatureField(REGION))
    return world


def density_fractions(world, nx=4, ny=4):
    counts = world.density_snapshot(nx, ny).astype(float)
    return counts / counts.sum()


class TestFastSimMobilityStatistics:
    def test_waypoint_position_density_matches_strict(self):
        strict = make_world(False)
        fast = make_world(True)
        strict.advance(25.0)
        fast.advance(25.0)
        # Random-waypoint produces the classic centre-heavy density; both
        # modes must agree cell by cell within a few percent of the crowd.
        diff = np.abs(density_fractions(strict) - density_fractions(fast))
        assert diff.max() < 0.03
        assert np.allclose(
            strict.state_arrays.positions().mean(axis=0),
            fast.state_arrays.positions().mean(axis=0),
            atol=0.15,
        )

    def test_waypoint_arrivals_and_pauses_match_strict(self):
        # The discrete side of the walk, which fast-sim's skip_ahead must
        # not disturb: how often a sensor reaches a waypoint and how much of
        # the crowd is pausing.  Observed at window boundaries the same way
        # in both modes (a target that is no longer the one held a window
        # ago was reached in between).
        def observe(world, windows=40):
            soa = world.state_arrays
            arrivals = np.zeros(len(soa))
            paused = []
            for _ in range(windows):
                held = soa.target_x.copy()
                world.advance(1.0)
                arrivals += ~np.isnan(held) & (soa.target_x != held)
                paused.append(np.mean(soa.pause_remaining > 0.0))
            return arrivals, float(np.mean(paused))

        strict_arrivals, strict_paused = observe(make_world(False))
        fast_arrivals, fast_paused = observe(make_world(True))
        # A trip is ≈2 long at speed 0.4 plus a 0.5 pause: ≈6.5 arrivals
        # in 40 windows, ≈10% of the crowd pausing at a boundary; seeds
        # differ by ≈0.05 / ≈0.003 within a mode.
        assert 5.0 < strict_arrivals.mean() < 9.0
        assert fast_arrivals.mean() == pytest.approx(strict_arrivals.mean(), rel=0.05)
        assert fast_arrivals.std() == pytest.approx(strict_arrivals.std(), rel=0.1)
        assert 0.05 < strict_paused < 0.13
        assert abs(fast_paused - strict_paused) < 0.01

    def test_hotspot_skew_matches_strict(self):
        mobility = lambda r: HotspotMobility(
            r, [(0.8, 0.8, 3.0), (3.2, 3.2, 1.0)], speed=0.5
        )
        strict = make_world(False, mobility=mobility, sensor_count=1500)
        fast = make_world(True, mobility=mobility, sensor_count=1500)
        strict.advance(20.0)
        fast.advance(20.0)
        strict_frac = density_fractions(strict)
        fast_frac = density_fractions(fast)
        # Both concentrate on the popular hotspot's cell ...
        assert strict_frac[0, 0] > 0.4
        assert fast_frac[0, 0] > 0.4
        # ... and agree on the whole skew profile.
        assert np.abs(strict_frac - fast_frac).max() < 0.05

    def test_fast_sim_positions_stay_in_region(self):
        fast = make_world(True, sensor_count=500)
        fast.advance(10.0)
        positions = fast.state_arrays.positions()
        assert positions.min() >= 0.0
        assert positions.max() <= 4.0


class TestFastSimAcquisition:
    def acquire_all_cells(self, world, *, budget=150, rounds=3):
        grid = Grid(REGION, side=4)
        handler = RequestResponseHandler(world, grid, default_budget=budget)
        cells = list(grid.cells())
        tuples = 0
        requests = responses = 0
        for _ in range(rounds):
            batches, report = handler.acquire_batches({"rain": cells}, duration=1.0)
            world.advance(1.0)
            tuples += sum(len(batch) for batch in batches.values())
            requests += report.requests_sent
            responses += report.responses_received
        return tuples, requests, responses

    def test_bernoulli_response_rate_matches_strict(self):
        participation = lambda i: BernoulliParticipation(0.6, mean_latency=0.1)
        strict = make_world(False, participation=participation, sensor_count=800)
        fast = make_world(True, participation=participation, sensor_count=800)
        s_tuples, s_requests, s_responses = self.acquire_all_cells(strict)
        f_tuples, f_requests, f_responses = self.acquire_all_cells(fast)
        assert s_requests == f_requests
        assert s_tuples == s_responses
        assert f_tuples == f_responses
        strict_rate = s_responses / s_requests
        fast_rate = f_responses / f_requests
        assert strict_rate == pytest.approx(0.6, abs=0.05)
        assert fast_rate == pytest.approx(strict_rate, abs=0.04)

    def test_always_respond_answers_every_request(self):
        fast = make_world(True, participation=None, sensor_count=400)
        tuples, requests, responses = self.acquire_all_cells(fast, rounds=1)
        assert responses == requests == tuples

    def test_fast_batches_are_well_formed(self):
        fast = make_world(True, sensor_count=600)
        grid = Grid(REGION, side=4)
        handler = RequestResponseHandler(fast, grid, default_budget=60)
        cell = grid.cell(1, 1)
        batch = handler.acquire_batches({"temp": [cell]}, duration=1.0)[0]["temp"]
        n = len(batch)
        assert batch.attribute == "temp"
        # Responses stay in request order; latencies are zero under
        # AlwaysRespond so response times are the sorted request times.
        assert np.all(np.diff(batch.t) >= 0)
        assert batch.value.dtype == np.float64
        assert batch.extra["cell"].shape == (n, 2)
        assert np.all(batch.extra["cell"] == np.array(cell.key))
        # Reported coordinates are the responders' SoA positions, inside the cell.
        assert np.all(cell.rect.contains_many(batch.x, batch.y, closed=True))
        in_cell = rows_in(fast, cell.rect)
        assert set(batch.sensor_id) <= set(fast.state_arrays.sensor_ids[in_cell])

    def test_fast_sim_updates_soa_counters(self):
        fast = make_world(True, sensor_count=300)
        grid = Grid(REGION, side=4)
        handler = RequestResponseHandler(fast, grid, default_budget=40)
        handler.acquire_batches({"rain": list(grid.cells())}, duration=1.0)
        soa = fast.state_arrays
        assert soa.requests_received.sum() == handler.total_requests
        assert soa.responses_sent.sum() == handler.total_responses
        # Per-sensor views expose the same counters.
        totals = sum(s.requests_received for s in fast.sensors)
        assert totals == handler.total_requests


def stationary_rows(world):
    """Whether each row is decided from its participation group's table entry."""
    soa = world.state_arrays
    return soa.participation_table["vector_participation"][soa.participation]


def mixed_crowd(i):
    """Bernoulli sensors with a custom stateless model every seventh sensor."""
    return MoodyParticipation() if i % 7 == 0 else BernoulliParticipation(0.8)


class RecordingParticipation(ParticipationModel):
    """Stateful from the handler's view (no ``vector_params``): logs every decision."""

    def __init__(self, log):
        self._log = log

    def decide(self, sensor_id, t, uniforms, *, incentive_multiplier=1.0):
        self._log.append((sensor_id, t))
        return ResponseDecision(responds=uniforms[0] < 0.5, latency=0.0)


class TestOnePolicy:
    """A fast-sim world answers every cell through the shared-stream policy.

    Cells hosting a sensor without stationary participation are not lent
    to the keyed strict policy: such a sensor takes its respond uniform
    from the wave's participation draw and is decided by its model, in
    each sensor's request order, inside the attribute's one wave loop.
    """

    def test_a_mixed_round_draws_no_keyed_block(self, monkeypatch):
        world = make_world(True, sensor_count=300, participation=mixed_crowd)
        flags = stationary_rows(world)
        assert flags.any() and not flags.all()
        handler = RequestResponseHandler(world, Grid(REGION, side=4), default_budget=12)
        calls = []
        keyed = handler_module.keyed_uniforms

        def counting(*args, **kwargs):
            calls.append(args)
            return keyed(*args, **kwargs)

        monkeypatch.setattr(handler_module, "keyed_uniforms", counting)
        cells = list(handler.grid.cells())
        for _ in range(3):
            _, report = handler.acquire_batches({"rain": cells, "temp": cells}, duration=1.0)
            world.advance(1.0)
        assert report.requests_sent == 2 * 12 * 16
        assert calls == []

    def test_a_mixed_round_keeps_exact_per_cell_accounting(self, monkeypatch):
        # One wave loop for the whole attribute, from the round's one
        # bucketing pass (a region scan of the crowd never runs): the full
        # budget goes out in every cell, and the reported responses are the
        # tuples targeting it.
        world = make_world(True, sensor_count=100, participation=mixed_crowd)
        grid = Grid(REGION, side=2)
        handler = RequestResponseHandler(world, grid, default_budget=20)
        monkeypatch.setattr(
            Rectangle, "contains_many",
            lambda *args, **kwargs: pytest.fail("region scan of the crowd"),
        )
        batches, report = handler.acquire_batches({"rain": list(grid.cells())}, duration=1.0)
        assert report.requests_sent == 20 * 4
        assert len(batches["rain"]) == report.responses_received
        delivered = {}
        for q, r in batches["rain"].extra["cell"].tolist():
            delivered[("rain", (q, r))] = delivered.get(("rain", (q, r)), 0) + 1
        assert report.per_cell_requests == {("rain", c.key): 20 for c in grid.cells()}
        assert {k: v for k, v in report.per_cell_responses.items() if v} == delivered
        assert set(report.per_cell_responses) == set(report.per_cell_requests)
        soa = world.state_arrays
        assert soa.requests_received.sum() == handler.total_requests
        assert soa.responses_sent.sum() == handler.total_responses

    @pytest.mark.parametrize("budget", [25, 400], ids=["covering", "replacement"])
    def test_each_walked_request_is_decided_once_in_request_order(self, budget):
        # One cell, so the wave's request order is its time order.  60
        # sensors, a third of them walked: a budget of 400 is sampled with
        # replacement and asks a walked sensor about seven times a round.
        log = []
        model = RecordingParticipation(log)
        world = make_world(
            True, sensor_count=60,
            participation=lambda i: model if i % 3 == 0 else BernoulliParticipation(0.5),
        )
        walked = ~stationary_rows(world)
        handler = RequestResponseHandler(world, Grid(REGION, side=1), default_budget=budget)
        for _ in range(2):
            log.clear()
            before = world.state_arrays.requests_received.copy()
            _, report = handler.acquire_batches({"rain": list(handler.grid.cells())}, duration=1.0)
            asked = world.state_arrays.requests_received - before
            assert report.requests_sent == budget
            # Once per request to a walked sensor, and to no other.
            decided = np.bincount([sensor_id for sensor_id, _ in log], minlength=60)
            ids = world.state_arrays.sensor_ids
            assert decided[ids[walked]].tolist() == asked[walked].tolist()
            assert not decided[ids[~walked]].any()
            # In request order: each sensor's requests, and the wave's.
            times = [t for _, t in log]
            assert times == sorted(times)
            if budget > 60:
                assert asked[walked].max() > 1
            world.advance(1.0)

    def test_a_mixed_round_is_handed_on_in_cell_time_order(self):
        # One wave loop per attribute yields the rows cell-major and in time
        # order within each cell, so the map phase hands the handler's own
        # batch on without sorting it.
        participation = lambda i: (
            FatigueParticipation(0.7) if i % 50 == 0 else BernoulliParticipation(0.6)
        )
        world = make_world(True, sensor_count=400, participation=participation)
        grid = Grid(REGION, side=4)
        handler = RequestResponseHandler(world, grid, default_budget=10)
        cells = list(grid.cells())
        stateful_cells = {
            cell.key for cell in cells
            if not stationary_rows(world)[rows_in(world, cell.rect)].all()
        }
        assert 0 < len(stateful_cells) < len(cells) - 1
        batches, _ = handler.acquire_batches({"rain": cells, "temp": cells}, duration=1.0)
        mapped = StreamFabricator(QueryPlanner(grid), grid).map_batches_fused(batches)
        for attribute, batch in batches.items():
            assert mapped[attribute][0] is batch


def pooled_rates(vectorized, participation, *, seeds=range(6), budget=30):
    """Response rate and mean latency of one all-cell round per seed, pooled."""
    requests = responses = 0
    latencies = []
    for seed in seeds:
        world = make_world(
            vectorized, sensor_count=600, seed=seed, participation=participation
        )
        handler = RequestResponseHandler(world, Grid(REGION, side=4), default_budget=budget)
        finalize = handler._finalize_wave

        def recording(*args):
            latencies.append(np.array(args[6]))
            return finalize(*args)

        handler._finalize_wave = recording
        _, report = handler.acquire_batches({"rain": list(handler.grid.cells())}, duration=1.0)
        requests += report.requests_sent
        responses += report.responses_received
    return responses / requests, float(np.concatenate(latencies).mean())


@pytest.mark.parametrize(
    "participation, rate, mean_latency",
    [
        (lambda i: MoodyParticipation(), 0.7, 0.1),
        (lambda i: FatigueParticipation(0.6, fatigue_per_request=0.0, mean_latency=0.3), 0.6, 0.3),
    ],
    ids=["moody", "fatigue-free"],
)
def test_walked_crowds_match_strict_in_distribution(participation, rate, mean_latency):
    # A crowd whose every sensor is walked answers from the world stream in
    # fast-sim and from keyed blocks in strict: the bits differ, the
    # distributions must not.  Six seeds of 16 cells x 30 requests pool
    # 2 880 requests a contract: the rate's sd is ≈ 0.009 and the mean
    # latency's ≈ 2.5% (about 1 800 exponential latencies), so a
    # difference of the two contracts has sd ≈ 0.0125 and ≈ 3.5%, and the
    # bands below are about 4 sd of a difference wide.
    strict_rate, strict_latency = pooled_rates(False, participation)
    fast_rate, fast_latency = pooled_rates(True, participation)
    assert strict_rate == pytest.approx(rate, abs=0.04)
    assert fast_rate == pytest.approx(strict_rate, abs=0.05)
    assert strict_latency == pytest.approx(mean_latency, rel=0.15)
    assert fast_latency == pytest.approx(strict_latency, rel=0.14)

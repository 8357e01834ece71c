"""Fast-sim mode: statistical equivalence with the strict per-sensor path.

``WorldConfig.vectorized_rng=True`` trades byte-identical per-sensor random
streams for one shared stream, so these tests assert *distributional*
agreement — spatial density of the moved crowd, acquisition response rates —
rather than exact trajectories.  All tolerances are comfortably wide for the
seeded populations used, so the tests are deterministic.
"""

import numpy as np
import pytest

from repro.geometry import Grid, Rectangle
from repro.sensing import (
    AlwaysRespond,
    BernoulliParticipation,
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
from scaffolding import rows_in

REGION = Rectangle(0.0, 0.0, 4.0, 4.0)


class MoodyParticipation(ParticipationModel):
    """A custom model without stationary params: fast-sim must take the
    exact per-sensor round, which decides it request by request."""

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
        batch = handler.acquire_attribute_batch("temp", [cell], duration=1.0)
        assert batch is not None
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

    def test_non_vectorisable_participation_falls_back_to_exact_path(self):
        # A model without stationary vector_params cannot be sampled from
        # the shared stream; a fast-sim world must then produce
        # *byte-identical* rounds to a strict world with the same seed,
        # because the fallback is the strict per-sensor path.
        participation = lambda i: MoodyParticipation()
        strict = make_world(False, participation=participation, sensor_count=200)
        fast = make_world(True, participation=participation, sensor_count=200)
        assert not np.any(fast.state_arrays.vector_participation)
        grid = Grid(REGION, side=4)
        strict_handler = RequestResponseHandler(strict, grid, default_budget=30)
        fast_handler = RequestResponseHandler(fast, grid, default_budget=30)
        cell = grid.cell(2, 2)
        strict_batch = strict_handler.acquire_attribute_batch("rain", [cell], duration=1.0)
        fast_batch = fast_handler.acquire_attribute_batch("rain", [cell], duration=1.0)
        assert (strict_batch is None) == (fast_batch is None)
        if strict_batch is not None:
            assert strict_batch.to_tuples() == fast_batch.to_tuples()

    def test_mixed_vectorisable_flags_use_fallback(self, monkeypatch):
        # Half the crowd is genuinely non-vectorisable: every cell
        # containing such a sensor must take the exact path, and the round
        # still completes.
        participation = lambda i: (
            BernoulliParticipation(0.8) if i % 2 == 0 else MoodyParticipation()
        )
        fast = make_world(True, participation=participation, sensor_count=100)
        flags = fast.state_arrays.vector_participation
        assert flags.any() and not flags.all()
        grid = Grid(REGION, side=2)
        handler = RequestResponseHandler(fast, grid, default_budget=20)

        # Fallback cells take their population from the round's one
        # bucketing pass: a region scan of the crowd must never run.
        def no_rescan(*args, **kwargs):
            raise AssertionError("region scan of the crowd")

        monkeypatch.setattr(Rectangle, "contains_many", no_rescan)
        batches, report = handler.acquire_batches({"rain": list(grid.cells())}, duration=1.0)
        assert report.requests_sent == 20 * 4
        assert sum(len(b) for b in batches.values()) == report.responses_received
        # Per-cell accounting stays exact: the full budget goes out in every
        # cell, and the reported responses are the tuples targeting it.
        delivered = {}
        for q, r in batches["rain"].extra["cell"].tolist():
            delivered[("rain", (q, r))] = delivered.get(("rain", (q, r)), 0) + 1
        assert report.per_cell_requests == {("rain", c.key): 20 for c in grid.cells()}
        assert {k: v for k, v in report.per_cell_responses.items() if v} == delivered
        assert set(report.per_cell_responses) == set(report.per_cell_requests)

    def test_mixed_crowd_fuses_the_vector_capable_cells(self, monkeypatch):
        # Non-vectorisable sensors confined to one cell: that cell alone
        # keeps the per-sensor round (from its bucketed population), the
        # other three are served by the fused shared-stream round.
        world = make_world(True, participation=lambda i: BernoulliParticipation(0.8), sensor_count=400)
        soa = world.state_arrays
        in_first = (soa.x < 2.0) & (soa.y < 2.0)
        soa.vector_participation[in_first] = False
        grid = Grid(REGION, side=2)
        handler = RequestResponseHandler(world, grid, default_budget=20)
        monkeypatch.setattr(
            Rectangle, "contains_many",
            lambda *args, **kwargs: pytest.fail("region scan of the crowd"),
        )
        sensors_asked = []
        participation_at = world.participation_at

        def recording_participation_at(rows):
            sensors_asked.extend(rows.tolist())
            return participation_at(rows)

        monkeypatch.setattr(world, "participation_at", recording_participation_at)
        _, report = handler.acquire_batches({"rain": list(grid.cells())}, duration=1.0)
        assert report.per_cell_requests == {("rain", c.key): 20 for c in grid.cells()}
        # Only the mixed cell's sensors answered one by one.
        assert sensors_asked and bool(np.all(in_first[sensors_asked]))

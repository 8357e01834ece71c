"""The fused attribute-level fast-sim acquisition round.

``RequestResponseHandler.acquire_attribute_batch`` serves all requested
cells of one attribute with a single participation draw, a single latency
draw and a single ``field.values`` call.  These tests pin down its
contracts:

* **statistical equivalence** with the per-cell fast-sim round — same
  per-cell response rates, incentive spend and report counters within
  tolerance (twin worlds share a seed but draw in different orders, so
  the comparison is distributional);
* **exact bookkeeping** — per-cell budgets, request counts and incentive
  accounting are per ``(attribute, cell)`` even though the draws are fused;
* **one round body** — a strict world runs the same fused round under the
  per-sensor policy (its sensors answer from keyed streams, so a whole
  wave is one vectorised pass), and ``acquire`` is its object view;
* **one choice body** — both contracts choose a wave's sensors with
  ``_per_cell_choices``: same-seed worlds choose the same first rows, and
  the sample is uniform, uniformly ordered and without replacement
  wherever the population covers the budget;
* **refusals** — a foreign cell, a cell listed twice and a duration that
  is not positive and finite are refused before anything is drawn;
* **exact stateful crowds** — in fast-sim the cells hosting a stateful
  sensor take one per-sensor wave loop per attribute, so a crowd whose
  every sensor is stateful acquires exactly what a strict world does.
"""

import numpy as np
import pytest
from scipy import stats

from repro.errors import AcquisitionError
from repro.geometry import Grid, Rectangle
from repro.sensing import (
    BernoulliParticipation,
    FatigueParticipation,
    FlatIncentive,
    RainField,
    RandomWaypointMobility,
    RequestResponseHandler,
    SensingWorld,
    TemperatureField,
    WorldConfig,
)
from repro.sensing import handler as handler_module
from scaffolding import rows_in
from repro.sensing.handler import HandlerReport, _PerSensorStreams
from repro.sensing.participation import ParticipationModel, ResponseDecision

REGION = Rectangle(0.0, 0.0, 4.0, 4.0)


def forbid_per_sensor_policy(monkeypatch):
    """Make the per-sensor policy raise, so a round that falls back fails."""

    def refuse(self, *args, **kwargs):
        raise AssertionError("a fast-sim round fell back to the per-sensor policy")

    monkeypatch.setattr(_PerSensorStreams, "answer", refuse)


def record_wave_loops(monkeypatch, handler):
    """Record ``(policy, attribute, cell keys)`` of every wave loop the handler runs."""
    loops = []
    waves = handler._acquire_waves

    def recording(policy, attribute, field_model, cell_keys, populations, **kwargs):
        loops.append((policy, attribute, cell_keys))
        return waves(policy, attribute, field_model, cell_keys, populations, **kwargs)

    monkeypatch.setattr(handler, "_acquire_waves", recording)
    return loops


class ScalarOnly(ParticipationModel):
    """A custom model without stationary parameters."""

    def decide(self, sensor_id, t, uniforms, *, incentive_multiplier=1.0):
        return ResponseDecision(responds=True, latency=0.0)


def make_world(vectorized, *, sensor_count=2000, seed=17, participation=None):
    world = SensingWorld(
        WorldConfig(
            region=REGION,
            sensor_count=sensor_count,
            seed=seed,
            vectorized_rng=vectorized,
        ),
        mobility_factory=lambda r: RandomWaypointMobility(r, speed=0.4),
        participation_factory=participation,
    )
    world.register_field(RainField(REGION))
    world.register_field(TemperatureField(REGION))
    return world


def per_cell_round(handler, attribute, cells, *, duration=1.0):
    """The pre-fusion fast-sim baseline: one one-cell round per cell."""
    from repro.streams import TupleBatch

    report = HandlerReport()
    batches = []
    for cell in cells:
        batch = handler.acquire_attribute_batch(
            attribute, [cell], duration=duration, report=report
        )
        if batch is not None and len(batch):
            batches.append(batch)
    if not batches:
        return None, report
    return TupleBatch.concatenate(batches), report


class TestFusedStatisticalEquivalence:
    def test_matches_per_cell_fast_sim_rates_and_counters(self):
        participation = lambda i: BernoulliParticipation(0.6, mean_latency=0.1)
        fused_world = make_world(True, participation=participation)
        cellwise_world = make_world(True, participation=participation)
        grid = Grid(REGION, side=4)
        cells = list(grid.cells())
        fused_handler = RequestResponseHandler(fused_world, grid, default_budget=100)
        cellwise_handler = RequestResponseHandler(
            cellwise_world, grid, default_budget=100
        )

        fused_requests = fused_responses = 0
        cellwise_requests = cellwise_responses = 0
        fused_cell_rates = {}
        cellwise_cell_rates = {}
        for _ in range(4):
            batches, fused_report = fused_handler.acquire_batches(
                {"rain": cells}, duration=1.0
            )
            fused_world.advance(1.0)
            _, cellwise_report = per_cell_round(cellwise_handler, "rain", cells)
            cellwise_world.advance(1.0)
            fused_requests += fused_report.requests_sent
            fused_responses += fused_report.responses_received
            cellwise_requests += cellwise_report.requests_sent
            cellwise_responses += cellwise_report.responses_received
            for key, sent in fused_report.per_cell_requests.items():
                fused_cell_rates.setdefault(key, [0, 0])
                fused_cell_rates[key][0] += sent
                fused_cell_rates[key][1] += fused_report.per_cell_responses.get(key, 0)
            for key, sent in cellwise_report.per_cell_requests.items():
                cellwise_cell_rates.setdefault(key, [0, 0])
                cellwise_cell_rates[key][0] += sent
                cellwise_cell_rates[key][1] += cellwise_report.per_cell_responses.get(key, 0)
            # Within one round the fused path counts tuples == responses,
            # exactly like the per-cell path.
            assert (
                sum(len(b) for b in batches.values())
                == fused_report.responses_received
            )

        # Budgets are deterministic, so request counters agree exactly.
        assert fused_requests == cellwise_requests
        assert set(fused_cell_rates) == set(cellwise_cell_rates)
        # Aggregate response rate is a Bernoulli(0.6) mean over ~6k draws.
        fused_rate = fused_responses / fused_requests
        cellwise_rate = cellwise_responses / cellwise_requests
        assert fused_rate == pytest.approx(0.6, abs=0.05)
        assert fused_rate == pytest.approx(cellwise_rate, abs=0.04)
        # Per-cell rates agree within a tolerance wide enough for the
        # smaller per-cell populations (budget 100 x 4 rounds per cell).
        for key, (sent, got) in fused_cell_rates.items():
            other_sent, other_got = cellwise_cell_rates[key]
            assert sent == other_sent
            assert got / sent == pytest.approx(other_got / other_sent, abs=0.12)

    def test_incentive_spend_matches_per_cell_fast_sim(self):
        participation = lambda i: BernoulliParticipation(0.4)
        fused_world = make_world(True, participation=participation)
        cellwise_world = make_world(True, participation=participation)
        grid = Grid(REGION, side=4)
        cells = list(grid.cells())
        fused_handler = RequestResponseHandler(
            fused_world, grid, default_budget=50, incentive=FlatIncentive(0.5)
        )
        cellwise_handler = RequestResponseHandler(
            cellwise_world, grid, default_budget=50, incentive=FlatIncentive(0.5)
        )
        _, fused_report = fused_handler.acquire_batches({"rain": cells}, duration=1.0)
        _, cellwise_report = per_cell_round(cellwise_handler, "rain", cells)
        # A flat incentive pays exactly per request, so the fused round's
        # spend is byte-equal, not just statistically equal.
        assert fused_report.requests_sent == cellwise_report.requests_sent
        assert fused_report.incentive_spent == pytest.approx(
            cellwise_report.incentive_spent
        )
        assert fused_report.incentive_spent == pytest.approx(
            0.5 * fused_report.requests_sent
        )

    def test_fused_batch_is_well_formed(self):
        fused_world = make_world(True, sensor_count=800)
        grid = Grid(REGION, side=4)
        handler = RequestResponseHandler(fused_world, grid, default_budget=40)
        cells = list(grid.cells())
        batch = handler.acquire_attribute_batch("temp", cells, duration=1.0)
        assert batch is not None
        n = len(batch)
        assert batch.attribute == "temp"
        assert batch.value.dtype == np.float64
        assert batch.extra["cell"].shape == (n, 2)
        assert batch.extra["incentive"].shape == (n,)
        # Every tuple's cell key is one of the requested cells, and the
        # reported coordinates lie inside that cell.
        for cell in cells:
            mask = np.all(batch.extra["cell"] == np.array(cell.key), axis=1)
            if not mask.any():
                continue
            assert np.all(
                cell.rect.contains_many(batch.x[mask], batch.y[mask], closed=True)
            )

    def test_fused_round_updates_soa_counters(self):
        fused_world = make_world(True, sensor_count=600)
        grid = Grid(REGION, side=4)
        handler = RequestResponseHandler(fused_world, grid, default_budget=30)
        handler.acquire_batches({"rain": list(grid.cells())}, duration=1.0)
        soa = fused_world.state_arrays
        assert soa.requests_received.sum() == handler.total_requests
        assert soa.responses_sent.sum() == handler.total_responses

    def test_with_replacement_sampling_in_starved_cells(self):
        # Deterministic coverage of the replacement branch: 6 sensors over
        # 4 cells with budget 10 guarantees every populated cell is smaller
        # than its budget, so chosen rows repeat and the counter accounting
        # must use the unbuffered scatter-add (a fancy-index increment
        # would silently drop repeated-row counts).
        fused_world = make_world(True, sensor_count=6)
        grid = Grid(REGION, side=2)
        handler = RequestResponseHandler(fused_world, grid, default_budget=10)
        cells = list(grid.cells())
        batch = handler.acquire_attribute_batch("rain", cells, duration=1.0)
        populated = sum(
            1 for cell in cells
            if rows_in(fused_world, cell.rect).size
        )
        assert handler.total_requests == 10 * populated
        soa = fused_world.state_arrays
        # Every dispatched request is accounted exactly once, even though
        # each sensor was asked several times in one round.
        assert soa.requests_received.sum() == handler.total_requests
        assert soa.requests_received.max() > 1
        assert soa.responses_sent.sum() == handler.total_responses
        if batch is not None:
            assert len(batch) == handler.total_responses

    @pytest.mark.parametrize("vectorized", [True, False])
    def test_foreign_cells_are_refused_before_anything_is_drawn(self, vectorized):
        # A cell of another grid shares its (q, r) key with a grid cell but
        # not its rectangle or budget: it is refused, not charged to the
        # grid cell of the same key, and nothing is drawn, sent or counted.
        world = make_world(vectorized, sensor_count=500)
        grid = Grid(REGION, side=4)
        handler = RequestResponseHandler(world, grid, default_budget=10)
        foreign = [Grid(REGION, side=2).cell(1, 1), Grid(REGION, side=8).cell(5, 5)]
        soa = world.state_arrays
        counters = (soa.requests_received.copy(), soa.responses_sent.copy())
        rng_state = world.rng.bit_generator.state
        report = HandlerReport()
        with pytest.raises(AcquisitionError, match=r"\(1, 1\), \(5, 5\)"):
            handler.acquire_attribute_batch(
                "rain", [grid.cell(1, 1), *foreign], duration=1.0, report=report
            )
        with pytest.raises(AcquisitionError):
            handler.acquire_batches(
                {"rain": [grid.cell(1, 1)], "temp": foreign[:1]}, duration=1.0
            )
        assert report == HandlerReport()
        assert soa.requests_received.tobytes() == counters[0].tobytes()
        assert soa.responses_sent.tobytes() == counters[1].tobytes()
        assert world.rng.bit_generator.state == rng_state
        assert (handler.total_requests, handler.total_responses) == (0, 0)

    @pytest.mark.parametrize("vectorized", [True, False])
    def test_object_view_refuses_foreign_cells(self, vectorized):
        # ``acquire`` is a view of the same round, so it refuses the same way.
        world = make_world(vectorized, sensor_count=300)
        grid = Grid(REGION, side=4)
        handler = RequestResponseHandler(world, grid, default_budget=10)
        rng_state = world.rng.bit_generator.state
        with pytest.raises(AcquisitionError, match=r"\(0, 1\)"):
            handler.acquire(
                {"rain": [grid.cell(0, 0), Grid(REGION, side=2).cell(0, 1)]},
                duration=1.0,
            )
        assert world.rng.bit_generator.state == rng_state
        assert (handler.total_requests, handler.total_responses) == (0, 0)
        assert world.state_arrays.requests_received.sum() == 0

    @pytest.mark.parametrize("vectorized", [True, False])
    def test_a_cell_listed_twice_is_refused_before_anything_is_drawn(self, vectorized):
        # Listed twice, a cell was sent twice its budget, and the wave's
        # "rows are unique" counter increment dropped the repeats (strict
        # also answered a sensor chosen in both copies twice from one
        # keyed block).
        world = make_world(vectorized, sensor_count=400)
        grid = Grid(REGION, side=4)
        handler = RequestResponseHandler(world, grid, default_budget=10)
        cell = grid.cell(0, 0)
        rng_state = world.rng.bit_generator.state
        with pytest.raises(AcquisitionError, match=r"\[\(0, 0\)\] are requested more than once"):
            handler.acquire_batches({"rain": [cell, cell]}, duration=1.0)
        with pytest.raises(AcquisitionError, match="more than once"):
            handler.acquire_attribute_batch(
                "rain", [cell, grid.cell(1, 0), cell], duration=1.0
            )
        assert world.rng.bit_generator.state == rng_state
        assert (handler.total_requests, handler.total_responses) == (0, 0)
        assert world.state_arrays.requests_received.sum() == 0
        # One cell for two attributes is two pairs, not a repeat.
        _, report = handler.acquire_batches(
            {"rain": [cell], "temp": [cell]}, duration=1.0
        )
        assert report.per_cell_requests == {("rain", (0, 0)): 10, ("temp", (0, 0)): 10}
        assert world.state_arrays.requests_received.sum() == 20

    @pytest.mark.parametrize("vectorized", [True, False])
    def test_object_view_refuses_a_cell_listed_twice(self, vectorized):
        world = make_world(vectorized, sensor_count=400)
        grid = Grid(REGION, side=4)
        handler = RequestResponseHandler(world, grid, default_budget=10)
        rng_state = world.rng.bit_generator.state
        with pytest.raises(AcquisitionError, match=r"\(2, 3\)"):
            handler.acquire(
                {"rain": [grid.cell(0, 0)], "temp": [grid.cell(2, 3)] * 2},
                duration=1.0,
            )
        assert world.rng.bit_generator.state == rng_state
        assert (handler.total_requests, handler.total_responses) == (0, 0)

    @pytest.mark.parametrize("vectorized", [True, False])
    @pytest.mark.parametrize("duration", [float("nan"), float("inf"), 0.0, -1.0])
    def test_a_duration_that_is_not_positive_and_finite_is_refused(
        self, vectorized, duration
    ):
        # NaN and inf used to pass the ``duration <= 0`` check: fast-sim
        # stamped tuples NaN or inf, strict raised numpy's OverflowError
        # after the choice had drawn from the world stream.
        world = make_world(vectorized, sensor_count=400)
        grid = Grid(REGION, side=4)
        handler = RequestResponseHandler(world, grid, default_budget=10)
        rng_state = world.rng.bit_generator.state
        with pytest.raises(AcquisitionError, match="positive and finite"):
            handler.acquire_batches({"rain": list(grid.cells())}, duration=duration)
        with pytest.raises(AcquisitionError, match="positive and finite"):
            handler.acquire_batches({}, duration=duration)
        with pytest.raises(AcquisitionError, match="positive and finite"):
            handler.acquire_attribute_batch(
                "rain", list(grid.cells()), duration=duration
            )
        assert world.rng.bit_generator.state == rng_state
        assert (handler.total_requests, handler.total_responses) == (0, 0)
        assert world.state_arrays.requests_received.sum() == 0


class TestOneChoiceBody:
    """Both RNG contracts choose a wave's sensors with ``_per_cell_choices``."""

    @pytest.mark.parametrize("undersized", [False, True])
    def test_strict_and_fast_sim_choose_the_same_first_rows(self, monkeypatch, undersized):
        # Placement is keyed under both contracts, so same-seed worlds have
        # the same populations, and the choice is the first draw a round
        # makes from the world stream: the first rows are equal, whether
        # every cell covers its budget or one is sampled with replacement.
        chosen = []
        choices = handler_module._per_cell_choices

        def recording(populations, budgets, rng):
            rows = choices(populations, budgets, rng)
            chosen.append(rows)
            return rows

        monkeypatch.setattr(handler_module, "_per_cell_choices", recording)
        counters = []
        for vectorized in (False, True):
            world = make_world(vectorized, sensor_count=2000)
            handler = RequestResponseHandler(world, Grid(REGION, side=4), default_budget=60)
            if undersized:
                handler.set_budget("rain", (1, 2), 1000)
            handler.acquire_batches({"rain": list(handler.grid.cells())}, duration=1.0)
            counters.append(world.state_arrays.requests_received)
        strict_rows, fast_rows = chosen
        assert strict_rows.size == (15 * 60 + 1000 if undersized else 16 * 60)
        assert strict_rows.tobytes() == fast_rows.tobytes()
        assert counters[0].tobytes() == counters[1].tobytes()

    def test_the_sample_is_uniform_and_without_replacement_when_it_can_be(self):
        # A covered cell (12 sensors, budget 4), an undersized one (5, 8)
        # and an exactly covered one (30, 30), over many rounds.
        rng = np.random.default_rng(2024)
        populations = [np.arange(0, 12), np.arange(100, 105), np.arange(200, 230)]
        budgets = np.array([4, 8, 30], dtype=np.int64)
        rounds = 3000
        picks = [np.empty((rounds, budget), dtype=np.int64) for budget in budgets]
        for r in range(rounds):
            rows = handler_module._per_cell_choices(populations, budgets, rng)
            assert rows.shape == (42,)
            # Cell-major order: each cell's budget of rows, from that cell.
            for population, part, pick in zip(
                populations, np.split(rows, np.cumsum(budgets)[:-1]), picks
            ):
                assert np.isin(part, population).all()
                pick[r] = part - population[0]
        # Without replacement exactly where the population covers the budget.
        for pick, covered in zip(picks, (True, False, True)):
            distinct = np.array([np.unique(row).size for row in pick])
            if covered:
                assert (distinct == pick.shape[1]).all()
            else:
                assert (distinct < pick.shape[1]).any()
        # Each sensor is chosen equally often, and so is each sensor at
        # each request position (the order is uniform too).
        for population, pick in zip(populations, picks):
            size = population.size
            frequency = np.bincount(pick.ravel(), minlength=size)
            assert stats.chisquare(frequency).pvalue > 1e-3
            for position in range(pick.shape[1]):
                at_position = np.bincount(pick[:, position], minlength=size)
                assert stats.chisquare(at_position).pvalue > 1e-3


class TestStatefulFastSim:
    def test_fatigue_response_rate_matches_strict(self):
        participation = lambda i: FatigueParticipation(
            0.7, fatigue_per_request=0.02, recovery_per_time=0.005, min_probability=0.1
        )
        strict = make_world(False, sensor_count=1000, participation=participation)
        fast = make_world(True, sensor_count=1000, participation=participation)
        grid = Grid(REGION, side=4)
        strict_handler = RequestResponseHandler(strict, grid, default_budget=80)
        fast_handler = RequestResponseHandler(fast, grid, default_budget=80)
        cells = list(grid.cells())
        rates = {}
        for name, world, handler in (
            ("strict", strict, strict_handler),
            ("fast", fast, fast_handler),
        ):
            for _ in range(4):
                handler.acquire_batches({"rain": cells}, duration=1.0)
                world.advance(1.0)
            rates[name] = handler.total_responses / handler.total_requests
        assert rates["fast"] == pytest.approx(rates["strict"], abs=0.05)

    def test_fatigue_rate_declines_over_rounds(self):
        # Hammering the same crowd with no recovery must wear it out in
        # fast-sim exactly as the scalar model describes.
        participation = lambda i: FatigueParticipation(
            0.9, fatigue_per_request=0.15, recovery_per_time=0.0, min_probability=0.05
        )
        world = make_world(True, sensor_count=400, participation=participation)
        grid = Grid(REGION, side=2)
        handler = RequestResponseHandler(world, grid, default_budget=150)
        cells = list(grid.cells())
        round_rates = []
        for _ in range(5):
            _, report = handler.acquire_batches({"rain": cells}, duration=1.0)
            world.advance(1.0)
            round_rates.append(report.response_rate)
        assert round_rates[-1] < round_rates[0] - 0.2

    def test_no_vector_form_trips_the_fallback_guard(self, monkeypatch):
        # A crowd whose model has no stationary parameters is served by the
        # per-sensor policy, and the guard turns that into a failure.
        world = make_world(True, sensor_count=200, participation=lambda i: ScalarOnly())
        grid = Grid(REGION, side=2)
        handler = RequestResponseHandler(world, grid, default_budget=20)
        forbid_per_sensor_policy(monkeypatch)
        with pytest.raises(AssertionError, match="per-sensor policy"):
            handler.acquire_batches({"rain": list(grid.cells())}, duration=1.0)

    def test_fatigue_state_is_coherent_across_vector_and_fallback_paths(self):
        # A fatigue model keeps ONE store per sensor: what a direct decide()
        # writes, a fast-sim round continues from, and current_probability()
        # reads both.
        models = {}

        def participation(sensor_id):
            models[sensor_id] = FatigueParticipation(
                0.8, fatigue_per_request=0.01, recovery_per_time=0.0, min_probability=0.0
            )
            return models[sensor_id]

        world = make_world(True, sensor_count=40, participation=participation)
        handler = RequestResponseHandler(world, Grid(REGION, side=1), default_budget=30)
        for _ in range(3):
            models[0].decide(0, 0.0, (0.0, 0.5))
        assert models[0].current_probability(0, 0.0) == pytest.approx(0.8 - 0.03)

        requests = {sensor_id: 0 for sensor_id in models}
        for sensor_id, model in models.items():
            decide = model.decide

            def counting(sid, t, uniforms, *, incentive_multiplier=1.0, decide=decide):
                requests[sid] += 1
                return decide(sid, t, uniforms, incentive_multiplier=incentive_multiplier)

            model.decide = counting
        handler.acquire_batches({"rain": list(handler.grid.cells())}, duration=1.0)
        assert sum(requests.values()) == 30
        for sensor_id, model in models.items():
            stored = 0.03 if sensor_id == 0 else 0.0
            assert model.current_probability(sensor_id, 1.0) == pytest.approx(
                0.8 - stored - 0.01 * requests[sensor_id]
            )

    def test_all_stateful_crowd_acquires_exactly_what_strict_does(self):
        # Nothing in a stateful crowd is sampled from the shared stream:
        # every cell takes the keyed per-sensor policy and each request goes
        # through the model's decide, so a fast-sim world acquires what a
        # strict world with the same seed does.  (No advance: movement is
        # where the two contracts still differ.)
        def build(vectorized):
            world = make_world(
                vectorized,
                sensor_count=500,
                participation=lambda i: FatigueParticipation(0.7, fatigue_per_request=0.2),
            )
            return RequestResponseHandler(world, Grid(REGION, side=4), default_budget=40)

        strict, fast = build(False), build(True)
        cells = list(strict.grid.cells())
        request = {"rain": cells, "temp": cells}
        for _ in range(3):
            batches, report = strict.acquire_batches(request, duration=1.0)
            fast_batches, fast_report = fast.acquire_batches(request, duration=1.0)
            assert fast_report == report
            assert list(fast_batches) == list(batches)
            for attribute, batch in batches.items():
                other = fast_batches[attribute]
                assert other.t.tobytes() == batch.t.tobytes()
                assert other.sensor_id.tobytes() == batch.sensor_id.tobytes()
                assert other.value.tobytes() == batch.value.tobytes()

    def test_mixed_stateful_groups_are_dispatched_separately(self, monkeypatch):
        # Two fatigue parameterisations in one crowd: each sensor is decided
        # by its own model, all in one per-sensor wave loop.
        participation = lambda i: (
            FatigueParticipation(0.9, fatigue_per_request=0.0)
            if i % 2 == 0
            else FatigueParticipation(0.3, fatigue_per_request=0.0)
        )
        world = make_world(True, sensor_count=1000, participation=participation)
        grid = Grid(REGION, side=1)
        handler = RequestResponseHandler(world, grid, default_budget=600)
        loops = record_wave_loops(monkeypatch, handler)
        _, report = handler.acquire_batches(
            {"rain": list(grid.cells())}, duration=1.0
        )
        assert [(policy, attribute) for policy, attribute, _ in loops] == [
            (handler._per_sensor, "rain")
        ]
        # The blended response rate sits between the two models' bases.
        assert 0.45 < report.response_rate < 0.75

    def test_mixed_crowd_runs_one_wave_loop_per_policy(self, monkeypatch):
        # Cells hosting a fatigue sensor are served together by one
        # per-sensor wave loop, the rest by one shared-stream loop.
        participation = lambda i: (
            FatigueParticipation(0.7) if i % 50 == 0 else BernoulliParticipation(0.6)
        )
        world = make_world(True, sensor_count=400, participation=participation)
        grid = Grid(REGION, side=4)
        handler = RequestResponseHandler(world, grid, default_budget=10)
        loops = record_wave_loops(monkeypatch, handler)
        cells = list(grid.cells())
        _, report = handler.acquire_batches({"rain": cells, "temp": cells}, duration=1.0)

        stateful_cells = {
            cell.key for cell in cells
            if any(
                isinstance(sensor.participation, FatigueParticipation)
                for sensor in world.sensors_at(rows_in(world, cell.rect))
            )
        }
        assert 0 < len(stateful_cells) < len(cells)
        assert [(policy, attribute) for policy, attribute, _ in loops] == [
            (handler._per_sensor, "rain"), (handler._shared_stream, "rain"),
            (handler._per_sensor, "temp"), (handler._shared_stream, "temp"),
        ]
        for policy, _, keys in loops:
            assert (set(keys) == stateful_cells) == (policy is handler._per_sensor)
        assert report.requests_sent == 2 * 10 * len(cells)


class TestStrictFusedRounds:
    """Strict rounds are the same fused round, under the per-sensor policy."""

    def test_strict_acquire_is_the_object_view_of_acquire_batches(self):
        # One round body for both entry points: acquire materialises the
        # batches of acquire_batches, tuple for tuple, grouped by cell.
        participation = lambda i: BernoulliParticipation(0.5, mean_latency=0.1)
        columnar = make_world(False, sensor_count=300, participation=participation)
        object_world = make_world(False, sensor_count=300, participation=participation)
        grid = Grid(REGION, side=4)
        columnar_handler = RequestResponseHandler(columnar, grid, default_budget=20)
        object_handler = RequestResponseHandler(object_world, grid, default_budget=20)
        cells = list(grid.cells())
        request = {"rain": cells, "temp": cells[:5]}
        batches, columnar_report = columnar_handler.acquire_batches(request, duration=1.0)
        tuples_by_cell, object_report = object_handler.acquire(request, duration=1.0)
        columnar_tuples = sorted(
            (item for batch in batches.values() for item in batch.to_tuples()),
            key=lambda item: item.tuple_id,
        )
        object_tuples = sorted(
            (item for items in tuples_by_cell.values() for item in items),
            key=lambda item: item.tuple_id,
        )
        assert columnar_tuples == object_tuples
        assert columnar_report == object_report
        for key, items in tuples_by_cell.items():
            assert all(item.metadata["cell"] == key for item in items)
            assert [item.t for item in items] == sorted(item.t for item in items)

    def test_strict_world_runs_one_fused_round_per_attribute(self, monkeypatch):
        # One bucketing pass and one wave loop over all of an attribute's
        # cells, answered from the sensors' keyed streams — no per-cell
        # containment mask, no per-cell wave loop.
        world = make_world(False, sensor_count=100)
        grid = Grid(REGION, side=2)
        handler = RequestResponseHandler(world, grid, default_budget=10)
        rounds = record_wave_loops(monkeypatch, handler)

        def no_region_scan(*args, **kwargs):  # pragma: no cover - guard
            raise AssertionError("a strict round scanned the crowd per cell")

        monkeypatch.setattr(Rectangle, "contains_many", no_region_scan)
        cells = list(grid.cells())
        _, report = handler.acquire_batches({"rain": cells, "temp": cells}, duration=1.0)
        assert [(policy, attribute) for policy, attribute, _ in rounds] == [
            (handler._per_sensor, "rain"), (handler._per_sensor, "temp"),
        ]
        assert all(set(keys) == {cell.key for cell in cells} for _, _, keys in rounds)
        assert report.requests_sent == 2 * 10 * 4

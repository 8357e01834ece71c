"""Unit tests for mobile sensors, the sensing world and the request/response handler."""

import numpy as np
import pytest

from repro.errors import AcquisitionError, BudgetError, CraqrError
from repro.geometry import Grid, Rectangle
from repro.sensing import (
    AlwaysRespond,
    BernoulliParticipation,
    MobileSensor,
    RainField,
    RandomWaypointMobility,
    RequestResponseHandler,
    SensingWorld,
    StationaryMobility,
    TemperatureField,
    WorldConfig,
)

from scaffolding import ConstantField, rows_in

REGION = Rectangle(0.0, 0.0, 4.0, 4.0)


def make_world(sensor_count=80, response_probability=1.0, seed=3):
    if response_probability >= 1.0:
        participation = lambda sensor_id: AlwaysRespond()
    else:
        participation = lambda sensor_id: BernoulliParticipation(response_probability)
    world = SensingWorld(
        WorldConfig(region=REGION, sensor_count=sensor_count, seed=seed),
        mobility_factory=lambda r: RandomWaypointMobility(r, speed=0.3),
        participation_factory=participation,
    )
    world.register_field(RainField(REGION))
    world.register_field(TemperatureField(REGION))
    return world


def acquire_cell_tuples(handler, attribute, cell, *, duration=1.0):
    """One acquisition round on one cell, through the object view."""
    tuples_by_cell, _ = handler.acquire({attribute: [cell]}, duration=duration)
    return tuples_by_cell.get(cell.key, [])


class TestMobileSensor:
    def make_sensor(self, sensor_id=1):
        return MobileSensor(
            sensor_id,
            StationaryMobility(REGION),
            participation=AlwaysRespond(),
        )

    def test_sensor_keeps_no_sensed_history(self):
        # A sensor answers requests; the server's result buffers keep the
        # answers, so there is no device-side archive to size or inspect.
        with pytest.raises(TypeError):
            MobileSensor(1, StationaryMobility(REGION), memory_capacity=3)
        sensor = self.make_sensor()
        sensor.handle_request(ConstantField(constant=5.0), 2.0)
        assert not hasattr(sensor, "memory")

    def test_handle_request_returns_row(self):
        sensor = self.make_sensor()
        row = sensor.handle_request(ConstantField(constant=5.0), 2.0)
        assert row is not None
        t, x, y, value = row
        assert t >= 2.0
        assert value == 5.0
        assert sensor.requests_received == 1
        assert sensor.responses_sent == 1

    def test_non_responding_sensor(self):
        sensor = MobileSensor(
            1,
            StationaryMobility(REGION),
            participation=BernoulliParticipation(0.4),
            acquisition_key=1,
        )
        rows = [sensor.handle_request(ConstantField(), float(t)) for t in range(200)]
        answered = sum(1 for row in rows if row is not None)
        assert sensor.requests_received == 200
        assert answered == sensor.responses_sent
        assert 0 < answered < 200

    def test_move_changes_position_for_mobile_models(self):
        sensor = MobileSensor(
            1,
            RandomWaypointMobility(REGION, speed=1.0, pause=0.0),
            acquisition_key=2,
        )
        start = sensor.position
        for _ in range(20):
            sensor.move(0.5)
        assert sensor.position != start


class TestSensingWorld:
    def test_configuration_validation(self):
        with pytest.raises(CraqrError):
            WorldConfig(region=REGION, sensor_count=0)
        with pytest.raises(CraqrError):
            WorldConfig(region=REGION, movement_step=0.0)

    @pytest.mark.parametrize("count", [2.5, True, np.float64(3.0), "4"])
    def test_sensor_count_must_be_an_integer(self, count):
        # Each used to pass and then fail inside numpy with a raw TypeError.
        with pytest.raises(CraqrError, match="sensor_count must be a positive integer"):
            WorldConfig(region=REGION, sensor_count=count)

    def test_numpy_integer_sensor_count_is_accepted(self):
        world = SensingWorld(WorldConfig(region=REGION, sensor_count=np.int64(3), seed=1))
        assert len(world.sensors) == 3

    @pytest.mark.parametrize("step", [float("nan"), float("inf"), -0.1])
    def test_movement_step_must_be_positive_and_finite(self, step):
        # A NaN step used to be accepted and fail on the first advance.
        with pytest.raises(CraqrError, match="movement_step must be positive and finite"):
            WorldConfig(region=REGION, movement_step=step)

    def test_sensor_creation(self):
        world = make_world(sensor_count=25)
        assert len(world.sensors) == 25
        for sensor in world.sensors:
            assert REGION.contains(sensor.position.x, sensor.position.y, closed=True)

    def test_field_registration_and_lookup(self):
        world = make_world()
        assert world.has_attribute("rain")
        assert world.has_attribute("temp")
        assert set(world.attributes) == {"rain", "temp"}
        with pytest.raises(AcquisitionError):
            world.field_for("humidity")

    def test_advance_moves_clock_and_sensors(self):
        world = make_world(seed=5)
        before = world.state_arrays.positions()
        world.advance(2.0)
        assert world.now == pytest.approx(2.0)
        after = world.state_arrays.positions()
        assert not np.allclose(before, after)

    def test_advance_rejects_non_positive(self):
        with pytest.raises(CraqrError):
            make_world().advance(0.0)

    def test_density_snapshot_sums_to_sensor_count(self):
        world = make_world(sensor_count=150, seed=7)
        counts = world.density_snapshot(4, 4)
        assert counts.sum() == 150

    def test_density_snapshot_validation(self):
        with pytest.raises(CraqrError):
            make_world().density_snapshot(0, 4)


class TestRequestResponseHandler:
    def make_handler(self, world=None, default_budget=30):
        world = world or make_world()
        grid = Grid(REGION, side=4)
        return RequestResponseHandler(world, grid, default_budget=default_budget), world, grid

    def test_budget_defaults_and_overrides(self):
        handler, _, grid = self.make_handler(default_budget=25)
        cell = grid.cell(0, 0)
        assert handler.budget_for("rain", cell.key) == 25
        handler.set_budget("rain", cell.key, 60)
        assert handler.budget_for("rain", cell.key) == 60
        assert ("rain", cell.key) in handler.budgets()

    def test_lifetime_totals_add_up_over_rounds(self):
        handler, _, grid = self.make_handler(
            world=make_world(response_probability=0.5), default_budget=12
        )
        cells = [grid.cell(0, 0), grid.cell(2, 1)]
        reports = [
            handler.acquire_batches({"rain": cells, "temp": cells[:1]}, duration=1.0)[1]
            for _ in range(3)
        ]
        assert handler.total_requests == sum(r.requests_sent for r in reports) > 0
        assert handler.total_responses == sum(r.responses_received for r in reports)
        assert handler.total_responses < handler.total_requests

    def test_budget_validation(self):
        handler, _, grid = self.make_handler()
        with pytest.raises(BudgetError):
            handler.set_budget("rain", grid.cell(0, 0).key, 0)
        with pytest.raises(BudgetError):
            RequestResponseHandler(make_world(), grid, default_budget=0)

    def test_acquire_cell_respects_budget(self):
        handler, world, grid = self.make_handler(default_budget=10)
        cell = grid.cell(1, 1)
        items = acquire_cell_tuples(handler, "temp", cell)
        # With AlwaysRespond participation every request yields one tuple.
        assert len(items) == 10
        assert handler.total_requests == 10
        assert handler.total_responses == 10

    def test_acquire_cell_tuples_carry_attribute_and_cell(self):
        handler, _, grid = self.make_handler(default_budget=5)
        cell = grid.cell(2, 2)
        items = acquire_cell_tuples(handler, "rain", cell)
        for item in items:
            assert item.attribute == "rain"
            assert item.metadata["cell"] == cell.key
            assert item.sensor_id is not None

    def test_acquire_cell_empty_cell_returns_nothing(self):
        # A world with a single stationary sensor leaves most cells empty.
        world = SensingWorld(
            WorldConfig(region=REGION, sensor_count=1, seed=1),
            mobility_factory=lambda r: StationaryMobility(r),
        )
        world.register_field(RainField(REGION))
        grid = Grid(REGION, side=4)
        handler = RequestResponseHandler(world, grid, default_budget=5)
        empty_cells = [
            cell for cell in grid.cells() if not rows_in(world, cell.rect).size
        ]
        assert empty_cells, "expected at least one empty cell"
        assert acquire_cell_tuples(handler, "rain", empty_cells[0]) == []

    def test_acquire_cell_duration_validation(self):
        handler, _, grid = self.make_handler()
        with pytest.raises(AcquisitionError):
            acquire_cell_tuples(handler, "rain", grid.cell(0, 0), duration=0.0)

    def test_acquire_unknown_attribute_raises(self):
        handler, _, grid = self.make_handler()
        with pytest.raises(AcquisitionError):
            acquire_cell_tuples(handler, "humidity", grid.cell(0, 0))

    def test_acquire_round_reports(self):
        handler, _, grid = self.make_handler(default_budget=8)
        cells = [grid.cell(0, 0), grid.cell(1, 0)]
        tuples_by_cell, report = handler.acquire({"rain": cells, "temp": cells}, duration=1.0)
        assert report.requests_sent == 8 * 4
        assert report.responses_received == sum(len(v) for v in tuples_by_cell.values())
        assert 0.0 <= report.response_rate <= 1.0
        assert handler.total_requests == report.requests_sent

    def test_acquire_with_lossy_participation(self):
        world = make_world(response_probability=0.5, seed=9)
        grid = Grid(REGION, side=4)
        handler = RequestResponseHandler(world, grid, default_budget=40)
        _, report = handler.acquire({"rain": [grid.cell(1, 1)]}, duration=1.0)
        assert report.responses_received < report.requests_sent

    def test_per_pair_response_rates(self):
        world = make_world(response_probability=0.5, seed=9)
        grid = Grid(REGION, side=4)
        handler = RequestResponseHandler(world, grid, default_budget=40)
        _, report = handler.acquire({"rain": [grid.cell(1, 1)]}, duration=1.0)
        rate = report.response_rate_for("rain", (1, 1))
        assert rate == report.responses_received / report.requests_sent
        assert 0.0 < rate < 1.0
        # A pair sent nothing has no rate: not the 0.0 of a total outage.
        assert report.response_rate_for("rain", (0, 0)) is None
        assert report.response_rate_for("temp", (1, 1)) is None

    @pytest.mark.parametrize("vectorized", [False, True])
    def test_tuples_are_stamped_at_their_sensing_time(self, vectorized):
        # Answers arrive up to many windows late, but a tuple carries the
        # time its value was sensed: inside the window that requested it.
        world = SensingWorld(
            WorldConfig(region=REGION, sensor_count=80, seed=3, vectorized_rng=vectorized),
            participation_factory=lambda sensor_id: BernoulliParticipation(
                0.9, mean_latency=5.0
            ),
        )
        world.register_field(TemperatureField(REGION))
        world.advance(2.0)
        handler = RequestResponseHandler(world, Grid(REGION, side=4), default_budget=20)
        batches, report = handler.acquire_batches(
            {"temp": list(handler.grid.cells())}, duration=1.0
        )
        times = batches["temp"].t
        assert times.size == report.responses_received > 0
        assert times.min() >= 2.0 and times.max() < 3.0

    def test_tuples_sorted_by_time_within_cell(self):
        handler, _, grid = self.make_handler(default_budget=20)
        tuples_by_cell, _ = handler.acquire({"temp": [grid.cell(1, 1)]}, duration=1.0)
        for items in tuples_by_cell.values():
            times = [item.t for item in items]
            assert times == sorted(times)


class TestColumnarAcquisition:
    """The batched acquisition path must mirror the object path exactly."""

    def make_pair(self, default_budget=20, response_probability=1.0, seed=3):
        object_world = make_world(seed=seed, response_probability=response_probability)
        columnar_world = make_world(seed=seed, response_probability=response_probability)
        grid = Grid(REGION, side=4)
        return (
            RequestResponseHandler(object_world, grid, default_budget=default_budget),
            RequestResponseHandler(columnar_world, grid, default_budget=default_budget),
            grid,
        )

    def test_acquire_cell_batch_matches_object_path(self):
        object_handler, columnar_handler, grid = self.make_pair()
        cell = grid.cell(1, 1)
        items = acquire_cell_tuples(object_handler, "rain", cell)
        batch = columnar_handler.acquire_attribute_batch("rain", [cell], duration=1.0)
        assert batch is not None
        assert batch.to_tuples() == items
        # Metadata (cell key, incentive) is reconstructed faithfully too.
        assert [it.metadata for it in batch.to_tuples()] == [it.metadata for it in items]

    def test_acquire_cell_batch_with_lossy_participation(self):
        object_handler, columnar_handler, grid = self.make_pair(
            response_probability=0.5, seed=9
        )
        cell = grid.cell(1, 1)
        items = acquire_cell_tuples(object_handler, "temp", cell)
        batch = columnar_handler.acquire_attribute_batch("temp", [cell], duration=1.0)
        # The object view lists a cell's tuples in time order.
        columnar = [] if batch is None else sorted(batch.to_tuples(), key=lambda it: it.t)
        assert columnar == items

    def test_acquire_batches_round_report_matches(self):
        object_handler, columnar_handler, grid = self.make_pair(default_budget=8)
        cells = [grid.cell(0, 0), grid.cell(1, 0)]
        request = {"rain": cells, "temp": cells}
        _, object_report = object_handler.acquire(request, duration=1.0)
        batches, columnar_report = columnar_handler.acquire_batches(request, duration=1.0)
        assert columnar_report.requests_sent == object_report.requests_sent
        assert columnar_report.responses_received == object_report.responses_received
        assert columnar_report.per_cell_requests == object_report.per_cell_requests
        assert columnar_report.per_cell_responses == object_report.per_cell_responses
        assert columnar_handler.total_requests == columnar_report.requests_sent
        assert set(batches) <= {"rain", "temp"}
        total = sum(len(batch) for batch in batches.values())
        assert total == columnar_report.responses_received

    def test_empty_cell_skips_bookkeeping(self):
        # Satellite: no redundant per-cell entries when the cell holds no
        # sensors — the round sends nothing, so nothing is recorded.
        world = SensingWorld(
            WorldConfig(region=REGION, sensor_count=1, seed=1),
            mobility_factory=lambda r: StationaryMobility(r),
        )
        world.register_field(RainField(REGION))
        grid = Grid(REGION, side=4)
        handler = RequestResponseHandler(world, grid, default_budget=5)
        empty_cell = next(
            cell for cell in grid.cells() if not rows_in(world, cell.rect).size
        )
        _, report = handler.acquire({"rain": [empty_cell]}, duration=1.0)
        assert report.per_cell_requests == {}
        assert report.per_cell_responses == {}
        assert report.requests_sent == 0

    def test_requests_counted_once_per_round(self):
        handler, _, grid = (
            TestRequestResponseHandler().make_handler(default_budget=12)
        )
        cell = grid.cell(1, 1)
        items = acquire_cell_tuples(handler, "rain", cell)
        assert handler.total_requests == 12
        assert len(items) == 12

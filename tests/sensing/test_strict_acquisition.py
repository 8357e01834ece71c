"""Order independence of strict acquisition.

A strict sensor answers its ``c``-th request from the Philox block keyed
``(world.acquisition_key, sensor id)`` at counter ``c``, so an answer is a
pure function of the sensor, its request count and the request — never of
which sensors were asked before it.  ``_PerSensorStreams.answer`` uses that
to answer a whole wave in one vectorised pass (rank within each sensor for
the counters, one ``keyed_uniforms`` call, the stationary rows as columns,
a per-request ``decide`` walk only for stateful or custom participation).

The oracle below answers the same wave with the per-object
``MobileSensor.handle_request``, one request at a time, in a *shuffled*
visiting order: sensors interleave at random, and only each sensor's own
requests keep their order (that order is what its counter means).  Every
strict golden in the repo rests on the two agreeing *exactly* — columns,
``HandlerReport``, SoA counters, generator states and snapshot bytes — so
the comparison is on bytes, never ``allclose``.
"""

import itertools
import types

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.config import BudgetConfig, EngineConfig
from repro.core.engine import CraqrEngine
from repro.core.query import AcquisitionalQuery
from repro.faults import FaultInjector, SensorHealthMonitor
from repro.geometry import Grid, Rectangle, RectRegion
from repro.recovery import EngineSnapshot
from repro.sensing import (
    AlwaysRespond,
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
from repro.sensing.handler import _PerSensorStreams
from repro.sensing.incentives import IncentiveScheme
from repro.sensing.participation import ParticipationModel, ResponseDecision
from repro.sensing.phenomena import PhenomenonField, _value_column
from repro.streams import operator as operator_module
from repro.workloads.scenarios import default_resilience_config, flaky_crowd_plan

from scaffolding import ConstantField

REGION = Rectangle(0.0, 0.0, 4.0, 4.0)


# ----------------------------------------------------------------------------
# The oracle: one handle_request per request, sensors visited in shuffled order
# ----------------------------------------------------------------------------


def shuffled_visits(rows, rng):
    """A random visiting order of a wave that keeps each sensor's requests in order.

    Position ``s`` of the result is the request answered at step ``s``:
    the ``j``-th visit to a sensor answers its ``j``-th request.
    """
    visits = rng.permutation(rows.size)
    slots = np.argsort(rows[visits], kind="stable")  # visit steps, grouped by sensor
    requests = np.argsort(rows, kind="stable")  # requests, grouped by sensor
    order = np.empty_like(visits)
    order[slots] = requests
    return order


def per_object_answer(self, field_model, rows, request_times, multipliers, replacement_used):
    """``_PerSensorStreams.answer`` by asking each sensor, one request at a time.

    ``handle_request`` returns ``t + latency``; the exact latency the wave
    loop needs is the one the sensor's ``decide`` returned, recorded here.
    """
    del replacement_used
    rng = np.random.default_rng([rows.size, int(rows.sum())])
    responded = np.zeros(rows.size, dtype=bool)
    latencies = np.zeros(rows.size)
    values = [None] * rows.size
    for k in shuffled_visits(rows, rng).tolist():
        sensor = self._world.sensors_at(rows[k : k + 1])[0]
        model = sensor.participation
        decisions = []

        def recording(*args, _decide=model.decide, **kwargs):
            decisions.append(_decide(*args, **kwargs))
            return decisions[-1]

        model.decide = recording
        try:
            row = sensor.handle_request(
                field_model, float(request_times[k]),
                incentive_multiplier=float(multipliers[k]),
            )
        finally:
            del model.decide
        (decision,) = decisions
        assert (row is not None) == decision.responds
        if row is not None:
            assert row[0] == request_times[k] + decision.latency
            responded[k] = True
            latencies[k] = decision.latency
            values[k] = row[3]
    answered = np.flatnonzero(responded)
    column = _value_column([values[k] for k in answered.tolist()])
    return responded, latencies[answered], column


# ----------------------------------------------------------------------------
# Worlds: the same seeded crowd twice, one answered by the oracle
# ----------------------------------------------------------------------------


class PairField(PhenomenonField):
    """Tuple-valued observations through the base ``values_from_uniforms``."""

    attribute = "pair"

    def value(self, t, x, y, rng=None):
        return (round(x, 3), float(rng.random()))


class SteppingIncentive(IncentiveScheme):
    """The payment (and so the multiplier) changes from request to request."""

    def __init__(self):
        super().__init__()
        self._served = 0

    def payment_for_request(self):
        self._served += 1
        payment = 0.2 * (self._served % 3)
        self.record_payment(payment)
        return payment

    def multiplier(self):
        return 1.0 + 0.15 * (self._served % 3)


class NeverRespond(ParticipationModel):
    """A custom model: walked request by request."""

    def decide(self, sensor_id, t, uniforms, *, incentive_multiplier=1.0):
        return ResponseDecision.no_response()


class NeverRespondStationary(ParticipationModel):
    """The same behaviour as stationary parameters: decided in the vectorised pass."""

    def vector_params(self):
        return (0.0, 0.0, 0.0, False)


def mixed(sensor_id):
    kind = sensor_id % 3
    if kind == 0:
        return AlwaysRespond()
    if kind == 1:
        return BernoulliParticipation(0.7, mean_latency=0.1)
    return FatigueParticipation(0.7, fatigue_per_request=0.03)


PARTICIPATION = {
    "always": None,  # the default world: AlwaysRespond, stationary
    "bernoulli": lambda i: BernoulliParticipation(0.7, mean_latency=0.1),
    "mixed": mixed,  # stationary rows and walked fatigue rows in one wave
}

#: Crowds whose every row is walked request by request.
WALKED = {
    "fatigue": lambda i: FatigueParticipation(0.7, fatigue_per_request=0.03),
    # Three parameterisations, and a recovery fast enough that a decision
    # depends on the request's time as well as on the sensor's history.
    "recovering": lambda i: FatigueParticipation(
        0.9 - 0.1 * (i % 3), fatigue_per_request=0.1, recovery_per_time=0.5
    ),
}

INCENTIVES = {
    "flat": lambda: FlatIncentive(0.25),
    "stepping": SteppingIncentive,
}

#: (sensors, budget): every cell's population covers its budget / every
#: cell is sampled with replacement, a sensor answering 2-30 requests a round.
CROWDS = {"covering": (400, 20), "replacement": (24, 40)}

ATTRIBUTES = ("rain", "temp", "value", "pair")


def make_world(sensor_count, participation, seed=31):
    world = SensingWorld(
        WorldConfig(region=REGION, sensor_count=sensor_count, seed=seed),
        mobility_factory=lambda r: RandomWaypointMobility(r, speed=0.4, pause=0.2),
        participation_factory=participation,
    )
    world.register_field(RainField(REGION, band_width=2.0))
    world.register_field(
        TemperatureField(REGION, heat_islands=[(1.0, 1.0, 3.0, 0.5), (3.0, 2.5, 2.0, 0.8)])
    )
    world.register_field(ConstantField(1.5))
    world.register_field(PairField())
    return world


def make_handler(world, *, budget, incentive=None, flaky=False, oracle=False):
    faults = health = resilience = None
    if flaky:
        resilience = default_resilience_config()
        faults = FaultInjector(flaky_crowd_plan(), world.state_arrays)
        health = SensorHealthMonitor(resilience.health, world.state_arrays)
    handler = RequestResponseHandler(
        world, Grid(REGION, side=2), default_budget=budget, incentive=incentive,
        faults=faults, resilience=resilience, health=health,
    )
    if oracle:
        policy = handler._per_sensor
        policy.answer = types.MethodType(per_object_answer, policy)
    return handler


def make_pair(
    sensor_count, participation, *, budget, incentive=None, flaky=False, seed=31,
):
    """``(world, handler)`` twice from the same seeds; the second uses the oracle."""
    pairs = []
    for oracle in (False, True):
        world = make_world(sensor_count, participation, seed)
        handler = make_handler(
            world, budget=budget, incentive=incentive() if incentive else None,
            flaky=flaky, oracle=oracle,
        )
        pairs.append((world, handler))
    return pairs


def column_image(column):
    column = np.asarray(column)
    if column.dtype == object:
        return ("object", [(type(v), v) for v in column.tolist()])
    return (column.dtype.str, column.tobytes())


def batch_image(batch):
    columns = {
        name: column_image(getattr(batch, name))
        for name in ("t", "x", "y", "value", "sensor_id", "tuple_id")
    }
    extras = [(name, column_image(column)) for name, column in batch.extra.items()]
    return batch.attribute, columns, extras


def generator_states(world):
    """Every stream a round could touch: the movement counters and the world's."""
    return [world.state_arrays.moves_drawn.tobytes(), world.rng.bit_generator.state]


def assert_same_round(ours, oracle, attribute_cells, duration=1.0):
    """Run one round on both sides and compare everything it touched."""
    (world, handler), (ref_world, ref_handler) = ours, oracle
    batches, report = handler.acquire_batches(attribute_cells, duration=duration)
    ref_batches, ref_report = ref_handler.acquire_batches(attribute_cells, duration=duration)
    assert list(batches) == list(ref_batches)
    for attribute, batch in batches.items():
        assert batch_image(batch) == batch_image(ref_batches[attribute])
    assert report == ref_report
    soa, ref_soa = world.state_arrays, ref_world.state_arrays
    assert soa.requests_received.tobytes() == ref_soa.requests_received.tobytes()
    assert soa.responses_sent.tobytes() == ref_soa.responses_sent.tobytes()
    assert generator_states(world) == generator_states(ref_world)
    return batches, report


def run_rounds(ours, oracle, attributes, rounds):
    cells = list(ours[1].grid.cells())
    attribute_cells = {attribute: cells for attribute in attributes}
    seen = []
    for _ in range(rounds):
        seen.append(assert_same_round(ours, oracle, attribute_cells))
        ours[0].advance(1.0)
        oracle[0].advance(1.0)
    return seen


# ----------------------------------------------------------------------------
# The matrix
# ----------------------------------------------------------------------------


@pytest.mark.parametrize("flaky", [False, True], ids=["healthy", "flaky"])
@pytest.mark.parametrize("incentive", sorted(INCENTIVES))
@pytest.mark.parametrize("crowd", sorted(CROWDS))
@pytest.mark.parametrize("participation", sorted(PARTICIPATION))
def test_vectorised_wave_matches_shuffled_per_object_answers(
    participation, crowd, incentive, flaky
):
    sensor_count, budget = CROWDS[crowd]
    ours, oracle = make_pair(
        sensor_count, PARTICIPATION[participation], budget=budget,
        incentive=INCENTIVES[incentive], flaky=flaky,
    )
    seen = run_rounds(ours, oracle, ATTRIBUTES, rounds=4)
    assert all(set(batches) == set(ATTRIBUTES) for batches, _ in seen)
    assert seen[-1][0]["pair"].value.dtype == object
    if flaky:
        assert sum(report.retries_sent for _, report in seen) > 0


@pytest.mark.parametrize("crowd", sorted(CROWDS))
@pytest.mark.parametrize("participation", sorted(WALKED))
def test_walked_crowd_matches_shuffled_per_object_answers(participation, crowd):
    # Every row is decided by its model's decide, in each sensor's request
    # order; a fatigue level depends on the sensor's earlier requests.
    sensor_count, budget = CROWDS[crowd]
    ours, oracle = make_pair(
        sensor_count, WALKED[participation], budget=budget, incentive=SteppingIncentive,
    )
    seen = run_rounds(ours, oracle, ATTRIBUTES, rounds=3)
    assert all(report.responses_received for _, report in seen)
    if participation == "fatigue":
        world = ours[0]
        assert any(
            sensor.participation.current_probability(sensor.sensor_id, world.now) < 0.7
            for sensor in world.sensors
        )


def test_mixed_wave_walks_only_the_stateful_rows(monkeypatch):
    # The mixed crowd takes both halves of the pass in one wave: stationary
    # rows (always, bernoulli) are decided as columns, and only the fatigue
    # rows reach the per-request walk.
    (world, handler), _ = make_pair(24, mixed, budget=40)
    walked = []
    inner = _PerSensorStreams._decide_walked

    def counting(self, rows, request_times, multipliers, u, visit, responded, latencies):
        walked.append(rows[visit])
        return inner(self, rows, request_times, multipliers, u, visit, responded, latencies)

    monkeypatch.setattr(_PerSensorStreams, "_decide_walked", counting)
    _, report = handler.acquire_batches({"temp": list(handler.grid.cells())}, duration=1.0)
    walked_rows = np.concatenate(walked)
    assert 0 < walked_rows.size < report.requests_sent
    assert set(world.state_arrays.sensor_ids[walked_rows] % 3) == {2}


@settings(max_examples=25, deadline=None)
@given(
    sensor_count=st.integers(1, 60),
    budget=st.integers(1, 80),
    participation=st.sampled_from(sorted(PARTICIPATION) + sorted(WALKED)),
    seed=st.integers(0, 2 ** 16),
)
def test_any_crowd_and_budget_matches(sensor_count, budget, participation, seed):
    ours, oracle = make_pair(
        sensor_count, {**PARTICIPATION, **WALKED}[participation], budget=budget,
        incentive=SteppingIncentive, seed=seed,
    )
    run_rounds(ours, oracle, ("rain", "temp"), rounds=2)


# ----------------------------------------------------------------------------
# The keyed draws themselves
# ----------------------------------------------------------------------------


def test_a_request_draws_its_sensors_block_at_its_counter():
    # handle_request's c-th answer is a function of (key, sensor, c) alone:
    # two worlds with the same seed, asked in different sensor orders,
    # answer each sensor identically.
    ours = make_world(12, PARTICIPATION["bernoulli"])
    other = make_world(12, PARTICIPATION["bernoulli"])
    field_model = ours.field_for("temp")
    answers, other_answers = {}, {}
    for sensor in ours.sensors:
        answers[sensor.sensor_id] = [
            sensor.handle_request(field_model, 0.25 * k) for k in range(5)
        ]
    for sensor in reversed(other.sensors):
        other_answers[sensor.sensor_id] = [
            sensor.handle_request(field_model, 0.25 * k) for k in range(5)
        ]
    assert answers == other_answers
    assert ours.acquisition_key == other.acquisition_key
    assert type(ours.acquisition_key) is int
    assert make_world(12, None, seed=32).acquisition_key != ours.acquisition_key


def test_acquisition_draws_nothing_from_the_generators():
    # Choices and request times come from the world stream; the answers
    # touch no generator at all, so a wave answered twice from the same
    # counters gives the same observations.
    world = make_world(40, PARTICIPATION["bernoulli"])
    policy = RequestResponseHandler(world, Grid(REGION, side=2))._per_sensor
    rows = np.array([3, 7, 7, 11, 3], dtype=np.int64)
    times = np.array([0.1, 0.2, 0.3, 0.4, 0.5])
    states = generator_states(world)
    soa = world.state_arrays
    first = policy.answer(world.field_for("temp"), rows, times, np.ones(5), True)
    assert generator_states(world) == states
    assert soa.requests_received[[3, 7, 11]].tolist() == [2, 2, 1]
    soa.requests_received[:] = 0
    soa.responses_sent[:] = 0
    second = policy.answer(world.field_for("temp"), rows, times, np.ones(5), True)
    for a, b in zip(first, second):
        assert a.tobytes() == b.tobytes()


# ----------------------------------------------------------------------------
# Edges
# ----------------------------------------------------------------------------


def test_zero_request_wave():
    ours, oracle = make_pair(10, None, budget=5)
    field_model = ours[0].field_for("temp")
    none = np.empty(0, dtype=np.int64)
    for _, handler in (ours, oracle):
        responded, latencies, values = handler._per_sensor.answer(
            field_model, none, np.empty(0), np.empty(0), False
        )
        assert responded.shape == latencies.shape == values.shape == (0,)
        assert (responded.dtype, latencies.dtype) == (bool, float)
    assert generator_states(ours[0]) == generator_states(oracle[0])
    assert not ours[0].state_arrays.requests_received.any()


@pytest.mark.parametrize("model", [NeverRespond, NeverRespondStationary])
@pytest.mark.parametrize("crowd", sorted(CROWDS))
def test_nobody_answers(model, crowd):
    sensor_count, budget = CROWDS[crowd]
    ours, oracle = make_pair(sensor_count, lambda i: model(), budget=budget)
    for batches, report in run_rounds(ours, oracle, ("rain", "temp"), rounds=2):
        assert batches == {}
        assert report.requests_sent == 2 * 4 * budget
        assert report.responses_received == 0
    assert int(ours[0].state_arrays.requests_received.sum()) == 2 * 2 * 4 * budget
    assert int(ours[0].state_arrays.responses_sent.sum()) == 0


# ----------------------------------------------------------------------------
# Snapshot shape: the vectorised wave leaves the same engine state as the oracle
# ----------------------------------------------------------------------------


class TestSnapshotShape:
    """A whole engine captured after vectorised waves equals one after the oracle's.

    Column bytes and generator states are compared round by round above;
    this compares everything else the wave could leave behind in any
    subsystem, as the checkpoint file sees it.
    """

    def make_engine(self, attribute, monkeypatch):
        # Operator and query ids come from process-wide counters and are part
        # of the payload: start both engines of a comparison from the same ids.
        monkeypatch.setattr(operator_module, "_operator_ids", itertools.count(1))
        world = SensingWorld(
            WorldConfig(region=REGION, sensor_count=120, seed=21),
            participation_factory=lambda i: BernoulliParticipation(0.7, mean_latency=0.1),
        )
        world.register_field(RainField(REGION, band_width=2.0))
        world.register_field(TemperatureField(REGION))
        engine = CraqrEngine(
            EngineConfig(
                grid_cells=4, seed=4, budget=BudgetConfig(initial=60, delta=5, limit=120)
            ),
            world,
        )
        engine.register_query(
            AcquisitionalQuery(
                attribute, RectRegion(Rectangle(0.0, 0.0, 4.0, 4.0)), rate=20.0,
                query_id=7,
            )
        )
        return engine

    @pytest.mark.parametrize("attribute", ["rain", "temp"])
    def test_snapshot_matches_the_oracle(self, attribute, monkeypatch, tmp_path):
        engine = self.make_engine(attribute, monkeypatch)
        engine.run(3)
        assert int((engine.world.state_arrays.responses_sent > 0).sum()) > 100
        ours = EngineSnapshot.capture(engine).write(tmp_path / "ours").read_bytes()

        with monkeypatch.context() as patch:
            patch.setattr(_PerSensorStreams, "answer", per_object_answer)
            reference = self.make_engine(attribute, monkeypatch)
            reference.run(3)
        assert EngineSnapshot.capture(reference).write(tmp_path / "ref").read_bytes() == ours

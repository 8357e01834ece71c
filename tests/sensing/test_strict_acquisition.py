"""Bit-identity of the strict acquisition walk.

``_PerSensorStreams.answer`` serves a strict wave in one sorted walk: a
stable sort by sensor row, plain ``handle_request`` calls for lone requests
and for every model whose decisions draw randomness, the vectorised
``handle_requests`` only for multi-request runs of batch-safe sensors.  The
per-sensor mask loop it replaced, and the ``handle_requests`` body with its
scalar-fallback branch, are kept here, under ``tests/``, as the oracle
(``reference_*`` below are verbatim copies of the pre-rewrite code; the
only edit is that the reference ``answer`` calls the reference
``handle_requests``).

Every strict golden in the repo — ``tests/recovery``, the compiled-plan
equivalence digests, the benchmark run digests — rests on the two agreeing
*exactly*: same generator calls in the same per-sensor order, same float
expressions, same snapshot bytes.  So the comparison is on bytes, types
and generator states, never ``allclose``.
"""

import itertools
import types
from typing import List, Tuple

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.config import BudgetConfig, EngineConfig
from repro.core.engine import CraqrEngine
from repro.core.query import AcquisitionalQuery
from repro.errors import AcquisitionError
from repro.faults import FaultInjector, SensorHealthMonitor
from repro.geometry import Grid, Rectangle, RectRegion
from repro.recovery import EngineSnapshot
from repro.sensing import (
    AlwaysRespond,
    BernoulliParticipation,
    ConstantField,
    DistanceDecayParticipation,
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
from repro.sensing.phenomena import PhenomenonField
from repro.streams import operator as operator_module
from repro.workloads.scenarios import default_resilience_config, flaky_crowd_plan

REGION = Rectangle(0.0, 0.0, 4.0, 4.0)


# ----------------------------------------------------------------------------
# The pre-rewrite acquisition (reference; do not "modernise")
# ----------------------------------------------------------------------------


def reference_handle_requests(
    self,
    field: PhenomenonField,
    times: np.ndarray,
    *,
    incentive_multiplier=1.0,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Answer a run of acquisition requests addressed to this sensor.

    The columnar acquisition path groups a cell round's requests by
    sensor and calls this once per sensor with the sensor's request
    times in ascending order.  ``incentive_multiplier`` is a scalar or
    an array aligned with ``times`` (an incentive scheme may change its
    payment mid-round).  Returns ``(answered, response_times, xs, ys,
    values)`` where ``answered`` is a boolean mask over the input
    ``times`` and the remaining arrays are aligned with the answered
    requests only.

    When the participation model is batch-safe (its decisions consume no
    randomness) the decisions and the sensing draws are vectorised while
    consuming the sensor's RNG stream exactly as the scalar
    :meth:`handle_request` loop would; otherwise the scalar loop runs,
    so both acquisition paths always produce identical observations.
    """
    times = np.asarray(times, dtype=float)
    n = times.shape[0]
    empty = np.empty(0)
    if n == 0:
        return np.empty(0, dtype=bool), empty, empty, empty, np.empty(0, dtype=object)
    multipliers = np.broadcast_to(
        np.asarray(incentive_multiplier, dtype=float), times.shape
    )
    if not self._participation.batch_safe:
        rows = [
            self.handle_request(field, float(t), incentive_multiplier=float(m))
            for t, m in zip(times, multipliers)
        ]
        answered = np.array([row is not None for row in rows], dtype=bool)
        kept = [row for row in rows if row is not None]
        if not kept:
            return answered, empty, empty, empty, np.empty(0, dtype=object)
        response_times = np.array([row[0] for row in kept], dtype=float)
        xs = np.array([row[1] for row in kept], dtype=float)
        ys = np.array([row[2] for row in kept], dtype=float)
        values = [row[3] for row in kept]
        try:
            value_column = np.asarray(values)
            if value_column.ndim != 1:  # e.g. list/tuple values
                raise ValueError
        except ValueError:
            value_column = np.empty(len(values), dtype=object)
            value_column[:] = values
        return answered, response_times, xs, ys, value_column

    self._arrays.requests_received[self._index] += n
    if np.all(multipliers == multipliers[0]):
        responds, latencies = self._participation.decide_many(
            self._sensor_id,
            times,
            incentive_multiplier=float(multipliers[0]),
            rng=self._rng,
        )
    else:
        # Batch-safe decisions consume no randomness, so per-request
        # multipliers can be honoured with scalar decide() calls while
        # the sensing draws below stay vectorised.
        responds = np.empty(n, dtype=bool)
        latencies = np.empty(n, dtype=float)
        for i in range(n):
            decision = self._participation.decide(
                self._sensor_id,
                float(times[i]),
                incentive_multiplier=float(multipliers[i]),
                rng=self._rng,
            )
            responds[i] = decision.responds
            latencies[i] = decision.latency
    respond_times = times[responds]
    k = respond_times.shape[0]
    if k == 0:
        return responds, empty, empty, empty, np.empty(0, dtype=object)
    xs = np.full(k, self._state.x, dtype=float)
    ys = np.full(k, self._state.y, dtype=float)
    values = field.values(respond_times, xs, ys, rng=self._rng)
    self._arrays.responses_sent[self._index] += k
    return responds, respond_times + latencies[responds], xs, ys, values



def reference_answer(self, field_model, rows, request_times, multipliers, replacement_used):
    positions: List[np.ndarray] = []
    response_times: List[np.ndarray] = []
    values: List[np.ndarray] = []
    asked = np.unique(rows)
    for row, sensor in zip(asked, self._world.sensors_at(asked)):
        mask = rows == row
        answered, times, _xs, _ys, sensed = reference_handle_requests(
            sensor, field_model, request_times[mask], incentive_multiplier=multipliers[mask]
        )
        if times.shape[0]:
            positions.append(np.nonzero(mask)[0][answered])
            response_times.append(times)
            values.append(np.asarray(sensed))
    responded = np.zeros(rows.size, dtype=bool)
    if not positions:
        return responded, np.empty(0), np.empty(0, dtype=object)
    # Back into global request order, so tuple ids are allocated one
    # per response in request order whatever the per-sensor grouping.
    answered_positions = np.concatenate(positions)
    order = np.argsort(answered_positions, kind="stable")
    answered_positions = answered_positions[order]
    responded[answered_positions] = True
    latencies = (
        np.concatenate(response_times)[order] - request_times[answered_positions]
    )
    return responded, latencies, np.concatenate(values)[order]



# ----------------------------------------------------------------------------
# Worlds: the same seeded crowd twice, one answered by the oracle
# ----------------------------------------------------------------------------


class PairField(PhenomenonField):
    """Tuple-valued observations: the value column must fall back to object dtype."""

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
    def decide(self, sensor_id, t, *, incentive_multiplier=1.0, rng=None):
        return ResponseDecision.no_response()


class NeverRespondBatchSafe(NeverRespond):
    batch_safe = True


def distance_decay(sensor_id):
    model = DistanceDecayParticipation(0.8, mean_latency=0.1)
    model.set_distance(sensor_id, (sensor_id % 7) * 0.1)
    return model


def mixed(sensor_id):
    kind = sensor_id % 3
    if kind == 0:
        return AlwaysRespond()
    if kind == 1:
        return BernoulliParticipation(0.7, mean_latency=0.1)
    return FatigueParticipation(0.7, fatigue_per_request=0.03)


PARTICIPATION = {
    "always": None,  # the default world: AlwaysRespond, batch-safe
    "bernoulli": lambda i: BernoulliParticipation(0.7, mean_latency=0.1),
    "fatigue": lambda i: FatigueParticipation(0.7, fatigue_per_request=0.03),
    "distance": distance_decay,
    "mixed": mixed,
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
        policy.answer = types.MethodType(reference_answer, policy)
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
    states = [sensor._rng.bit_generator.state for sensor in world.sensors]
    return states + [world.rng.bit_generator.state]


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
def test_walk_matches_the_per_sensor_mask_loop(participation, crowd, incentive, flaky):
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


def test_runs_mix_scalar_and_vectorised_answers():
    # The mixed crowd under replacement really takes both branches of the
    # walk in one wave: batch-safe sensors answer multi-request runs through
    # handle_requests, everyone else request by request.
    (world, handler), _ = make_pair(24, mixed, budget=40)
    calls = {"vector": 0, "scalar": 0}
    for sensor in world.sensors:
        vector, scalar = sensor.handle_requests, sensor.handle_request

        def counting_vector(*args, _inner=vector, **kwargs):
            calls["vector"] += 1
            return _inner(*args, **kwargs)

        def counting_scalar(*args, _inner=scalar, **kwargs):
            calls["scalar"] += 1
            return _inner(*args, **kwargs)

        sensor.handle_requests = counting_vector
        sensor.handle_request = counting_scalar
    handler.acquire_batches({"temp": list(handler.grid.cells())}, duration=1.0)
    assert calls["vector"] > 0 and calls["scalar"] > 0


@settings(max_examples=25, deadline=None)
@given(
    sensor_count=st.integers(1, 60),
    budget=st.integers(1, 80),
    participation=st.sampled_from(sorted(PARTICIPATION)),
    seed=st.integers(0, 2 ** 16),
)
def test_walk_matches_for_any_crowd_and_budget(sensor_count, budget, participation, seed):
    ours, oracle = make_pair(
        sensor_count, PARTICIPATION[participation], budget=budget,
        incentive=SteppingIncentive, seed=seed,
    )
    run_rounds(ours, oracle, ("rain", "temp"), rounds=2)


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
        assert (responded.dtype, latencies.dtype, values.dtype) == (bool, float, object)
    assert generator_states(ours[0]) == generator_states(oracle[0])


@pytest.mark.parametrize("model", [NeverRespond, NeverRespondBatchSafe])
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


def test_vectorised_run_rejects_a_model_that_draws():
    # handle_requests no longer carries a scalar fallback: a model whose
    # decisions consume randomness can only be walked request by request.
    world = make_world(4, PARTICIPATION["bernoulli"])
    sensor = world.sensors[0]
    before = sensor._rng.bit_generator.state
    with pytest.raises(AcquisitionError):
        sensor.handle_requests(world.field_for("temp"), np.array([0.1, 0.2]))
    assert sensor._rng.bit_generator.state == before
    assert sensor.requests_received == 0


# ----------------------------------------------------------------------------
# Snapshot shape: the walk leaves the same engine state as the oracle
# ----------------------------------------------------------------------------


class TestSnapshotShape:
    """A whole engine captured after the walk equals one captured after the oracle.

    Column bytes and generator states are compared round by round above;
    this compares everything else the walk could leave behind in any
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
                attribute, RectRegion.from_bounds(0.0, 0.0, 4.0, 4.0), rate=20.0,
                query_id=7,
            )
        )
        return engine

    @pytest.mark.parametrize("attribute", ["rain", "temp"])
    def test_snapshot_matches_the_oracle(self, attribute, monkeypatch):
        engine = self.make_engine(attribute, monkeypatch)
        engine.run(3)
        assert int((engine.world.state_arrays.responses_sent > 0).sum()) > 100
        ours = EngineSnapshot.capture(engine).to_bytes()

        with monkeypatch.context() as patch:
            patch.setattr(_PerSensorStreams, "answer", reference_answer)
            reference = self.make_engine(attribute, monkeypatch)
            reference.run(3)
        assert EngineSnapshot.capture(reference).to_bytes() == ours

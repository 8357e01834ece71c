"""A crowd row holds its participation group's code, not the group's parameters.

``SensorStateArrays`` keeps each participation group's stationary
``vector_params`` once, in ``participation_table``, and each row the
group's int32 code; the handler gathers the requests' codes once per wave
and indexes the table's fields with them.  The layout it replaced — five per-row columns (``p_base``,
``p_max``, ``latency_mean``, ``incentive_sensitive``,
``vector_participation``) written by the old ``set_participation`` — is
kept here as the oracle (``per_row_columns``, ``old_respond_probabilities``;
do not "modernise" them).  On mixed crowds (``AlwaysRespond``,
incentive-sensitive and insensitive ``BernoulliParticipation``, stateful
``FatigueParticipation``) and under both RNG contracts the table must give
the same bytes: response probabilities under incentive multipliers, latency
means, walked-row masks, and whole answered waves.

The census pins what a row costs, so a per-group value that comes back as a
per-row column fails here.
"""

import copy
import re

import numpy as np
import pytest

from repro.geometry import Rectangle
from repro.sensing import (
    AlwaysRespond,
    BernoulliParticipation,
    FatigueParticipation,
    RandomWaypointMobility,
    SensingWorld,
    SensorStateArrays,
    TemperatureField,
    WorldConfig,
)
from repro.sensing import handler as handler_module
from repro.sensing.handler import _participation_lookup, _policy_for, _respond_probabilities
from repro.sensing.state import PARTICIPATION_DTYPE

REGION = Rectangle(0.0, 0.0, 4.0, 4.0)
CONTRACTS = pytest.mark.parametrize("vectorized", [False, True], ids=["strict", "fast"])
OLD_COLUMNS = ("p_base", "p_max", "latency_mean", "incentive_sensitive", "vector_participation")


def per_row_columns(count, groups, params):
    """The five per-row participation columns a SoA held before the group table.

    The body of the ``set_participation`` that wrote them: row ``i`` takes
    ``params[groups[i]]``; the rows of a ``None`` group keep the defaults,
    ``vector_participation`` False among them.
    """
    columns = {
        "p_base": np.ones(count, dtype=np.float64),
        "p_max": np.ones(count, dtype=np.float64),
        "latency_mean": np.zeros(count, dtype=np.float64),
        "incentive_sensitive": np.zeros(count, dtype=bool),
        "vector_participation": np.zeros(count, dtype=bool),
    }
    codes = [code for code, group in enumerate(params) if group is not None]
    if not codes:
        return columns
    slot = np.full(len(params), -1)
    slot[codes] = np.arange(len(codes))
    slot = slot[groups]
    rows = slot >= 0
    table = np.array([params[code] for code in codes], dtype=np.float64)[slot[rows]]
    columns["p_base"][rows], columns["p_max"][rows], columns["latency_mean"][rows] = table[:, :3].T
    columns["incentive_sensitive"][rows] = table[:, 3] != 0.0
    columns["vector_participation"][rows] = True
    return columns


def old_respond_probabilities(columns, rows, multipliers):
    """Each request's response probability from the per-row columns."""
    p_base = columns["p_base"][rows]
    return np.where(
        columns["incentive_sensitive"][rows],
        np.minimum(p_base * multipliers, columns["p_max"][rows]),
        p_base,
    )


def columns_of(world):
    """The per-row columns the old layout would hold for ``world``'s crowd."""
    soa = world.state_arrays
    params = [model.vector_params() for model in world._participation_models]
    return per_row_columns(len(soa), soa.participation, params)


class Deaf(BernoulliParticipation):
    """A Bernoulli sensor that incentives do not move."""

    def vector_params(self):
        p_base, p_max, latency_mean, _ = super().vector_params()
        return (p_base, p_max, latency_mean, False)


def mixed_participation(sensor_id):
    """Five kinds in turn; every fatigue sensor is a model of its own."""
    kind = sensor_id % 5
    if kind == 0:
        return AlwaysRespond()
    if kind == 1:
        return BernoulliParticipation(0.6, mean_latency=0.3, max_probability=0.95)
    if kind == 2:
        return Deaf(0.5, mean_latency=0.1)
    if kind == 3:
        return FatigueParticipation(0.7, fatigue_per_request=0.2, max_probability=0.9)
    return BernoulliParticipation(0.3, mean_latency=0.2, max_probability=0.6)


def mixed_world(vectorized, count=400, seed=23):
    world = SensingWorld(
        WorldConfig(region=REGION, sensor_count=count, seed=seed, vectorized_rng=vectorized),
        mobility_factory=lambda region: RandomWaypointMobility(region, speed=0.4),
        participation_factory=mixed_participation,
    )
    world.register_field(TemperatureField(REGION))
    return world


def wave(rng, count, size=600):
    """Rows (with repeats), ascending request times and multipliers of one wave."""
    rows = rng.integers(0, count, size)
    times = np.sort(rng.uniform(0.0, 1.0, size))
    multipliers = rng.uniform(0.5, 3.0, size)
    return rows, times, multipliers


@CONTRACTS
def test_table_entries_equal_the_per_row_columns(vectorized):
    world = mixed_world(vectorized)
    soa = world.state_arrays
    columns = columns_of(world)
    rows, _, multipliers = wave(np.random.default_rng(5), len(soa))
    table, index = _participation_lookup(soa, rows)
    for name in OLD_COLUMNS:
        got = table[name][index]
        assert got.dtype == columns[name].dtype, name
        assert got.tobytes() == columns[name][rows].tobytes(), name
    got = _respond_probabilities(table, index, multipliers)
    expected = old_respond_probabilities(columns, rows, multipliers)
    assert got.tobytes() == expected.tobytes()
    walked = ~table["vector_participation"][index]
    assert walked.tobytes() == (~columns["vector_participation"][rows]).tobytes()
    # Only the fatigue rows are walked, some boosts hit their cap, and some
    # stationary rows are deaf to incentives.
    assert set((rows % 5)[walked].tolist()) == {3}
    assert np.any(got == columns["p_max"][rows]) and np.any(got > columns["p_base"][rows])
    assert np.any(columns["incentive_sensitive"][rows] != columns["vector_participation"][rows])


@CONTRACTS
def test_waves_answer_as_from_per_row_columns(vectorized, monkeypatch):
    # The same waves answered twice from identical worlds: once through the
    # table, once with each request's fields read from the per-row columns.
    world = mixed_world(vectorized)
    twin = copy.deepcopy(world)
    columns = columns_of(twin)

    def from_columns(soa, rows):
        return columns, rows

    rng = np.random.default_rng(9)
    field_model = world.field_for("temp")
    policy, twin_policy = _policy_for(world), _policy_for(twin)
    for step in range(6):
        rows, times, multipliers = wave(rng, len(world.state_arrays))
        times += world.now
        got = policy.answer(field_model, rows, times, multipliers, True)
        with monkeypatch.context() as patch:
            patch.setattr(handler_module, "_participation_lookup", from_columns)
            expected = twin_policy.answer(field_model, rows, times, multipliers, True)
        for a, b in zip(got, expected):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), step
        assert world.rng.bit_generator.state == twin.rng.bit_generator.state, step
        fatigue = [m for m in world._participation_models if isinstance(m, FatigueParticipation)]
        twin_fatigue = [
            m for m in twin._participation_models if isinstance(m, FatigueParticipation)
        ]
        assert [m._fatigue for m in fatigue] == [m._fatigue for m in twin_fatigue], step
        assert any(m._fatigue for m in fatigue)
        for side in (world, twin):  # as the wave loop bumps them
            np.add.at(side.state_arrays.requests_received, rows, 1)
            side.advance(1.0)


def test_a_row_costs_its_documented_bytes():
    world = mixed_world(False, count=257)
    soa = world.state_arrays
    documented = re.search(r"A row costs (\d+) bytes", SensorStateArrays.__doc__)
    assert documented is not None and int(documented.group(1)) == 85
    per_row = [name for name in SensorStateArrays.__slots__ if name != "participation_table"]
    assert all(getattr(soa, name).shape == (257,) for name in per_row)
    assert sum(getattr(soa, name).nbytes for name in per_row) == 85 * 257
    # One entry per group: an AlwaysRespond, three Bernoulli kinds and
    # every fatigue sensor (a stateful model is a group of its own).
    table = soa.participation_table
    assert table.dtype == PARTICIPATION_DTYPE
    assert table.shape == (len(world._participation_models),) == (4 + 51,)
    assert soa.participation.dtype == np.int32

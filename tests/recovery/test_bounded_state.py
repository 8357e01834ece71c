"""Engine state stays bounded under ``retention_batches``.

A service-mode engine checkpoints whatever it retains, so with
``retention_batches=R`` the pickled state must stop growing once R
batches have run: the class census of the snapshot payload is the same
after 3R and after 6R batches.  Every Flatten operator keeps the reports
of its newest R batches (fewer only while it is younger than that), and
bounding that history changes nothing the engine computes: budget
feedback and every batch's deliveries equal an unbounded twin's.

The crowd is pickled as its columns: the pickler meets no ``MobileSensor``
view and at most one mobility and one participation model per group the
world keeps (one per stateful participation model), and an engine restored
from such a payload replays byte-identically.
"""

from __future__ import annotations

import collections
import hashlib
import io
import pickle

import pytest

from repro.recovery import EngineSnapshot
from repro.recovery.snapshot import _SnapshotPickler
from repro.sensing import (
    BernoulliParticipation,
    FatigueParticipation,
    MobileSensor,
    MobilityModel,
    ParticipationModel,
)

from recovery_harness import engine_digest, make_engine

RETENTION = 4

CASES = {
    "strict": dict(faults=False),
    "fast-sim": dict(faults=False, vectorized=True),
    "flaky-mitigated": dict(faults=True),
    "online": dict(faults=False, online_estimation=True),
    "alter-region": dict(faults=False),
}

#: Batch after which the ``alter-region`` case moves its query, creating
#: chains in cells the query did not reach before.
ALTER_AT = 2


class _CountingPickler(_SnapshotPickler):
    """The snapshot pickler, counting every object it reduces by class."""

    def __init__(self, file) -> None:
        super().__init__(file, protocol=pickle.HIGHEST_PROTOCOL)
        self.counts = collections.Counter()

    def reducer_override(self, obj):
        cls = type(obj)
        self.counts[f"{cls.__module__}.{cls.__qualname__}"] += 1
        return NotImplemented


def _census(engine) -> collections.Counter:
    pickler = _CountingPickler(io.BytesIO())
    pickler.dump(engine)
    return pickler.counts


def _flattens(engine):
    planner = engine.planner
    for key in planner.materialized_cells:
        topology = planner.cell_topology(key)
        for attribute in topology.attributes:
            yield topology.chain(attribute).flatten


def _violations(engine):
    return [
        (flatten.name, flatten.last_violation_percent) for flatten in _flattens(engine)
    ]


class _Deliveries:
    """Per-batch SHA-256 of everything delivered to every query."""

    def __init__(self, engine) -> None:
        self._cursors = {
            handle.query_id: handle.buffer.cursor()
            for handle in engine.query_handles()
        }

    def batch_digest(self) -> str:
        h = hashlib.sha256()
        for query_id in sorted(self._cursors):
            batch = self._cursors[query_id].fetch_batch()
            h.update(str(query_id).encode())
            for column in (batch.t, batch.x, batch.y, batch.sensor_id, batch.tuple_id):
                h.update(column.tobytes())
            h.update(repr(batch.value.tolist()).encode())
        return h.hexdigest()


@pytest.mark.parametrize("case", sorted(CASES))
def test_state_is_bounded_and_computes_what_an_unbounded_twin_does(case):
    options = CASES[case]
    bounded = make_engine(retention_batches=RETENTION, **options)
    bounded_deliveries = _Deliveries(bounded)
    twin = make_engine(retention_batches=None, **options)
    twin_deliveries = _Deliveries(twin)

    #: the batch count at which each Flatten operator was first seen
    #: (a rebuilt chain gets a new operator with an empty history).
    born = {}
    censuses = {}
    for batch in range(1, 6 * RETENTION + 1):
        if case == "alter-region" and batch == ALTER_AT + 1:
            for engine in (bounded, twin):
                engine.execute("ALTER Storm SET REGION RECT(1, 1, 4, 4)")
        for flatten in _flattens(bounded):
            born.setdefault(flatten, bounded.batches_run)
        bounded.run_batch()
        twin.run_batch()

        assert _violations(bounded) == _violations(twin), f"batch {batch}"
        assert bounded_deliveries.batch_digest() == twin_deliveries.batch_digest(), (
            f"batch {batch}"
        )
        for flatten in _flattens(bounded):
            assert len(flatten.reports) == min(batch - born[flatten], RETENTION)
        if batch in (3 * RETENTION, 6 * RETENTION):
            censuses[batch] = _census(bounded)

    if case == "alter-region":
        # The query reaches cells it did not reach before the ALTER.
        assert len(born) > len(list(_flattens(make_engine(**options))))
    early, late = censuses[3 * RETENTION], censuses[6 * RETENTION]
    grown = {
        name: (early[name], count)
        for name, count in late.items()
        if count > early[name]
    }
    assert not grown, f"classes whose count grows with batches run: {grown}"


def test_unbounded_history_keeps_every_report():
    engine = make_engine(faults=False)
    engine.run(3 * RETENTION)
    assert {len(flatten.reports) for flatten in _flattens(engine)} == {3 * RETENTION}


class _RecordingPickler(_SnapshotPickler):
    """The snapshot pickler, keeping every object it reduces (each once: memo)."""

    def __init__(self, file) -> None:
        super().__init__(file, protocol=pickle.HIGHEST_PROTOCOL)
        self.met = []

    def reducer_override(self, obj):
        self.met.append(obj)
        return NotImplemented


def _met(engine, cls):
    pickler = _RecordingPickler(io.BytesIO())
    pickler.dump(engine)
    return [obj for obj in pickler.met if isinstance(obj, cls)]


#: Participation factories: every sensor alike, and one in ten stateful.
PARTICIPATION = {
    "bernoulli": None,
    "mixed-fatigue": lambda sensor_id: (
        FatigueParticipation(0.7) if sensor_id % 10 == 0
        else BernoulliParticipation(0.6, mean_latency=0.1)
    ),
}


@pytest.mark.parametrize("participation", sorted(PARTICIPATION))
def test_the_crowd_is_pickled_as_its_columns(participation):
    # The flaky_ckpt shape: strict crowd, every fault class, full mitigation.
    engine = make_engine(participation=PARTICIPATION[participation])
    engine.run(3)
    world = engine.world
    assert not _met(engine, MobileSensor)
    mobility = _met(engine, MobilityModel)
    assert mobility == [model for model, _ in world._mobility_groups] and len(mobility) == 1
    models = _met(engine, ParticipationModel)
    assert sorted(map(id, models)) == sorted(map(id, world._participation_models))
    stationary = [m for m in models if m.vector_params() is not None]
    assert len(stationary) == 1
    assert len(models) == (1 if participation == "bernoulli" else 1 + 8)


@pytest.mark.parametrize("participation", sorted(PARTICIPATION))
def test_restore_then_replay_is_byte_identical(participation):
    engine = make_engine(participation=PARTICIPATION[participation])
    engine.run(4)
    restored = EngineSnapshot.from_bytes(EngineSnapshot.capture(engine).to_bytes()).restore()
    engine.run(4)
    restored.run(4)
    assert engine_digest(restored) == engine_digest(engine)


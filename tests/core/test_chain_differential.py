"""Same-input differential: compiled chain programs vs the per-tuple object walk.

The chain executor never sees the RNG contract the batch was acquired
under — it sees an acquired :class:`TupleBatch`.  So the reference for the
compiled programs that holds under *both* contracts is the object walk fed
the very same rows: two identically seeded planners, one driven through
``process_batch_columnar`` with compiled programs, the other through
``map_tuples`` + ``process_batch`` over ``to_tuples()`` of the same
batches.  Deliveries, the :class:`BatchResult`, every Flatten report and
estimator state, every operator counter and every recorded discard must
match exactly.  The engine has no per-tuple mode, so this is where the
compiled pipeline meets its reference — under both RNG contracts, for a
Bernoulli crowd, an ``AlwaysRespond`` crowd (every request answered and
never delayed: the widest batches) and a paying handler (the
``incentive`` extra column must ride through the compiled programs and equal
the walk's per-tuple metadata).
"""

import numpy as np
import pytest

from repro.core import AcquisitionalQuery, QueryPlanner, StreamFabricator
from repro.geometry import Grid, Rectangle
from repro.plan import executor
from repro.sensing import (
    AlwaysRespond,
    BernoulliParticipation,
    FlatIncentive,
    RainField,
    RandomWaypointMobility,
    RequestResponseHandler,
    SensingWorld,
    TemperatureField,
    WorldConfig,
)
from repro.streams import TupleBatch
from scaffolding import compile_programs

REGION = Rectangle(0, 0, 4, 4)
GRID = Grid(REGION, side=4)
BATCHES = 4


def make_queries():
    """Two attributes, two thin levels, partial overlaps and a shared predicate."""
    carve = Rectangle(0.5, 0.5, 2.5, 1.5)
    return [
        AcquisitionalQuery("rain", Rectangle(0, 0, 2, 2), 8.0),
        AcquisitionalQuery("rain", carve, 4.0),
        AcquisitionalQuery("rain", carve, 4.0),
        AcquisitionalQuery("temp", Rectangle(1, 1, 3, 3), 6.0),
    ]


def bernoulli(sensor_id):
    return BernoulliParticipation(0.8, mean_latency=0.05)


#: crowd id -> (participation factory, flat payment per request or None)
CROWDS = {
    "bernoulli": (bernoulli, None),
    "always-respond": (lambda sensor_id: AlwaysRespond(), None),
    "paid": (bernoulli, 0.25),
}


def make_world(vectorized, participation_factory):
    world = SensingWorld(
        WorldConfig(
            region=REGION, sensor_count=400, seed=11, vectorized_rng=vectorized
        ),
        mobility_factory=lambda r: RandomWaypointMobility(r, speed=0.25, pause=0.5),
        participation_factory=participation_factory,
    )
    world.register_field(RainField(REGION, band_width=1.2, period=60.0))
    world.register_field(TemperatureField(REGION))
    return world


class Side:
    """One planner + fabricator with recording delivery and discard sinks."""

    def __init__(self, queries, *, online, store_discarded):
        self.delivered = {}
        self.discards = {}
        self.planner = QueryPlanner(
            GRID,
            online_estimation=online,
            discard_recorder=self.record_discard if store_discarded else None,
            rng=np.random.default_rng(5),
        )
        self.fabricator = StreamFabricator(self.planner, GRID)
        for query in queries:
            self.planner.insert_query(
                query,
                on_result=self.deliver_item,
                on_result_batch=self.deliver_batch,
            )

    def record_discard(self, operator_name, item):
        self.discards.setdefault(operator_name, []).append(item)

    def deliver_item(self, query_id, item):
        self.delivered.setdefault(query_id, []).append(item)
        self.fabricator.register_delivery(query_id)

    def deliver_batch(self, query_id, batch):
        self.delivered.setdefault(query_id, []).extend(batch.to_tuples())
        self.fabricator.register_delivery_batch(query_id, len(batch))

    def operator_state(self):
        """Counters, reports and estimator state of every chain operator."""
        state = {}
        for key in self.planner.materialized_cells:
            topology = self.planner.cell_topology(key)
            for op in topology.stream_topology.operators:
                state[op.name] = (
                    op.tuples_in,
                    op.tuples_out,
                    getattr(op, "dropped", None),
                )
            for attribute in topology.attributes:
                flatten = topology.chain(attribute).flatten
                estimator = flatten._online_estimator
                state["reports", flatten.name] = (
                    flatten.reports,
                    None if estimator is None else (estimator.theta, estimator.updates),
                )
        return state


def silence(batches):
    """Empty cell (0, 0) of rain and drop the temp attribute altogether."""
    rain = batches["rain"]
    return {"rain": rain.select(~((rain.x < 1.0) & (rain.y < 1.0)))}


@pytest.mark.parametrize("crowd", list(CROWDS))
@pytest.mark.parametrize("silent", [False, True], ids=["all-cells", "silent-cell"])
@pytest.mark.parametrize("store_discarded", [False, True], ids=["plain", "discards"])
@pytest.mark.parametrize("online", [False, True], ids=["mle", "online-sgd"])
@pytest.mark.parametrize("vectorized", [False, True], ids=["strict", "fast-sim"])
def test_compiled_programs_match_the_object_walk(
    vectorized, online, store_discarded, silent, crowd
):
    queries = make_queries()
    compiled = Side(queries, online=online, store_discarded=store_discarded)
    walked = Side(queries, online=online, store_discarded=store_discarded)
    participation_factory, payment = CROWDS[crowd]
    world = make_world(vectorized, participation_factory)
    handler = RequestResponseHandler(
        world,
        GRID,
        default_budget=60,
        incentive=FlatIncentive(payment) if payment else None,
    )

    for index in range(BATCHES):
        batches, _ = handler.acquire_batches(
            compiled.planner.attribute_cells(), duration=1.0
        )
        world.advance(1.0)
        if silent and index % 2 == 0:
            batches = silence(batches)
        # The map phase re-keys every tuple by its reported coordinates, so
        # the object side can hand all rows over under one key.
        rows = [item for batch in batches.values() for item in batch.to_tuples()]

        columnar_result = compiled.fabricator.process_batch_columnar(
            batches, compile_programs(compiled.planner)
        )
        object_result = walked.fabricator.process_batch({(0, 0): rows})

        assert columnar_result == object_result
        assert compiled.delivered == walked.delivered
        assert compiled.operator_state() == walked.operator_state()
        assert compiled.discards == walked.discards

    assert all(compiled.delivered.get(q.query_id) for q in queries)
    assert bool(compiled.discards) == store_discarded
    if payment:
        assert all(
            item.metadata["incentive"] == payment
            for items in compiled.delivered.values()
            for item in items
        )


#: attribute -> cell -> (rows per batch, confined to the cell's corner).
#: 10 rows are too few to fit; 30 corner rows leave the cell's centroid
#: outside their hull, so the fit does not converge; the rest converge.
#: Online, a chain warms up after 40 events: the 25- and 30-row chains
#: fall back to the MLE in their first batch, the 60+ row chains never do.
OUTCOME_ROWS = {
    "rain": {
        (0, 0): (10, False),
        (1, 0): (30, True),
        (0, 1): (25, False),
        (1, 1): (80, False),
        (2, 0): (60, False),
        (2, 1): (25, False),
    },
    "temp": {(1, 1): (70, False), (2, 1): (25, False), (1, 2): (12, False), (2, 2): (90, False)},
}


def outcome_batches(rng, index):
    """One batch window of rows laid out per :data:`OUTCOME_ROWS`."""
    batches = {}
    next_id = index * 10_000
    for attribute, cells in OUTCOME_ROWS.items():
        t, x, y = [], [], []
        for (q, r), (n, corner) in cells.items():
            offsets = rng.random((n, 2)) * (0.3 if corner else 1.0)
            t.append(index + rng.random(n))
            x.append(q + offsets[:, 0])
            y.append(r + offsets[:, 1])
        n = sum(len(column) for column in t)
        batches[attribute] = TupleBatch(
            attribute,
            np.concatenate(t),
            np.concatenate(x),
            np.concatenate(y),
            rng.normal(20.0, 5.0, n),
            rng.integers(0, 400, n),
            np.arange(next_id, next_id + n),
        )
        next_id += n
    return batches


@pytest.mark.parametrize("online", [False, True], ids=["mle", "online-sgd"])
def test_every_estimator_outcome_in_one_program(online, monkeypatch):
    # One attribute program carries constant (too small, and not
    # converged), converged MLE and — online — warmed-up chains side by
    # side; the warming chains' fits join the program's lockstep solve.
    solved = []
    fit_pending = executor.fit_pending

    def recording_fit_pending(pending):
        solved.append(len(pending))
        return fit_pending(pending)

    monkeypatch.setattr(executor, "fit_pending", recording_fit_pending)
    queries = make_queries()
    compiled = Side(queries, online=online, store_discarded=False)
    walked = Side(queries, online=online, store_discarded=False)
    rng = np.random.default_rng(30)
    for index in range(3):
        batches = outcome_batches(rng, index)
        rows = [item for batch in batches.values() for item in batch.to_tuples()]
        columnar_result = compiled.fabricator.process_batch_columnar(
            batches, compile_programs(compiled.planner)
        )
        object_result = walked.fabricator.process_batch({(0, 0): rows})
        assert columnar_result == object_result
        assert compiled.delivered == walked.delivered
        assert compiled.operator_state() == walked.operator_state()

    state = compiled.operator_state()
    estimators = {
        report.estimator
        for key in state
        if isinstance(key, tuple)
        for report in state[key][0]
    }
    assert estimators == ({"constant", "mle", "online"} if online else {"constant", "mle"})
    corner = compiled.planner.cell_topology((1, 0)).chain("rain").flatten
    assert corner.reports[0].batch_size == 30
    assert corner.reports[0].estimator == "constant"
    # One solve per program and batch (rain, temp); online, only the
    # warming chains' first batch has fits to solve.
    per_batch = [sorted(solved[i:i + 2]) for i in range(0, len(solved), 2)]
    assert per_batch == ([[1, 3], [0, 0], [0, 0]] if online else [[3, 5]] * 3)

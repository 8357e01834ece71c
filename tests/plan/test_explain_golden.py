"""``EXPLAIN`` over a known two-query topology, byte for byte.

Storm covers cells (0,0), (1,0), (0,1), (1,1) fully; Edge overlaps (0,0)
fully and (1,0) partially, so exactly one Partition operator exists.  The
operator parameters the programs run with are pinned through the
operators' public properties, the structure through one byte-exact
``EXPLAIN`` golden per target kind.
"""

import pytest

from repro.config import BudgetConfig, EngineConfig
from repro.core import CraqrEngine
from repro.core.pmat import FlattenOperator
from repro.geometry import Rectangle
from repro.pointprocess import LinearIntensity
from repro.sensing import (
    AlwaysRespond,
    RainField,
    RandomWaypointMobility,
    SensingWorld,
    WorldConfig,
)

from recovery_harness import simulate_fresh_process

REGION = Rectangle(0.0, 0.0, 4.0, 4.0)

STORM = "ACQUIRE rain FROM RECT(0, 0, 2, 2) AT RATE 8 AS Storm"
EDGE = "ACQUIRE rain FROM RECT(0, 0, 1.5, 1) AT RATE 4 AS Edge"


def make_world(seed=7):
    world = SensingWorld(
        WorldConfig(region=REGION, sensor_count=60, seed=seed),
        mobility_factory=lambda r: RandomWaypointMobility(r, speed=0.3, pause=0.2),
        participation_factory=lambda sensor_id: AlwaysRespond(),
    )
    world.register_field(RainField(REGION, band_width=1.2, period=50.0))
    return world


def make_engine(*statements, online_estimation=False):
    simulate_fresh_process()  # query ids from 1, as the goldens print them
    config = EngineConfig(
        grid_cells=16,
        batch_duration=1.0,
        budget=BudgetConfig(initial=40, delta=10, limit=400, violation_threshold=5.0),
        seed=42,
        online_estimation=online_estimation,
    )
    eng = CraqrEngine(config, make_world())
    for statement in statements:
        eng.execute(statement)
    return eng


@pytest.fixture
def engine():
    return make_engine(STORM, EDGE)


def chain_at(engine, key, attribute="rain"):
    return engine.planner.cell_topology(key).chain(attribute)


class TestOperatorParameters:
    def test_flatten(self, engine):
        flatten = chain_at(engine, (0, 0)).flatten
        assert flatten.name == "F:rain@(0, 0)"
        assert flatten.target_rate == 10.0  # 1.25 headroom over the highest rate (8)
        assert flatten.estimator == "mle"

    def test_flatten_online_estimator(self):
        eng = make_engine(STORM, online_estimation=True)
        assert chain_at(eng, (0, 0)).flatten.estimator == "online"

    def test_flatten_given_estimator(self):
        cell = Rectangle(0.0, 0.0, 1.0, 1.0)
        flatten = FlattenOperator(
            5.0, region=cell, intensity=LinearIntensity(20.0, 0.0, 150.0, 0.0)
        )
        assert flatten.estimator == "given"

    def test_thin_levels(self, engine):
        levels = chain_at(engine, (0, 0)).levels
        assert [level.thin.name for level in levels] == [
            "T:rain@(0, 0)#0",
            "T:rain@(0, 0)#1",
        ]
        assert [(level.thin.rate_in, level.thin.rate_out) for level in levels] == [
            (10.0, 8.0),
            (8.0, 4.0),
        ]
        assert [level.thin.retention_probability for level in levels] == [0.8, 0.5]

    def test_partition(self, engine):
        # Edge's tap in cell (1, 0): the overlap [1, 1.5] x [0, 1].
        (tap,) = chain_at(engine, (1, 0)).levels[1].taps
        assert tap.partition.name == "P:Edge@(1, 0)#1"
        assert tap.partition.mask_signature() == ((1.0, 0.0, 1.5, 1.0),)

    def test_union(self, engine):
        union = engine.planner.union_operator(engine.query("Storm").query_id)
        assert union.name == "U:Storm"
        assert union.rate == 8.0


STORM_PLAN = """\
EXPLAIN query 'Storm' (q1)

chains (4):
  F:rain@(0, 0)  target 10/s, estimator mle  [shared with q2]
    T:rain@(0, 0)#0  10->8  [shared with q2]
  F:rain@(1, 0)  target 10/s, estimator mle  [shared with q2]
    T:rain@(1, 0)#0  10->8  [shared with q2]
  F:rain@(0, 1)  target 10/s, estimator mle
    T:rain@(0, 1)#0  10->8
  F:rain@(1, 1)  target 10/s, estimator mle
    T:rain@(1, 1)#0  10->8

merge stage: U:Storm flat union over 4 per-cell streams

cost estimate (steady-state, seed cost model): 68.79 units/batch over 4 cells (66.7 requests, 120.0 operator-tuples, over-acquisition 0.0%)"""

EDGE_PLAN = """\
EXPLAIN query 'Edge' (q2)

chains (2):
  F:rain@(0, 0)  target 10/s, estimator mle  [shared with q1]
    T:rain@(0, 0)#0  10->8  [shared with q1]
    T:rain@(0, 0)#1  8->4
  F:rain@(1, 0)  target 10/s, estimator mle  [shared with q1]
    T:rain@(1, 0)#0  10->8  [shared with q1]
    T:rain@(1, 0)#1  8->4
    P:Edge@(1, 0)#1  mask ((1.0, 0.0, 1.5, 1.0),)

merge stage: U:Edge flat union over 2 per-cell streams

cost estimate (steady-state, seed cost model): 17.70 units/batch over 2 cells (16.7 requests, 30.0 operator-tuples, over-acquisition 25.0%)"""

VIEW_PLAN = """\
EXPLAIN view 'A' on query 'Storm' (q1)

chains (4):
  F:rain@(0, 0)  target 10/s, estimator mle  [shared with q2]
    T:rain@(0, 0)#0  10->8  [shared with q2]
  F:rain@(1, 0)  target 10/s, estimator mle  [shared with q2]
    T:rain@(1, 0)#0  10->8  [shared with q2]
  F:rain@(0, 1)  target 10/s, estimator mle
    T:rain@(0, 1)#0  10->8
  F:rain@(1, 1)  target 10/s, estimator mle
    T:rain@(1, 1)#0  10->8

merge stage: U:Storm flat union over 4 per-cell streams

views (1):
  view:A  AVG(value) GROUP BY CELL WINDOW 2  sort (slide=2, cell)

cost estimate (steady-state, seed cost model): 68.79 units/batch over 4 cells (66.7 requests, 120.0 operator-tuples, over-acquisition 0.0%)"""

VIEWS = (
    "CREATE VIEW A ON Storm AS AVG(value) GROUP BY CELL WINDOW 2",
    "CREATE VIEW B ON Storm AS MAX(value) GROUP BY CELL WINDOW 4 SLIDE 2",
    "CREATE VIEW C ON Storm AS COUNT(*) WINDOW 2",
)


class TestExplainGoldens:
    def test_query_targets(self, engine):
        # 4 chains, 6 taps, 1 partition; 2 chains shared by both queries.
        assert engine.explain("Storm") == STORM_PLAN
        assert engine.explain("Edge") == EDGE_PLAN

    def test_text_reads_structure_not_batch_state(self, engine):
        engine.run(3)
        assert engine.explain("Storm") == STORM_PLAN
        assert engine.explain("Edge") == EDGE_PLAN

    def test_view_target_shows_only_that_view(self, engine):
        for statement in VIEWS:
            engine.execute(statement)
        assert engine.explain("A") == VIEW_PLAN

    def test_query_target_lists_every_view_and_its_own_sort(self, engine):
        for statement in VIEWS:
            engine.execute(statement)
        text = engine.explain("Storm")
        # A and B have one (slide, group_by) key, but each view sorts alone.
        assert text.split("\n\n")[3] == (
            "views (3):\n"
            "  view:A  AVG(value) GROUP BY CELL WINDOW 2  sort (slide=2, cell)\n"
            "  view:B  MAX(value) GROUP BY CELL WINDOW 4 SLIDE 2  sort (slide=2, cell)\n"
            "  view:C  COUNT(value) WINDOW 2  sort (slide=2, region)"
        )


class TestExplainReadsTheRunningPlan:
    def test_explain_compiles_nothing(self, engine):
        for statement in VIEWS:
            engine.execute(statement)
        engine.explain("Storm")
        assert engine.plan_cache is None
        engine.run(2)
        cache = engine.plan_cache
        before = (cache.compiles, cache.reuses, len(cache))
        for name in ("Storm", "Edge", "A", "C"):
            engine.explain(name)
        assert (cache.compiles, cache.reuses, len(cache)) == before

    def test_predicate_sharing_marks_match_the_compiled_taps(self):
        eng = make_engine(
            STORM, EDGE, "ACQUIRE rain FROM RECT(0, 0, 1.5, 1) AT RATE 4 AS Edge2"
        )
        eng.run(1)
        # What the executor shares: taps on one level with equal signatures.
        expected = set()
        for program in eng.plan_cache.programs_for(eng.planner).values():
            for steps in program.chains:
                for level in steps.levels:
                    for tap in level.taps:
                        twins = sorted(
                            other.query_id
                            for other in level.taps
                            if other is not tap
                            and other.partition is not None
                            and other.signature == tap.signature
                        )
                        if tap.partition is not None and twins:
                            expected.add((tap.partition.name, tuple(twins)))
        assert expected == {
            ("P:Edge@(1, 0)#1", (3,)),
            ("P:Edge2@(1, 0)#1", (2,)),
        }
        marked = set()
        for label in ("Storm", "Edge", "Edge2"):
            for line in eng.explain(label).splitlines():
                if "[predicate shared with " in line:
                    name = line.strip().split("  ")[0]
                    others = line.rsplit("with ", 1)[1].rstrip("]").split(",")
                    marked.add((name, tuple(int(q[1:]) for q in others)))
        assert marked == expected

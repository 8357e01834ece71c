"""Unit tests for AttributeChain and CellTopology (Section V structure)."""

import numpy as np
import pytest

from repro.core import AcquisitionalQuery
from repro.core.topology import AttributeChain, CellTopology
from repro.errors import PlanningError
from repro.geometry import Grid, Rectangle, RectRegion
from repro.pointprocess import HomogeneousMDPP
from repro.streams import SensorTuple

GRID = Grid(Rectangle(0, 0, 4, 4), side=4)
CELL = GRID.cell(1, 1)  # rectangle [1,2) x [1,2)


def full_cell_query(attribute="rain", rate=20.0, name=None):
    return AcquisitionalQuery(attribute, RectRegion(CELL.rect), rate, name=name)


def partial_cell_query(attribute="rain", rate=10.0):
    # Covers the left half of the cell plus the neighbouring cell so the
    # total area exceeds one cell (the paper's minimum-area rule).
    region = RectRegion(Rectangle(0.5, 1.0, 1.5, 2.0))
    return AcquisitionalQuery(attribute, region, rate)


def cell_tuples(rate=300.0, seed=0, attribute="rain"):
    batch = HomogeneousMDPP(rate, CELL.rect).sample(1.0, rng=np.random.default_rng(seed))
    return [
        SensorTuple(tuple_id=i, attribute=attribute, t=float(t), x=float(x), y=float(y))
        for i, (t, x, y) in enumerate(zip(batch.t, batch.x, batch.y))
    ]


class TestAttributeChain:
    def test_headroom_must_exceed_one(self):
        with pytest.raises(PlanningError):
            AttributeChain("rain", CELL, headroom=1.0)

    def test_add_and_remove_queries(self):
        chain = AttributeChain("rain", CELL)
        query = full_cell_query()
        chain.add_query(query, query.region)
        assert chain.has_query(query.query_id)
        assert not chain.is_empty
        chain.remove_query(query.query_id)
        assert chain.is_empty

    def test_rejects_wrong_attribute(self):
        chain = AttributeChain("rain", CELL)
        with pytest.raises(PlanningError):
            chain.add_query(full_cell_query(attribute="temp"), RectRegion(CELL.rect))

    def test_rejects_duplicate_query(self):
        chain = AttributeChain("rain", CELL)
        query = full_cell_query()
        chain.add_query(query, query.region)
        with pytest.raises(PlanningError):
            chain.add_query(query, query.region)

    def test_remove_unknown_query(self):
        with pytest.raises(PlanningError):
            AttributeChain("rain", CELL).remove_query(999)

    def test_flatten_rate_has_headroom_over_max(self):
        chain = AttributeChain("rain", CELL, headroom=1.25)
        chain.add_query(full_cell_query(rate=20.0), RectRegion(CELL.rect))
        chain.add_query(full_cell_query(rate=8.0), RectRegion(CELL.rect))
        assert chain.max_rate == 20.0
        assert chain.flatten_rate == pytest.approx(25.0)

    def test_empty_chain_has_no_max_rate(self):
        with pytest.raises(PlanningError):
            _ = AttributeChain("rain", CELL).max_rate

    def test_build_requires_queries(self):
        from repro.streams import StreamTopology

        with pytest.raises(PlanningError):
            AttributeChain("rain", CELL).build(StreamTopology("t"), lambda q, item: None)


class TestCellTopologyStructure:
    def build_cell(self, queries, seed=0):
        topology = CellTopology(CELL, rng=np.random.default_rng(seed))
        for query in queries:
            overlap = query.region.intersection(RectRegion(CELL.rect))
            topology.add_query(query, overlap)
        delivered = {}

        def deliver(query_id, item):
            delivered.setdefault(query_id, []).append(item)

        topology.rebuild(deliver)
        return topology, delivered

    def test_single_query_chain_structure(self):
        query = full_cell_query(rate=20.0)
        topology, _ = self.build_cell([query])
        chain = topology.chain("rain")
        assert len(chain.levels) == 1
        assert chain.levels[0].rate == 20.0
        # The paper: the first operator is always F, and its output rate
        # exceeds the first T's output rate.
        assert chain.flatten.target_rate > chain.levels[0].rate
        topology.check_invariants()

    def test_thin_rates_sorted_descending(self):
        queries = [
            full_cell_query(rate=10.0),
            full_cell_query(rate=30.0),
            full_cell_query(rate=20.0),
        ]
        topology, _ = self.build_cell(queries)
        chain = topology.chain("rain")
        rates = [level.rate for level in chain.levels]
        assert rates == [30.0, 20.0, 10.0]
        topology.check_invariants()

    def test_equal_rate_queries_share_a_level(self):
        queries = [full_cell_query(rate=15.0), full_cell_query(rate=15.0)]
        topology, _ = self.build_cell(queries)
        chain = topology.chain("rain")
        assert len(chain.levels) == 1
        assert len(chain.levels[0].taps) == 2

    def test_consecutive_thin_rates_chain(self):
        queries = [full_cell_query(rate=r) for r in (30.0, 20.0, 10.0)]
        topology, _ = self.build_cell(queries)
        chain = topology.chain("rain")
        assert chain.levels[1].thin.rate_in == pytest.approx(30.0)
        assert chain.levels[2].thin.rate_in == pytest.approx(20.0)

    def test_full_overlap_has_no_partition(self):
        topology, _ = self.build_cell([full_cell_query()])
        chain = topology.chain("rain")
        assert chain.levels[0].taps[0].partition is None

    def test_partial_overlap_gets_partition(self):
        topology, _ = self.build_cell([partial_cell_query()])
        chain = topology.chain("rain")
        assert chain.levels[0].taps[0].partition is not None

    def test_multiple_attributes_get_separate_chains(self):
        queries = [full_cell_query("rain", 20.0), full_cell_query("temp", 10.0)]
        topology, _ = self.build_cell(queries)
        assert set(topology.attributes) == {"rain", "temp"}
        assert topology.operator_count() == 4  # two F + two T

    def test_operator_count_includes_partitions(self):
        topology, _ = self.build_cell([partial_cell_query()])
        assert topology.operator_count() == 3  # F + T + P

    def test_remove_query_drops_empty_chain(self):
        query = full_cell_query()
        topology, _ = self.build_cell([query])
        topology.remove_query(query)
        assert topology.is_empty

    def test_query_ids_listed(self):
        queries = [full_cell_query(rate=10.0), full_cell_query("temp", 5.0)]
        topology, _ = self.build_cell(queries)
        assert set(topology.query_ids()) == {q.query_id for q in queries}

    def test_unknown_chain_raises(self):
        topology, _ = self.build_cell([full_cell_query()])
        with pytest.raises(PlanningError):
            topology.chain("humidity")


class TestCellTopologyExecution:
    def run_batch(self, queries, rate=400.0, seed=1):
        topology = CellTopology(CELL, rng=np.random.default_rng(seed))
        for query in queries:
            overlap = query.region.intersection(RectRegion(CELL.rect))
            topology.add_query(query, overlap)
        delivered = {}

        def deliver(query_id, item):
            delivered.setdefault(query_id, []).append(item)

        topology.rebuild(deliver)
        topology.inject_many(cell_tuples(rate=rate, seed=seed))
        topology.flush()
        return topology, delivered

    def test_delivery_rates_respect_requests(self):
        fast = full_cell_query(rate=60.0, name="fast")
        slow = full_cell_query(rate=15.0, name="slow")
        _, delivered = self.run_batch([fast, slow], rate=500.0)
        fast_rate = len(delivered.get(fast.query_id, []))
        slow_rate = len(delivered.get(slow.query_id, []))
        assert fast_rate == pytest.approx(60.0, rel=0.4)
        assert slow_rate == pytest.approx(15.0, rel=0.6)
        assert fast_rate > slow_rate

    def test_partial_query_only_receives_tuples_in_its_region(self):
        query = partial_cell_query(rate=20.0)
        _, delivered = self.run_batch([query], rate=500.0)
        items = delivered.get(query.query_id, [])
        assert items, "partial query should still receive tuples"
        for item in items:
            assert query.region.contains(item.x, item.y)

    def test_tuples_of_other_attributes_ignored(self):
        query = full_cell_query("rain", 20.0)
        topology = CellTopology(CELL, rng=np.random.default_rng(2))
        topology.add_query(query, query.region)
        delivered = {}
        topology.rebuild(lambda qid, item: delivered.setdefault(qid, []).append(item))
        topology.inject_many(cell_tuples(rate=300.0, seed=3, attribute="temp"))
        topology.flush()
        assert delivered == {}

    def test_violations_reported_per_attribute(self):
        query = full_cell_query("rain", 50.0)
        topology, _ = self.run_batch([query], rate=20.0, seed=4)
        violations = topology.violations()
        assert "rain" in violations
        assert violations["rain"] > 0.0

    def test_rebuild_counter(self):
        query = full_cell_query()
        topology = CellTopology(CELL)
        topology.add_query(query, query.region)
        topology.rebuild(lambda qid, item: None)
        topology.rebuild(lambda qid, item: None)
        assert topology.rebuilds == 2

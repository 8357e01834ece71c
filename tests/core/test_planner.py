"""Unit tests for the query planner (topology construction, insert, delete)."""

import numpy as np
import pytest

from repro.core import AcquisitionalQuery, QueryPlanner
from repro.errors import PlanningError, QueryError
from repro.geometry import Grid, Rectangle, RectRegion
from repro.pointprocess import HomogeneousMDPP
from repro.streams import SensorTuple
from repro.workloads import fig2_queries

GRID = Grid(Rectangle(0, 0, 4, 4), side=4)


def make_planner(seed=0):
    return QueryPlanner(GRID, rng=np.random.default_rng(seed))


def block_query(attribute="rain", rate=20.0, q0=0, r0=0, span=1, name=None):
    rect = Rectangle(float(q0), float(r0), float(q0 + span), float(r0 + span))
    return AcquisitionalQuery(attribute, RectRegion(rect), rate, name=name)


def cell_tuples(cell_rect, rate=300.0, seed=0, attribute="rain"):
    batch = HomogeneousMDPP(rate, cell_rect).sample(1.0, rng=np.random.default_rng(seed))
    return [
        SensorTuple(tuple_id=i, attribute=attribute, t=float(t), x=float(x), y=float(y))
        for i, (t, x, y) in enumerate(zip(batch.t, batch.x, batch.y))
    ]


class TestInsertion:
    def test_insert_materialises_only_overlapping_cells(self):
        planner = make_planner()
        touched = planner.insert_query(block_query(span=2))
        assert sorted(touched) == [(0, 0), (0, 1), (1, 0), (1, 1)]
        assert sorted(planner.materialized_cells) == sorted(touched)

    def test_insert_single_cell_query(self):
        planner = make_planner()
        touched = planner.insert_query(block_query(q0=2, r0=3, span=1))
        assert touched == [(2, 3)]

    def test_duplicate_insert_rejected(self):
        planner = make_planner()
        query = block_query()
        planner.insert_query(query)
        with pytest.raises(PlanningError):
            planner.insert_query(query)

    def test_too_small_query_rejected(self):
        planner = make_planner()
        small = AcquisitionalQuery("rain", Rectangle(0, 0, 0.5, 0.5), 5.0)
        with pytest.raises(QueryError):
            planner.insert_query(small)

    def test_query_outside_region_rejected(self):
        planner = make_planner()
        outside = AcquisitionalQuery("rain", Rectangle(3, 3, 6, 6), 5.0)
        with pytest.raises(QueryError):
            planner.insert_query(outside)

    def test_shared_cell_single_flatten_per_attribute(self):
        planner = make_planner()
        planner.insert_query(block_query(rate=30.0))
        planner.insert_query(block_query(rate=10.0))
        topology = planner.cell_topology((0, 0))
        chain = topology.chain("rain")
        # One Flatten, two Thin levels, no partitions.
        assert topology.operator_count() == 3
        assert [level.rate for level in chain.levels] == [30.0, 10.0]
        planner.check_invariants()

    def test_attribute_cells_reports_needs(self):
        planner = make_planner()
        planner.insert_query(block_query("rain", q0=0, r0=0))
        planner.insert_query(block_query("temp", q0=2, r0=2))
        needs = planner.attribute_cells()
        assert {cell.key for cell in needs["rain"]} == {(0, 0)}
        assert {cell.key for cell in needs["temp"]} == {(2, 2)}

    def test_stats_after_insertions(self):
        planner = make_planner()
        planner.insert_query(block_query(span=2))
        stats = planner.stats()
        assert stats.queries == 1
        assert stats.materialized_cells == 4
        assert stats.insertions == 1
        assert stats.cells_touched_by_last_change == 4
        assert stats.pmat_operators >= 8  # F + T per cell

    def test_fig2_layout_partial_overlap_uses_partitions(self):
        grid = Grid(Rectangle(0, 0, 3, 3), side=3)
        planner = QueryPlanner(grid, rng=np.random.default_rng(1))
        q1, q2, q3 = fig2_queries(grid)
        for query in (q1, q2, q3):
            planner.insert_query(query)
        planner.check_invariants()
        # Q3 only partially overlaps its two cells, so those chains have a P.
        q3_cells = planner.cells_for_query(q3.query_id)
        assert len(q3_cells) == 2
        for key in q3_cells:
            chain = planner.cell_topology(key).chain("temp")
            taps = [tap for level in chain.levels for tap in level.taps if tap.query_id == q3.query_id]
            assert len(taps) == 1
            assert taps[0].partition is not None
        # Q1 and Q2 perfectly overlap grid cells: no partition operators.
        for query in (q1, q2):
            for key in planner.cells_for_query(query.query_id):
                chain = planner.cell_topology(key).chain(query.attribute)
                taps = [tap for level in chain.levels for tap in level.taps if tap.query_id == query.query_id]
                assert taps[0].partition is None


class TestDeletion:
    def test_delete_removes_empty_cells(self):
        planner = make_planner()
        query = block_query(span=2)
        planner.insert_query(query)
        touched = planner.delete_query(query.query_id)
        assert sorted(touched) == [(0, 0), (0, 1), (1, 0), (1, 1)]
        assert planner.materialized_cells == []
        assert not planner.has_query(query.query_id)

    def test_delete_keeps_cells_used_by_other_queries(self):
        planner = make_planner()
        keep = block_query(rate=30.0)
        drop = block_query(rate=10.0)
        planner.insert_query(keep)
        planner.insert_query(drop)
        planner.delete_query(drop.query_id)
        assert planner.materialized_cells == [(0, 0)]
        chain = planner.cell_topology((0, 0)).chain("rain")
        # The remaining chain has a single Thin level again (merged form).
        assert [level.rate for level in chain.levels] == [30.0]
        planner.check_invariants()

    def test_delete_middle_rate_merges_thins(self):
        planner = make_planner()
        high = block_query(rate=30.0)
        mid = block_query(rate=20.0)
        low = block_query(rate=10.0)
        for query in (high, mid, low):
            planner.insert_query(query)
        planner.delete_query(mid.query_id)
        chain = planner.cell_topology((0, 0)).chain("rain")
        rates = [level.rate for level in chain.levels]
        assert rates == [30.0, 10.0]
        # The remaining second Thin consumes the 30-rate stream directly:
        # the two formerly consecutive T-operators have been merged.
        assert chain.levels[1].thin.rate_in == pytest.approx(30.0)
        planner.check_invariants()

    def test_delete_unknown_query_raises(self):
        with pytest.raises(PlanningError):
            make_planner().delete_query(12345)

    def test_stats_after_deletion(self):
        planner = make_planner()
        query = block_query()
        planner.insert_query(query)
        planner.delete_query(query.query_id)
        stats = planner.stats()
        assert stats.queries == 0
        assert stats.deletions == 1
        assert stats.materialized_cells == 0


class TestExecution:
    def test_route_and_flush_delivers_results(self):
        planner = make_planner()
        delivered = {}
        query = block_query(rate=25.0)
        planner.insert_query(
            query, on_result=lambda qid, item: delivered.setdefault(qid, []).append(item)
        )
        cell = GRID.cell(0, 0)
        routed = planner.route_cell_batch(cell.key, cell_tuples(cell.rect, seed=2))
        assert routed > 0
        planner.flush_all()
        assert len(delivered.get(query.query_id, [])) > 0

    def test_route_to_unmaterialised_cell_is_dropped(self):
        planner = make_planner()
        planner.insert_query(block_query())
        other_cell = GRID.cell(3, 3)
        routed = planner.route_cell_batch(other_cell.key, cell_tuples(other_cell.rect, seed=3))
        assert routed == 0

    def test_violations_keyed_by_attribute_and_cell(self):
        planner = make_planner()
        query = block_query(rate=100.0)
        planner.insert_query(query)
        cell = GRID.cell(0, 0)
        planner.route_cell_batch(cell.key, cell_tuples(cell.rect, rate=30.0, seed=4))
        planner.flush_all()
        violations = planner.violations()
        assert ("rain", (0, 0)) in violations
        assert violations[("rain", (0, 0))] > 0.0

    def test_result_callback_receives_only_query_region_tuples(self):
        planner = make_planner()
        delivered = []
        # A query over cells (0,0) and (1,0) but only the left half of (1,0).
        region = RectRegion(Rectangle(0.0, 0.0, 1.5, 1.0))
        query = AcquisitionalQuery("rain", region, 20.0)
        planner.insert_query(query, on_result=lambda qid, item: delivered.append(item))
        for key in [(0, 0), (1, 0)]:
            cell = GRID.cell(*key)
            planner.route_cell_batch(key, cell_tuples(cell.rect, rate=400.0, seed=5 + key[0]))
        planner.flush_all()
        assert delivered, "the query should receive tuples"
        for item in delivered:
            assert region.contains(item.x, item.y)

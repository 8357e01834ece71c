"""Unit tests for workload and scenario generators."""

import pytest

from repro.errors import WorkloadError
from repro.geometry import Grid, Rectangle, RectRegion
from repro.workloads import (
    build_hotspot_world,
    build_rain_temperature_world,
    build_uniform_world,
    default_engine_config,
    fig2_queries,
    overlapping_query_workload,
    random_query_workload,
)

GRID = Grid(Rectangle(0, 0, 4, 4), side=4)


class TestQueryWorkloads:
    def test_random_workload_size_and_validity(self):
        queries = random_query_workload(GRID, 20, seed=1)
        assert len(queries) == 20
        for query in queries:
            query.validate_against(GRID.region, GRID.cell_area)
            assert query.attribute in ("rain", "temp")
            assert 5.0 <= query.rate <= 50.0

    def test_random_workload_reproducible(self):
        a = random_query_workload(GRID, 5, seed=3)
        b = random_query_workload(GRID, 5, seed=3)
        assert [(q.attribute, q.rate) for q in a] == [(q.attribute, q.rate) for q in b]

    def test_random_workload_validation(self):
        with pytest.raises(WorkloadError):
            random_query_workload(GRID, 0)
        with pytest.raises(WorkloadError):
            random_query_workload(GRID, 3, attributes=())
        with pytest.raises(WorkloadError):
            random_query_workload(GRID, 3, rate_range=(5.0, 1.0))
        with pytest.raises(WorkloadError):
            random_query_workload(GRID, 3, max_cells_per_side=9)

    def test_overlapping_workload_shares_region(self):
        queries = overlapping_query_workload(GRID, 6, seed=2)
        regions = {tuple(q.region.bounding_box.corners()[0].as_tuple()) for q in queries}
        assert len(regions) == 1
        assert all(q.attribute == "rain" for q in queries)

    def test_overlapping_workload_validation(self):
        with pytest.raises(WorkloadError):
            overlapping_query_workload(GRID, 0)
        with pytest.raises(WorkloadError):
            overlapping_query_workload(GRID, 2, overlap_cells=10)

    def test_fig2_queries_layout(self):
        grid = Grid(Rectangle(0, 0, 3, 3), side=3)
        q1, q2, q3 = fig2_queries(grid)
        assert (q1.attribute, q2.attribute, q3.attribute) == ("rain", "temp", "temp")
        assert q1.rate > q2.rate > q3.rate
        # Q1 covers four whole cells, Q2 one whole cell, Q3 straddles two.
        assert len(grid.overlapping_cells(q1.region)) == 4
        assert len(grid.overlapping_cells(q2.region)) == 1
        assert len(grid.overlapping_cells(q3.region)) == 2

    def test_fig2_requires_large_enough_grid(self):
        with pytest.raises(WorkloadError):
            fig2_queries(Grid(Rectangle(0, 0, 2, 2), side=2))


class TestScenarios:
    def test_default_engine_config_valid(self):
        config = default_engine_config()
        assert config.grid_side == 4
        assert config.budget.floor <= config.budget.initial

    def test_rain_temperature_world_attributes(self):
        world = build_rain_temperature_world(sensor_count=50, seed=1)
        assert set(world.attributes) == {"rain", "temp"}
        assert len(world.sensors) == 50

    def test_uniform_world(self):
        world = build_uniform_world(sensor_count=30, seed=2)
        assert set(world.attributes) == {"rain", "temp"}

    def test_hotspot_world_is_skewed(self):
        world = build_hotspot_world(sensor_count=200, seed=3)
        world.advance(20.0)
        counts = world.density_snapshot(4, 4).astype(float)
        mean = counts.mean()
        assert counts.max() > 2.5 * mean

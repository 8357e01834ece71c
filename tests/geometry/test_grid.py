"""Unit tests for the logical grid (Section IV)."""

import numpy as np
import pytest

from repro.errors import GeometryError
from repro.geometry import Grid, Rectangle, RectRegion


@pytest.fixture
def grid():
    return Grid(Rectangle(0, 0, 4, 4), side=4)


class TestConstruction:
    def test_cell_count(self, grid):
        assert grid.cell_count == 16
        assert len(grid) == 16
        assert len(grid.cells()) == 16

    def test_invalid_side(self):
        with pytest.raises(GeometryError):
            Grid(Rectangle(0, 0, 1, 1), side=0)

    def test_cell_area(self, grid):
        assert grid.cell_area == pytest.approx(1.0)

    def test_total_cell_area_equals_region_area(self, grid):
        # Eq. (2): area(R) = sum over cells of area(R(q,r)).
        assert sum(cell.area for cell in grid.cells()) == pytest.approx(grid.region.area)

    def test_non_square_region_cells(self):
        grid = Grid(Rectangle(0, 0, 6, 3), side=3)
        assert grid.cell_area == pytest.approx(2.0)
        assert sum(cell.area for cell in grid.cells()) == pytest.approx(18.0)

    def test_cells_are_disjoint(self, grid):
        cells = grid.cells()
        for i, a in enumerate(cells):
            for b in cells[i + 1:]:
                assert not a.rect.intersects(b.rect)


class TestAddressing:
    def test_cell_lookup_by_coordinates(self, grid):
        cell = grid.cell(2, 3)
        assert cell.key == (2, 3)
        assert cell.rect == Rectangle(2, 3, 3, 4)

    def test_cell_outside_grid_raises(self, grid):
        with pytest.raises(GeometryError):
            grid.cell(4, 0)
        with pytest.raises(GeometryError):
            grid.cell(-1, 0)

    def test_cell_region_property(self, grid):
        cell = grid.cell(0, 0)
        assert cell.region.area == pytest.approx(1.0)
        assert cell.area == pytest.approx(1.0)


class TestLocate:
    def test_interior_point(self, grid):
        assert grid.locate(0.5, 0.5).key == (0, 0)
        assert grid.locate(3.9, 0.1).key == (3, 0)

    def test_point_on_internal_boundary_goes_to_upper_cell(self, grid):
        assert grid.locate(1.0, 0.5).key == (1, 0)

    def test_point_on_outer_boundary_is_clamped(self, grid):
        assert grid.locate(4.0, 4.0).key == (3, 3)

    def test_point_outside_region_raises(self, grid):
        with pytest.raises(GeometryError):
            grid.locate(5.0, 1.0)

    def test_every_cell_center_locates_to_itself(self, grid):
        for cell in grid:
            center = cell.rect.center
            assert grid.locate(center.x, center.y).key == cell.key


class TestOverlap:
    def test_query_covering_one_cell(self, grid):
        region = RectRegion(Rectangle(1, 1, 2, 2))
        cells = grid.overlapping_cells(region)
        assert [c.key for c in cells] == [(1, 1)]

    def test_query_covering_block(self, grid):
        region = RectRegion(Rectangle(0, 0, 2, 2))
        keys = {c.key for c in grid.overlapping_cells(region)}
        assert keys == {(0, 0), (1, 0), (0, 1), (1, 1)}

    def test_query_partially_overlapping(self, grid):
        region = RectRegion(Rectangle(0.5, 0.5, 1.5, 1.5))
        keys = {c.key for c in grid.overlapping_cells(region)}
        assert keys == {(0, 0), (1, 0), (0, 1), (1, 1)}

    def test_overlap_fraction_full(self, grid):
        region = RectRegion(Rectangle(0, 0, 2, 2))
        cell = grid.cell(0, 0)
        assert grid.overlap_fraction(region, cell) == pytest.approx(1.0)

    def test_overlap_fraction_partial(self, grid):
        region = RectRegion(Rectangle(0.5, 0.0, 1.0, 1.0))
        cell = grid.cell(0, 0)
        assert grid.overlap_fraction(region, cell) == pytest.approx(0.5)

    def test_query_touching_cell_boundary_has_no_overlap(self, grid):
        region = RectRegion(Rectangle(1.0, 0.0, 2.0, 1.0))
        cell = grid.cell(0, 0)
        assert grid.overlap_fraction(region, cell) == pytest.approx(0.0)


class TestBoundaryBucketing:
    """Boundary points must always map to a valid cell (no tuple is lost)."""

    def test_interior_cell_edges_map_to_upper_cell(self, grid):
        # A point exactly on an interior edge belongs to the cell whose
        # half-open rectangle starts there.
        assert grid.locate(1.0, 0.5).key == (1, 0)
        assert grid.locate(0.5, 2.0).key == (0, 2)
        assert grid.locate(3.0, 3.0).key == (3, 3)

    def test_region_max_edges_clamp_into_last_cell(self, grid):
        assert grid.locate(4.0, 0.5).key == (3, 0)
        assert grid.locate(0.5, 4.0).key == (0, 3)
        assert grid.locate(4.0, 4.0).key == (3, 3)

    def test_region_min_corner(self, grid):
        assert grid.locate(0.0, 0.0).key == (0, 0)

    def test_cells_for_points_on_boundaries(self, grid):
        xs = np.array([1.0, 0.5, 3.0, 4.0, 0.5, 4.0, 0.0])
        ys = np.array([0.5, 2.0, 3.0, 0.5, 4.0, 4.0, 0.0])
        q, r = grid.cells_for_points(xs, ys)
        assert list(zip(q.tolist(), r.tolist())) == [
            (1, 0), (0, 2), (3, 3), (3, 0), (0, 3), (3, 3), (0, 0)
        ]

    def test_cells_for_points_rejects_outside_points(self, grid):
        with pytest.raises(GeometryError):
            grid.cells_for_points(np.array([0.5, 5.0]), np.array([0.5, 0.5]))
        with pytest.raises(GeometryError):
            grid.cells_for_points(np.array([0.5]), np.array([-0.1]))

    def test_cells_for_points_agrees_with_scalar_lookup(self, grid):
        rng = np.random.default_rng(2024)
        xs = rng.uniform(0.0, 4.0, 1000)
        ys = rng.uniform(0.0, 4.0, 1000)
        # Sprinkle exact edge coordinates into the random sample.
        xs[:8] = [0.0, 1.0, 2.0, 3.0, 4.0, 4.0, 0.0, 2.0]
        ys[:8] = [0.0, 1.0, 2.0, 3.0, 4.0, 0.0, 4.0, 2.0]
        q, r = grid.cells_for_points(xs, ys)
        for x, y, qi, ri in zip(xs, ys, q, r):
            assert grid.locate(float(x), float(y)).key == (int(qi), int(ri))

    def test_cells_for_points_on_non_square_region(self):
        grid = Grid(Rectangle(-1.0, 2.0, 5.0, 5.0), side=3)
        rng = np.random.default_rng(7)
        xs = rng.uniform(-1.0, 5.0, 500)
        ys = rng.uniform(2.0, 5.0, 500)
        q, r = grid.cells_for_points(xs, ys)
        for x, y, qi, ri in zip(xs, ys, q, r):
            assert grid.locate(float(x), float(y)).key == (int(qi), int(ri))

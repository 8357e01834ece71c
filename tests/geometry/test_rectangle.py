"""Unit tests for Rectangle."""

import pytest

from repro.errors import GeometryError
from repro.geometry import Rectangle, SpacePoint


class TestConstruction:
    def test_valid_rectangle(self):
        r = Rectangle(0.0, 0.0, 2.0, 3.0)
        assert r.width == 2.0
        assert r.height == 3.0
        assert r.area == 6.0

    @pytest.mark.parametrize(
        "bounds",
        [
            (0.0, 0.0, 0.0, 1.0),   # zero width
            (0.0, 0.0, 1.0, 0.0),   # zero height
            (1.0, 0.0, 0.0, 1.0),   # inverted x
            (0.0, 1.0, 1.0, 0.0),   # inverted y
        ],
    )
    def test_degenerate_rectangle_rejected(self, bounds):
        with pytest.raises(GeometryError):
            Rectangle(*bounds)

    def test_center(self):
        assert Rectangle(0, 0, 2, 4).center == SpacePoint(1.0, 2.0)

    def test_corners_count(self):
        assert len(Rectangle(0, 0, 1, 1).corners()) == 4

    def test_bounding_of_multiple(self):
        r = Rectangle.bounding([Rectangle(0, 0, 1, 1), Rectangle(2, 2, 3, 4)])
        assert (r.x_min, r.y_min, r.x_max, r.y_max) == (0.0, 0.0, 3.0, 4.0)

    def test_bounding_of_empty_raises(self):
        with pytest.raises(GeometryError):
            Rectangle.bounding([])


class TestContainment:
    def test_contains_interior_point(self):
        assert Rectangle(0, 0, 1, 1).contains(0.5, 0.5)

    def test_half_open_upper_edges(self):
        r = Rectangle(0, 0, 1, 1)
        assert not r.contains(1.0, 0.5)
        assert not r.contains(0.5, 1.0)
        assert r.contains(0.0, 0.0)

    def test_closed_flag_includes_upper_edges(self):
        r = Rectangle(0, 0, 1, 1)
        assert r.contains(1.0, 1.0, closed=True)


class TestIntersection:
    def test_a_nested_rectangle_is_its_own_intersection(self):
        outer = Rectangle(0, 0, 4, 4)
        inner = Rectangle(1, 1, 2, 2)
        assert outer.intersection(inner) == inner == inner.intersection(outer)
        assert outer.overlap_area(inner) == pytest.approx(inner.area)

    def test_overlapping_rectangles_intersect(self):
        a = Rectangle(0, 0, 2, 2)
        b = Rectangle(1, 1, 3, 3)
        assert a.intersects(b)
        overlap = a.intersection(b)
        assert overlap == Rectangle(1, 1, 2, 2)
        assert a.overlap_area(b) == pytest.approx(1.0)

    def test_touching_rectangles_do_not_intersect(self):
        a = Rectangle(0, 0, 1, 1)
        b = Rectangle(1, 0, 2, 1)
        assert not a.intersects(b)
        assert a.intersection(b) is None

    def test_disjoint_rectangles(self):
        a = Rectangle(0, 0, 1, 1)
        b = Rectangle(5, 5, 6, 6)
        assert a.overlap_area(b) == 0.0

    def test_intersection_is_commutative(self):
        a = Rectangle(0, 0, 3, 3)
        b = Rectangle(2, 1, 5, 2)
        assert a.intersection(b) == b.intersection(a)


class TestAdjacencyAndUnion:
    def test_side_by_side_share_full_side(self):
        a = Rectangle(0, 0, 1, 1)
        b = Rectangle(1, 0, 2, 1)
        assert a.shares_full_side_with(b)
        assert b.shares_full_side_with(a)

    def test_stacked_share_full_side(self):
        a = Rectangle(0, 0, 1, 1)
        b = Rectangle(0, 1, 1, 2)
        assert a.shares_full_side_with(b)

    def test_partial_side_not_full(self):
        a = Rectangle(0, 0, 1, 1)
        b = Rectangle(1, 0, 2, 2)
        assert not a.shares_full_side_with(b)

    def test_union_of_adjacent(self):
        a = Rectangle(0, 0, 1, 1)
        b = Rectangle(1, 0, 2, 1)
        assert a.union_with(b) == Rectangle(0, 0, 2, 1)

    def test_union_of_non_adjacent_raises(self):
        a = Rectangle(0, 0, 1, 1)
        b = Rectangle(2, 0, 3, 1)
        with pytest.raises(GeometryError):
            a.union_with(b)

    def test_union_area_adds_up(self):
        a = Rectangle(0, 0, 1, 2)
        b = Rectangle(1, 0, 3, 2)
        assert a.union_with(b).area == pytest.approx(a.area + b.area)


class TestSplitting:
    def test_subdivide_counts_and_area(self):
        cells = Rectangle(0, 0, 2, 2).subdivide(2, 4)
        assert len(cells) == 8
        assert sum(c.area for c in cells) == pytest.approx(4.0)

    def test_subdivide_invalid_counts(self):
        with pytest.raises(GeometryError):
            Rectangle(0, 0, 1, 1).subdivide(0, 2)

    def test_subdivide_cells_tile_without_overlap(self):
        cells = Rectangle(0, 0, 3, 3).subdivide(3, 3)
        for i, a in enumerate(cells):
            for b in cells[i + 1:]:
                assert not a.intersects(b)

"""Unit tests for the region algebra."""

import pytest

from repro.errors import GeometryError
from repro.geometry import (
    CompositeRegion,
    Rectangle,
    RectRegion,
    union_regions,
)


class TestRectRegion:
    def test_area_matches_rectangle(self):
        region = RectRegion(Rectangle(0, 0, 2, 3))
        assert region.area == pytest.approx(6.0)

    def test_contains(self):
        region = RectRegion(Rectangle(0, 0, 1, 1))
        assert region.contains(0.5, 0.5)
        assert not region.contains(1.5, 0.5)

    def test_bounding_box(self):
        region = RectRegion(Rectangle(1, 2, 3, 4))
        assert region.bounding_box == Rectangle(1, 2, 3, 4)


class TestCompositeRegion:
    def test_needs_at_least_one_rectangle(self):
        with pytest.raises(GeometryError):
            CompositeRegion(())

    def test_rejects_overlapping_parts(self):
        with pytest.raises(GeometryError):
            CompositeRegion((Rectangle(0, 0, 2, 2), Rectangle(1, 1, 3, 3)))

    def test_area_is_sum_of_parts(self):
        region = CompositeRegion((Rectangle(0, 0, 1, 1), Rectangle(2, 0, 3, 1)))
        assert region.area == pytest.approx(2.0)

    def test_contains_checks_every_part(self):
        region = CompositeRegion((Rectangle(0, 0, 1, 1), Rectangle(2, 0, 3, 1)))
        assert region.contains(0.5, 0.5)
        assert region.contains(2.5, 0.5)
        assert not region.contains(1.5, 0.5)

    def test_bounding_box_spans_parts(self):
        region = CompositeRegion((Rectangle(0, 0, 1, 1), Rectangle(2, 2, 3, 3)))
        assert region.bounding_box == Rectangle(0, 0, 3, 3)


class TestRegionRelations:
    def test_overlap_area(self):
        a = RectRegion(Rectangle(0, 0, 2, 2))
        b = RectRegion(Rectangle(1, 1, 3, 3))
        assert a.overlap_area(b) == pytest.approx(1.0)

    def test_covers(self):
        big = RectRegion(Rectangle(0, 0, 4, 4))
        small = RectRegion(Rectangle(1, 1, 2, 2))
        assert big.covers(small)
        assert not small.covers(big)

    def test_a_composite_covers_a_rectangle_across_its_parts(self):
        halves = CompositeRegion((Rectangle(0, 0, 1, 1), Rectangle(1, 0, 2, 1)))
        straddling = RectRegion(Rectangle(0.5, 0.25, 1.5, 0.75))
        assert halves.covers(straddling)
        assert not straddling.covers(halves)
        assert not halves.covers(RectRegion(Rectangle(1.5, 0.5, 2.5, 1.0)))

    def test_equals_by_area_coverage(self):
        whole = RectRegion(Rectangle(0, 0, 2, 1))
        halves = CompositeRegion((Rectangle(0, 0, 1, 1), Rectangle(1, 0, 2, 1)))
        assert whole.covers(halves) and halves.covers(whole)

    def test_disjointness(self):
        a = RectRegion(Rectangle(0, 0, 1, 1))
        b = RectRegion(Rectangle(2, 2, 3, 3))
        assert not a.intersects(b)

    def test_intersection_region(self):
        a = RectRegion(Rectangle(0, 0, 2, 2))
        b = RectRegion(Rectangle(1, 0, 3, 2))
        overlap = a.intersection(b)
        assert overlap is not None
        assert overlap.area == pytest.approx(2.0)

    def test_intersection_of_disjoint_is_none(self):
        a = RectRegion(Rectangle(0, 0, 1, 1))
        b = RectRegion(Rectangle(2, 2, 3, 3))
        assert a.intersection(b) is None

    def test_union_of_overlapping_raises(self):
        a = RectRegion(Rectangle(0, 0, 2, 2))
        b = RectRegion(Rectangle(1, 1, 3, 3))
        with pytest.raises(GeometryError):
            a.union(b)


class TestUnionRegions:
    def test_adjacent_rectangles_merge_into_one(self):
        a = RectRegion(Rectangle(0, 0, 1, 1))
        b = RectRegion(Rectangle(1, 0, 2, 1))
        merged = union_regions([a, b])
        assert isinstance(merged, RectRegion)
        assert merged.area == pytest.approx(2.0)

    def test_four_cells_merge_into_square(self):
        cells = [
            RectRegion(Rectangle(0, 0, 1, 1)),
            RectRegion(Rectangle(1, 0, 2, 1)),
            RectRegion(Rectangle(0, 1, 1, 2)),
            RectRegion(Rectangle(1, 1, 2, 2)),
        ]
        merged = union_regions(cells)
        assert isinstance(merged, RectRegion)
        assert merged.bounding_box == Rectangle(0, 0, 2, 2)

    def test_non_adjacent_stay_composite(self):
        a = RectRegion(Rectangle(0, 0, 1, 1))
        b = RectRegion(Rectangle(3, 3, 4, 4))
        merged = union_regions([a, b])
        assert isinstance(merged, CompositeRegion)
        assert merged.area == pytest.approx(2.0)

    def test_union_preserves_total_area(self):
        rects = [RectRegion(Rectangle(i, 0, i + 1, 1)) for i in range(5)]
        merged = union_regions(rects)
        assert merged.area == pytest.approx(5.0)

    def test_union_of_empty_raises(self):
        with pytest.raises(GeometryError):
            union_regions([])

    def test_union_of_overlapping_raises(self):
        a = RectRegion(Rectangle(0, 0, 2, 2))
        b = RectRegion(Rectangle(1, 1, 3, 3))
        with pytest.raises(GeometryError):
            union_regions([a, b])


class TestAdjacency:
    """``union_regions`` merges two rectangles only when they share a full side."""

    def test_side_touching(self):
        a, b = Rectangle(0, 0, 1, 1), Rectangle(1, 0, 2, 1)
        assert a.shares_full_side_with(b) and b.shares_full_side_with(a)
        merged = union_regions([RectRegion(a), RectRegion(b)])
        assert merged.rectangles == (Rectangle(0, 0, 2, 1),)

    def test_partial_side_touching(self):
        # Touching along half a side: adjacent, but the union is no rectangle.
        a, b = Rectangle(0, 0, 1, 1), Rectangle(1, 0.5, 2, 2)
        assert not a.shares_full_side_with(b)
        with pytest.raises(GeometryError):
            a.union_with(b)
        merged = union_regions([RectRegion(a), RectRegion(b)])
        assert isinstance(merged, CompositeRegion)
        assert sorted(merged.rectangles) == sorted((a, b))

    def test_corner_only_not_adjacent(self):
        a, b = Rectangle(0, 0, 1, 1), Rectangle(1, 1, 2, 2)
        assert not a.shares_full_side_with(b)
        assert len(union_regions([RectRegion(a), RectRegion(b)]).rectangles) == 2

    def test_overlapping_not_adjacent(self):
        a, b = Rectangle(0, 0, 2, 2), Rectangle(1, 1, 3, 3)
        assert not a.shares_full_side_with(b)
        with pytest.raises(GeometryError):
            a.union_with(b)

    def test_separated_not_adjacent(self):
        a, b = Rectangle(0, 0, 1, 1), Rectangle(5, 0, 6, 1)
        assert not a.shares_full_side_with(b)
        merged = union_regions([RectRegion(a), RectRegion(b)])
        assert merged.area == pytest.approx(2.0)
        assert len(merged.rectangles) == 2

"""Unit tests for EventBatch."""

import numpy as np
import pytest

from repro.errors import PointProcessError
from repro.geometry import Rectangle, RectRegion, SpaceTimePoint
from repro.pointprocess import EventBatch


class TestConstruction:
    def test_empty_batch(self):
        batch = EventBatch.empty()
        assert len(batch) == 0
        assert batch.is_empty

    def test_from_rows_round_trips_through_points(self):
        points = [SpaceTimePoint(1.0, 0.1, 0.2), SpaceTimePoint(2.0, 0.3, 0.4)]
        batch = EventBatch.from_rows([(p.t, p.x, p.y) for p in points])
        assert len(batch) == 2
        assert batch.points() == points

    def test_from_rows_empty_sequence(self):
        assert EventBatch.from_rows([]).is_empty

    def test_from_rows(self):
        batch = EventBatch.from_rows([(1.0, 2.0, 3.0), (4.0, 5.0, 6.0)])
        assert batch.t.tolist() == [1.0, 4.0]
        assert batch.x.tolist() == [2.0, 5.0]
        assert batch.y.tolist() == [3.0, 6.0]

    def test_from_bad_rows_raises(self):
        with pytest.raises(PointProcessError):
            EventBatch.from_rows([(1.0, 2.0)])

    def test_mismatched_array_lengths_raise(self):
        with pytest.raises(PointProcessError):
            EventBatch(np.zeros(3), np.zeros(2), np.zeros(3))

    def test_non_1d_arrays_raise(self):
        with pytest.raises(PointProcessError):
            EventBatch(np.zeros((2, 2)), np.zeros((2, 2)), np.zeros((2, 2)))

    def test_concatenate(self):
        a = EventBatch.from_rows([(1.0, 0.0, 0.0)])
        b = EventBatch.from_rows([(2.0, 1.0, 1.0), (3.0, 2.0, 2.0)])
        merged = EventBatch.concatenate([a, b])
        assert len(merged) == 3

    def test_concatenate_with_empties(self):
        a = EventBatch.empty()
        b = EventBatch.from_rows([(2.0, 1.0, 1.0)])
        assert len(EventBatch.concatenate([a, b, a])) == 1
        assert EventBatch.concatenate([a, a]).is_empty


class TestSelectionsAndViews:
    @pytest.fixture
    def batch(self):
        return EventBatch.from_rows(
            [(3.0, 0.5, 0.5), (1.0, 0.1, 0.9), (2.0, 0.9, 0.1), (4.0, 1.5, 1.5)]
        )

    def test_sorted_by_time(self, batch):
        ordered = batch.sorted_by_time()
        assert ordered.t.tolist() == [1.0, 2.0, 3.0, 4.0]

    def test_getitem_int_and_slice(self, batch):
        single = batch[1]
        assert len(single) == 1
        assert single.t[0] == 1.0
        assert len(batch[:2]) == 2

    def test_select_mask(self, batch):
        mask = batch.t > 2.0
        assert len(batch.select(mask)) == 2

    def test_select_bad_mask_raises(self, batch):
        with pytest.raises(PointProcessError):
            batch.select(np.array([True, False]))

    def test_select_by_region_mask(self, batch):
        region = RectRegion(Rectangle(0, 0, 1, 1))
        restricted = batch.select(region.contains_many(batch.x, batch.y))
        assert len(restricted) == 3

    def test_restrict_to_time(self, batch):
        assert len(batch.restrict_to_time(1.0, 3.0)) == 2

    def test_restrict_to_invalid_window_raises(self, batch):
        with pytest.raises(PointProcessError):
            batch.restrict_to_time(2.0, 2.0)

    def test_shifted(self, batch):
        shifted = batch.shifted(dt=1.0, dx=-0.1, dy=0.2)
        assert shifted.t.tolist() == [4.0, 2.0, 3.0, 5.0]
        assert shifted.x[0] == pytest.approx(0.4)
        assert shifted.y[0] == pytest.approx(0.7)

    def test_iteration_yields_points(self, batch):
        points = list(batch)
        assert all(isinstance(p, SpaceTimePoint) for p in points)
        assert len(points) == 4


class TestSummaries:
    def test_time_span_and_duration(self):
        batch = EventBatch.from_rows([(1.0, 0, 0), (5.0, 0, 0), (3.0, 0, 0)])
        assert batch.time_span() == (1.0, 5.0)
        assert batch.duration() == pytest.approx(4.0)

    def test_empty_time_span(self):
        assert EventBatch.empty().time_span() == (0.0, 0.0)
        assert EventBatch.empty().duration() == 0.0

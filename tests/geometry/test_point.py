"""Unit tests for SpacePoint and SpaceTimePoint."""

from repro.geometry import SpacePoint, SpaceTimePoint


class TestSpacePoint:
    def test_iteration_yields_x_then_y(self):
        p = SpacePoint(2.0, 3.0)
        assert list(p) == [2.0, 3.0]

    def test_ordering_is_lexicographic(self):
        assert SpacePoint(1.0, 5.0) < SpacePoint(2.0, 0.0)
        assert SpacePoint(1.0, 1.0) < SpacePoint(1.0, 2.0)

    def test_points_are_hashable(self):
        assert len({SpacePoint(1, 2), SpacePoint(1, 2), SpacePoint(2, 1)}) == 2


class TestSpaceTimePoint:
    def test_shifted_moves_all_coordinates(self):
        p = SpaceTimePoint(1.0, 2.0, 3.0).shifted(dt=0.5, dx=-1.0, dy=2.0)
        assert p == SpaceTimePoint(1.5, 1.0, 5.0)

    def test_shifted_defaults_are_zero(self):
        p = SpaceTimePoint(1.0, 2.0, 3.0)
        assert p.shifted() == p

    def test_iteration_order_is_txy(self):
        assert list(SpaceTimePoint(1.0, 2.0, 3.0)) == [1.0, 2.0, 3.0]

    def test_ordering_puts_time_first(self):
        early = SpaceTimePoint(1.0, 99.0, 99.0)
        late = SpaceTimePoint(2.0, 0.0, 0.0)
        assert early < late

    def test_sorting_a_list_orders_by_time(self):
        points = [SpaceTimePoint(t, 0.0, 0.0) for t in (3.0, 1.0, 2.0)]
        assert [p.t for p in sorted(points)] == [1.0, 2.0, 3.0]

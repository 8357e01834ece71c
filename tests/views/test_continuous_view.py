"""Unit tests for ContinuousView maintenance, driven without an engine.

The view is fed delivered :class:`TupleBatch` columns directly (exactly
what the subscription path hands it) and its clock is advanced by hand, so
window/pane/grouping semantics are pinned down independently of the
simulation.
"""

import numpy as np
import pytest

from repro.errors import ViewError
from repro.geometry import Grid, Rectangle
from repro.streams import TupleBatch
from repro.views import ContinuousView, ViewSpec


def make_grid(side=2, extent=4.0):
    return Grid(Rectangle(0.0, 0.0, extent, extent), side)


def make_view(spec, *, grid=None, retention_batches=None, start_time=0.0):
    return ContinuousView(
        spec,
        name="V",
        query_id=1,
        query_label="Q1",
        grid=grid if grid is not None else make_grid(),
        batch_duration=1.0,
        retention_batches=retention_batches,
        start_time=start_time,
    )


def batch(ts, xs=None, ys=None, values=None, attribute="rain"):
    ts = np.asarray(ts, dtype=float)
    n = ts.shape[0]
    xs = np.zeros(n) + 0.5 if xs is None else np.asarray(xs, dtype=float)
    ys = np.zeros(n) + 0.5 if ys is None else np.asarray(ys, dtype=float)
    values = np.ones(n) if values is None else np.asarray(values)
    ids = np.arange(n, dtype=np.int64)
    return TupleBatch(attribute, ts, xs, ys, values, ids, ids)


class TestTumblingMaintenance:
    def test_frames_emit_at_window_close(self):
        view = make_view(ViewSpec(aggregate="SUM", window=2.0))
        view.on_delivery(batch([0.2, 0.8], values=[1.0, 2.0]))
        assert view.advance_to(1.0) == []  # window [0, 2) still open
        view.on_delivery(batch([1.5], values=[4.0]))
        (frame,) = view.advance_to(2.0)
        assert frame.window_start == 0.0 and frame.window_end == 2.0
        assert frame.tuples == 3
        assert frame.values.tolist() == [7.0]
        assert list(frame.keys) == ["*"]

    def test_quiet_windows_emit_empty_frames(self):
        view = make_view(ViewSpec(aggregate="COUNT", window=1.0))
        view.on_delivery(batch([0.5]))
        frames = view.advance_to(3.0)
        assert [f.window_start for f in frames] == [0.0, 1.0, 2.0]
        assert [f.tuples for f in frames] == [1, 0, 0]
        assert frames[1].is_empty

    def test_boundary_tuple_lands_in_exactly_one_frame(self):
        view = make_view(ViewSpec(aggregate="COUNT", window=1.0))
        view.on_delivery(batch([0.5, 1.0]))  # 1.0 is exactly on the boundary
        first, second = view.advance_to(2.0)
        assert first.tuples == 1  # [0, 1) holds only t=0.5
        assert second.tuples == 1  # [1, 2) holds only t=1.0
        assert view.buffer.tuples_total == 2

    def test_cell_grouping_uses_coordinates(self):
        grid = make_grid(side=2, extent=4.0)  # 2x2 km cells
        view = make_view(
            ViewSpec(aggregate="AVG", window=1.0, group_by="cell"), grid=grid
        )
        view.on_delivery(
            batch(
                [0.1, 0.2, 0.3],
                xs=[0.5, 3.5, 0.6],
                ys=[0.5, 3.5, 0.7],
                values=[2.0, 10.0, 4.0],
            )
        )
        (frame,) = view.advance_to(1.0)
        assert list(frame.keys) == [(0, 0), (1, 1)]
        assert frame.values.tolist() == pytest.approx([3.0, 10.0])
        assert frame.counts.tolist() == [2, 1]

    def test_attribute_grouping_keys_by_stream_attribute(self):
        view = make_view(ViewSpec(aggregate="COUNT", window=1.0, group_by="attribute"))
        view.on_delivery(batch([0.1, 0.2], attribute="rain"))
        (frame,) = view.advance_to(1.0)
        assert list(frame.keys) == ["rain"]
        assert frame.counts.tolist() == [2]

    def test_percentile_aggregate_over_window(self):
        view = make_view(ViewSpec(aggregate="P50", window=1.0))
        view.on_delivery(batch(np.linspace(0.0, 0.9, 9), values=np.arange(1.0, 10.0)))
        (frame,) = view.advance_to(1.0)
        assert frame.values[0] == 5.0  # exact median, sketch never compacted

    def test_non_numeric_values_raise_for_numeric_aggregates(self):
        view = make_view(ViewSpec(aggregate="AVG", window=1.0))
        values = np.empty(1, dtype=object)
        values[:] = ["wet"]
        with pytest.raises(ViewError, match="numeric"):
            view.on_delivery(batch([0.1], values=values))

    def test_count_ignores_value_column(self):
        view = make_view(ViewSpec(aggregate="COUNT", window=1.0))
        values = np.empty(2, dtype=object)
        values[:] = ["wet", "dry"]
        view.on_delivery(batch([0.1, 0.2], values=values))
        (frame,) = view.advance_to(1.0)
        assert frame.values.tolist() == [2.0]


class TestSlidingMaintenance:
    def test_panes_merge_into_overlapping_frames(self):
        view = make_view(ViewSpec(aggregate="SUM", window=2.0, slide=1.0))
        view.on_delivery(batch([0.5], values=[1.0]))
        assert view.advance_to(1.0) == []  # first full window ends at t=2
        view.on_delivery(batch([1.5], values=[10.0]))
        (w01,) = view.advance_to(2.0)
        assert (w01.window_start, w01.window_end) == (0.0, 2.0)
        assert w01.values.tolist() == [11.0]
        view.on_delivery(batch([2.5], values=[100.0]))
        (w12,) = view.advance_to(3.0)
        assert (w12.window_start, w12.window_end) == (1.0, 3.0)
        assert w12.values.tolist() == [110.0]

    def test_shared_panes_are_not_mutated_across_frames(self):
        # P50 partials are mutable sketches; merging them into a frame
        # must not corrupt the pane a later frame still needs.
        view = make_view(ViewSpec(aggregate="P50", window=2.0, slide=1.0))
        view.on_delivery(batch([0.5], values=[1.0]))
        view.on_delivery(batch([1.5], values=[3.0]))
        view.on_delivery(batch([2.5], values=[5.0]))
        frames = view.advance_to(3.0)
        assert [f.values.tolist() for f in frames] == [[1.0], [3.0]]

    def test_tuples_count_once_per_overlapping_frame(self):
        view = make_view(ViewSpec(aggregate="COUNT", window=3.0, slide=1.0))
        view.on_delivery(batch([0.5, 1.5, 2.5]))
        frames = view.advance_to(5.0)
        # Windows [0,3), [1,4), [2,5): the t=2.5 tuple is in all three.
        assert [f.tuples for f in frames] == [3, 2, 1]


class TestPaneLifecycle:
    def test_tuple_after_a_gap_lands_in_its_own_pane(self):
        view = make_view(ViewSpec(aggregate="COUNT", window=1.0))
        view.on_delivery(batch([0.5]))
        assert len(view.advance_to(5.0)) == 5
        view.on_delivery(batch([5.5]))
        (frame,) = view.advance_to(6.0)
        assert (frame.window_start, frame.tuples) == (5.0, 1)

    def test_repeated_advance_emits_nothing_and_does_not_drift(self):
        view = make_view(ViewSpec(aggregate="COUNT", window=2.0))
        view.on_delivery(batch([0.5]))
        assert len(view.advance_to(2.0)) == 1
        assert view.advance_to(2.0) == []
        assert view.advance_to(3.0) == []  # window [2, 4) still open
        view.on_delivery(batch([2.5]))
        (frame,) = view.advance_to(4.0)
        assert (frame.window_start, frame.tuples) == (2.0, 1)

    def test_late_tuple_joins_open_pane(self):
        view = make_view(ViewSpec(aggregate="COUNT", window=1.0))
        view.on_delivery(batch([0.9]))
        view.on_delivery(batch([0.1]))
        (frame,) = view.advance_to(1.0)
        assert frame.tuples == 2

    def test_tuple_for_a_closed_pane_lands_in_the_oldest_open_pane(self):
        view = make_view(ViewSpec(aggregate="COUNT", window=1.0))
        (closed,) = view.advance_to(1.0)
        view.on_delivery(batch([0.5]))  # [0, 1) already emitted
        (frame,) = view.advance_to(2.0)
        assert closed.is_empty
        assert (frame.window_start, frame.tuples) == (1.0, 1)
        assert view.buffer.tuples_total == 1

    def test_sliding_boundary_tuple_skips_the_closing_frame(self):
        view = make_view(ViewSpec(aggregate="COUNT", window=2.0, slide=1.0))
        view.on_delivery(batch([2.0]))
        frames = view.advance_to(4.0)
        # Windows [0,2), [1,3), [2,4): t=2.0 opens pane [2, 3).
        assert [f.tuples for f in frames] == [0, 1, 1]

    def test_empty_delivery_changes_nothing(self):
        view = make_view(ViewSpec(aggregate="SUM", window=1.0), start_time=0.5)
        view.on_delivery(batch([]))
        assert view.advance_to(1.0) == []  # [0, 1) was only half observed
        (frame,) = view.advance_to(2.0)
        assert frame.is_empty


class TestAttachmentAndRetention:
    def test_mid_stream_attachment_skips_partial_panes(self):
        view = make_view(ViewSpec(aggregate="COUNT", window=2.0), start_time=3.0)
        # Pane [2, 4) was half-observed when the view attached at t=3;
        # its tuples are excluded so no partial frame is ever served.
        view.on_delivery(batch([3.5, 4.5]))
        frames = view.advance_to(6.0)
        assert [f.window_start for f in frames] == [4.0]
        assert frames[0].tuples == 1

    def test_a_delivery_wholly_before_the_origin_reaches_no_frame(self):
        view = make_view(ViewSpec(aggregate="COUNT", window=2.0), start_time=3.0)
        view.on_delivery(batch([2.5, 2.9]))
        view.on_delivery(batch([4.2]))
        (frame,) = view.advance_to(6.0)
        assert frame.window_start == 4.0
        assert frame.tuples == 1
        assert view.buffer.tuples_total == 1

    def test_aligned_attachment_drops_nothing(self):
        view = make_view(ViewSpec(aggregate="COUNT", window=2.0), start_time=4.0)
        view.on_delivery(batch([4.1, 5.9]))
        (frame,) = view.advance_to(6.0)
        assert frame.tuples == 2

    def test_retention_maps_batches_to_frames(self):
        view = make_view(
            ViewSpec(aggregate="COUNT", window=2.0), retention_batches=6
        )
        for i in range(20):
            view.on_delivery(batch([i + 0.5]))
            view.advance_to(float(i + 1))
        # One frame per 2 batches; 6 retained batches -> 3 retained frames.
        assert view.buffer.retention_frames == 3
        assert len(view.buffer) == 3
        assert view.buffer.frames_emitted == 10
        assert view.buffer.tuples_total == 20  # lifetime total survives

    def test_window_must_align_to_batch_duration(self):
        with pytest.raises(ViewError, match="batch duration"):
            ContinuousView(
                ViewSpec(aggregate="COUNT", window=2.5),
                name="V",
                query_id=1,
                query_label="Q1",
                grid=make_grid(),
                batch_duration=1.0,
            )

    def test_detach_is_idempotent(self):
        class FakeSubscription:
            cancelled = 0

            def cancel(self):
                FakeSubscription.cancelled += 1

        view = make_view(ViewSpec(aggregate="COUNT", window=1.0))
        view.attach(FakeSubscription())
        assert view.is_active
        view.detach()
        view.detach()
        assert not view.is_active
        assert FakeSubscription.cancelled == 1

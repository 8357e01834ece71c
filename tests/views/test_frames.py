"""Unit tests for ViewFrame, ViewFrameBuffer and FrameCursor."""

import numpy as np
import pytest

from repro.errors import StorageError, ViewError
from repro.views import ViewFrame, ViewFrameBuffer


def make_frame(index, groups=2, start=None):
    keys = np.empty(groups, dtype=object)
    keys[:] = [(g, 0) for g in range(groups)]
    start = float(index) if start is None else start
    return ViewFrame(
        frame_index=index,
        window_start=start,
        window_end=start + 1.0,
        keys=keys,
        values=np.arange(groups, dtype=np.float64),
        counts=np.full(groups, 10, dtype=np.int64),
    )


class TestViewFrame:
    def test_column_lengths_must_agree(self):
        keys = np.empty(2, dtype=object)
        keys[:] = ["a", "b"]
        with pytest.raises(ViewError, match="disagree"):
            ViewFrame(0, 0.0, 1.0, keys, np.zeros(3), np.zeros(2, dtype=np.int64))

    def test_accessors(self):
        frame = make_frame(3, groups=4)
        assert frame.groups == 4 and len(frame) == 4
        assert frame.tuples == 40
        assert not frame.is_empty
        assert dict(zip(frame.keys, frame.values.tolist()))[(2, 0)] == 2.0

    def test_empty_frame(self):
        frame = ViewFrame(
            0, 0.0, 1.0,
            np.empty(0, dtype=object), np.empty(0), np.empty(0, dtype=np.int64),
        )
        assert frame.is_empty and frame.tuples == 0


class TestViewFrameBuffer:
    def test_rejects_bad_retention(self):
        with pytest.raises(StorageError):
            ViewFrameBuffer(retention_frames=0)

    def test_without_retention_every_frame_is_kept(self):
        buffer = ViewFrameBuffer()
        for i in range(5):
            buffer.append(make_frame(i))
        assert len(buffer) == buffer.frames_emitted == 5
        assert [f.frame_index for f in buffer.frames()] == [0, 1, 2, 3, 4]

    def test_append_enforces_lifetime_order(self):
        buffer = ViewFrameBuffer()
        buffer.append(make_frame(0))
        with pytest.raises(StorageError, match="lifetime order"):
            buffer.append(make_frame(5))

    def test_retention_evicts_but_totals_survive(self):
        buffer = ViewFrameBuffer(retention_frames=3)
        for i in range(10):
            buffer.append(make_frame(i))
        assert len(buffer) == 3
        assert buffer.frames_emitted == 10
        assert buffer.tuples_total == 10 * 20  # exact despite eviction
        retained = buffer.frames()
        assert [f.frame_index for f in retained] == [7, 8, 9]
        assert buffer.latest().frame_index == 9

    def test_frame_lookup(self):
        buffer = ViewFrameBuffer(retention_frames=2)
        for i in range(4):
            buffer.append(make_frame(i))
        assert buffer.frame(3).frame_index == 3
        with pytest.raises(StorageError, match="evicted"):
            buffer.frame(0)
        with pytest.raises(StorageError, match="not been emitted"):
            buffer.frame(4)


class TestFrameCursor:
    def test_reads_only_new_frames(self):
        buffer = ViewFrameBuffer()
        cursor = buffer.cursor()
        assert cursor.fetch() == []
        buffer.append(make_frame(0))
        buffer.append(make_frame(1))
        got = cursor.fetch()
        assert [f.frame_index for f in got] == [0, 1]
        assert cursor.fetch() == []
        buffer.append(make_frame(2))
        assert [f.frame_index for f in cursor.fetch()] == [2]
        assert cursor.pending == 0

    def test_tail_cursor_skips_history(self):
        buffer = ViewFrameBuffer()
        buffer.append(make_frame(0))
        cursor = buffer.cursor(tail=True)
        assert cursor.fetch() == []
        buffer.append(make_frame(1))
        assert [f.frame_index for f in cursor.fetch()] == [1]

    def test_lagging_cursor_raises_after_eviction(self):
        buffer = ViewFrameBuffer(retention_frames=2)
        cursor = buffer.cursor()
        for i in range(5):
            buffer.append(make_frame(i))
        with pytest.raises(StorageError, match="has been evicted"):
            cursor.fetch()

    def test_caught_up_cursor_survives_eviction(self):
        buffer = ViewFrameBuffer(retention_frames=2)
        cursor = buffer.cursor()
        buffer.append(make_frame(0))
        assert len(cursor.fetch()) == 1
        for i in range(1, 6):
            buffer.append(make_frame(i))
        # The cursor fell behind but frame 0 was read before eviction;
        # frames 1..3 were evicted unread -> that *is* data loss.
        with pytest.raises(StorageError):
            cursor.fetch()
        fresh = buffer.cursor()
        assert [f.frame_index for f in fresh.fetch()] == [4, 5]

    def test_iteration_drains_pending(self):
        buffer = ViewFrameBuffer()
        buffer.append(make_frame(0))
        cursor = buffer.cursor()
        assert [f.frame_index for f in cursor] == [0]

"""Restore × retention: bounded buffers keep exact lifetime accounting.

A checkpoint of an engine whose buffers already evicted history must
round-trip the *running totals* exactly (they are the paper's achieved-
rate denominators), and cursors reconstructed after a restore must behave
exactly like the pre-crash ones: a cursor that fell behind the retained
window still raises :class:`~repro.errors.StorageError`, a caught-up one
resumes losslessly at O(new) cost.
"""

import pytest

from recovery_harness import engine_digest, make_engine, restore_latest_fresh, run_to
from repro.errors import StorageError
from repro.storage import ResultCursor
from repro.views.frames import FrameCursor

RETENTION = 3  # batches; the view's frame retention derives from it


def make_retained_engine(tmp_path, *, every=2):
    return make_engine(
        checkpoint_dir=tmp_path, every=every, retention_batches=RETENTION
    )


class TestLifetimeTotals:
    def test_totals_exact_after_evict_and_restore(self, tmp_path):
        engine = run_to(make_retained_engine(tmp_path), 10)
        buffer = engine.query("Storm").buffer
        frames = engine.view("Rain").buffer
        # Eviction really happened — retained history < lifetime history.
        assert len(engine.query("Storm").results()) < buffer.total_tuples
        assert len(frames) < frames.frames_emitted

        restored = restore_latest_fresh(tmp_path)
        rbuffer = restored.query("Storm").buffer
        rframes = restored.view("Rain").buffer
        assert rbuffer.total_tuples == buffer.total_tuples
        assert rbuffer.batches_completed == buffer.batches_completed == 10
        assert rframes.frames_emitted == frames.frames_emitted
        assert rframes.tuples_total == frames.tuples_total
        assert restored.total_tuples_delivered() == engine.total_tuples_delivered()
        assert restored.total_tuples_acquired() == engine.total_tuples_acquired()

    def test_retained_run_converges_after_restore(self, tmp_path):
        reference = run_to(make_retained_engine(tmp_path), 10)
        restored = run_to(restore_latest_fresh(tmp_path), 10)
        assert engine_digest(restored) == engine_digest(reference)


class TestResultCursors:
    def test_lagging_cursor_raises_before_and_after_restore(self, tmp_path):
        engine = make_retained_engine(tmp_path)
        lagging = engine.query("Storm").cursor()  # at the head, never read
        run_to(engine, 10)  # retention=3 evicts the cursor's position
        chunk_seq, _ = lagging.position
        consumed = lagging.consumed
        with pytest.raises(StorageError, match="retains"):
            lagging.fetch()

        restored = restore_latest_fresh(tmp_path)
        # A consumer persisting its offsets and rebuilding its cursor after
        # the crash gets the same verdict the pre-crash cursor got.
        rebuilt = ResultCursor(restored.query("Storm").buffer, chunk_seq, consumed)
        with pytest.raises(StorageError, match="retains"):
            rebuilt.fetch()

    def test_caught_up_cursor_resumes_losslessly(self, tmp_path):
        engine = make_retained_engine(tmp_path, every=4)
        run_to(engine, 8)  # checkpoint-8 written at this boundary
        cursor = engine.query("Storm").cursor()
        cursor.fetch()  # drain: the consumer is caught up at the crash
        chunk_seq, _ = cursor.position
        consumed = cursor.consumed

        run_to(engine, 10)
        expected_ids = [t.tuple_id for t in cursor.fetch()]
        assert expected_ids  # the tail really delivered something

        restored = run_to(restore_latest_fresh(tmp_path), 10)
        rebuilt = ResultCursor(restored.query("Storm").buffer, chunk_seq, consumed)
        assert rebuilt.pending == len(expected_ids)  # O(new): only the tail
        assert [t.tuple_id for t in rebuilt.fetch()] == expected_ids


class TestFrameCursors:
    def test_lagging_frame_cursor_raises_before_and_after_restore(self, tmp_path):
        engine = make_retained_engine(tmp_path)
        lagging = engine.view("Rain").frame_cursor()  # at frame 0, never read
        run_to(engine, 12)  # window 2 → 6 frames emitted, ~2 retained
        position = lagging.position
        frames = engine.view("Rain").buffer
        assert len(frames) < frames.frames_emitted
        with pytest.raises(StorageError, match="retains"):
            lagging.fetch()

        restored = restore_latest_fresh(tmp_path)
        rebuilt = FrameCursor(restored.view("Rain").buffer, position)
        with pytest.raises(StorageError, match="retains"):
            rebuilt.fetch()

    def test_caught_up_frame_cursor_resumes_losslessly(self, tmp_path):
        engine = make_retained_engine(tmp_path, every=4)
        run_to(engine, 8)
        cursor = engine.view("Rain").frame_cursor()
        cursor.fetch()
        position = cursor.position

        run_to(engine, 12)
        expected = [
            (f.frame_index, f.values.tobytes(), f.counts.tobytes())
            for f in cursor.fetch()
        ]
        assert expected

        restored = run_to(restore_latest_fresh(tmp_path), 12)
        rebuilt = FrameCursor(restored.view("Rain").buffer, position)
        got = [
            (f.frame_index, f.values.tobytes(), f.counts.tobytes())
            for f in rebuilt.fetch()
        ]
        assert got == expected


class TestErrorMessages:
    def test_lagging_cursor_error_states_window_and_position(self, tmp_path):
        engine = make_retained_engine(tmp_path)
        lagging = engine.query("Storm").cursor()
        run_to(engine, 10)
        with pytest.raises(StorageError) as exc:
            lagging.fetch()
        message = str(exc.value)
        # The message must state the retained window bounds AND where the
        # cursor was, so the consumer can reason about the gap.
        assert "retains" in message and "behind" in message
        assert "retention" in message
        assert "fresh cursor()" in message

    def test_out_of_window_rate_error_states_window(self, tmp_path):
        engine = run_to(make_retained_engine(tmp_path), 10)
        buffer = engine.query("Storm").buffer
        with pytest.raises(StorageError) as exc:
            buffer.tuples_over_batches(last=8)  # only 3 batches retained
        message = str(exc.value)
        assert "retain" in message
        assert "last=None" in message

    def test_lagging_frame_cursor_error_names_remedy(self, tmp_path):
        engine = make_retained_engine(tmp_path)
        lagging = engine.view("Rain").frame_cursor()
        run_to(engine, 12)
        with pytest.raises(StorageError) as exc:
            lagging.fetch()
        assert "fresh frame_cursor()" in str(exc.value)

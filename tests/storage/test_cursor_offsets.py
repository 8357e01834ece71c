"""Cursor-offset round-trips: token-rebuilt cursors fetch byte-identically.

Satellite of the serving layer: an offset token minted from a cursor must
rebuild a cursor whose fetches are byte-identical (through the wire
codec) to the fetches the original cursor would have made — including
when the token crosses an engine checkpoint/restore, and failing with
:class:`~repro.errors.StorageError` (not hanging, not silently skipping)
when the token lags past retention.
"""

from __future__ import annotations

import base64
import json
from dataclasses import replace

import numpy as np
import pytest

import repro.core.query as _query_module
from repro.config import CheckpointConfig
from repro.core import CraqrEngine
from repro.core.query import QueryIdAllocator
from repro.errors import StorageError
from repro.geometry import Rectangle
from repro.sensing import (
    AlwaysRespond,
    RainField,
    RandomWaypointMobility,
    SensingWorld,
    TemperatureField,
    WorldConfig,
)
from repro.serve.tokens import (
    frame_cursor_from_token,
    frame_token,
    result_cursor_from_token,
    result_token,
)
from repro.streams.codec import encode_tuple_batch, encode_view_frame
from repro.workloads import default_engine_config

REGION = Rectangle(0.0, 0.0, 4.0, 4.0)
QUERY = "ACQUIRE rain FROM RECT(0, 0, 2, 2) AT RATE 8 PER KM2 PER MIN AS Storm"
VIEW = "CREATE VIEW Rain ON Storm AS AVG(value) GROUP BY CELL WINDOW 2"


def make_engine(*, checkpoint_dir=None, retention_batches=None, view=True):
    _query_module._query_ids = QueryIdAllocator()
    config = default_engine_config(retention_batches=retention_batches)
    if checkpoint_dir is not None:
        config = replace(
            config, checkpoints=CheckpointConfig(directory=str(checkpoint_dir), every=2)
        )
    world = SensingWorld(
        WorldConfig(region=REGION, sensor_count=80, seed=11),
        mobility_factory=lambda r: RandomWaypointMobility(r, speed=0.25, pause=0.5),
        participation_factory=lambda sensor_id: AlwaysRespond(),
    )
    world.register_field(RainField(REGION, band_width=1.2, period=60.0))
    world.register_field(TemperatureField(REGION))
    engine = CraqrEngine(config, world)
    engine.execute(QUERY)
    if view:
        engine.execute(VIEW)
    return engine


class TestResultCursorTokens:
    def test_two_step_fetch_equals_straight_through(self):
        engine = make_engine(view=False)
        engine.run(4)
        cursor = engine.query("Storm").buffer.cursor()
        first = cursor.fetch_batch()
        token = result_token(cursor)
        engine.run(3)

        rest = result_cursor_from_token(
            engine.query("Storm").buffer, token
        ).fetch_batch()
        whole = engine.query("Storm").buffer.cursor().fetch_batch()
        for name in ("t", "x", "y", "value", "sensor_id", "tuple_id"):
            np.testing.assert_array_equal(
                np.concatenate([getattr(first, name), getattr(rest, name)]),
                getattr(whole, name),
            )

    def test_rebuilt_and_original_cursor_fetch_identical_bytes(self):
        engine = make_engine(view=False)
        engine.run(2)
        original = engine.query("Storm").buffer.cursor()
        original.fetch_batch()
        token = result_token(original)
        engine.run(2)

        rebuilt = result_cursor_from_token(engine.query("Storm").buffer, token)
        assert encode_tuple_batch(rebuilt.fetch_batch()) == encode_tuple_batch(
            original.fetch_batch()
        )
        # Both now sit at the same frontier and mint the same token.
        assert result_token(rebuilt) == result_token(original)

    def test_token_survives_checkpoint_restore(self, tmp_path):
        engine = make_engine(checkpoint_dir=tmp_path, view=False)
        engine.run(2)
        cursor = engine.query("Storm").buffer.cursor()
        cursor.fetch_batch()
        token = result_token(cursor)
        engine.run(4)  # checkpoints fire at batches 2, 4, 6
        expected = encode_tuple_batch(
            result_cursor_from_token(engine.query("Storm").buffer, token).fetch_batch()
        )

        _query_module._query_ids = QueryIdAllocator()
        restored = CraqrEngine.restore_latest(tmp_path)
        assert restored.batches_run == 6
        got = encode_tuple_batch(
            result_cursor_from_token(
                restored.query("Storm").buffer, token
            ).fetch_batch()
        )
        assert got == expected  # byte-identical across the restore

    def test_token_past_retention_raises_storage_error(self):
        engine = make_engine(retention_batches=2, view=False)
        engine.run(1)
        cursor = engine.query("Storm").buffer.cursor()
        token = result_token(cursor)
        engine.run(8)
        with pytest.raises(StorageError, match="open a fresh"):
            result_cursor_from_token(engine.query("Storm").buffer, token).fetch_batch()

    @staticmethod
    def forge(**fields):
        raw = json.dumps({"k": "results", **fields}, separators=(",", ":"))
        return base64.urlsafe_b64encode(raw.encode()).decode()

    def test_minted_tokens_sit_on_chunk_boundaries(self):
        # Reads consume whole chunks, so every token the server can mint —
        # head, mid-stream, tail — is a chunk sequence and a lifetime
        # count; the always-zero row field left the wire.
        engine = make_engine(view=False)
        buffer = engine.query("Storm").buffer
        cursor = buffer.cursor()
        tokens = [result_token(cursor)]
        for _ in range(3):
            engine.run(1)
            cursor.fetch_batch()
            tokens.append(result_token(cursor))
        tokens.append(result_token(buffer.cursor(tail=True)))
        for token in tokens:
            fields = json.loads(base64.urlsafe_b64decode(token))
            assert sorted(fields) == ["c", "g", "k"]
        assert tokens[0] == self.forge(c=0, g=0)

    def test_token_with_the_old_row_field_resumes_where_it_did(self):
        # Tokens used to carry ``"r": 0``; one minted that way resumes
        # exactly where the cursor it was minted from goes on reading.
        engine = make_engine(view=False)
        engine.run(2)
        buffer = engine.query("Storm").buffer
        cursor = buffer.cursor()
        cursor.fetch_batch()
        fields = json.loads(base64.urlsafe_b64decode(result_token(cursor)))
        old = self.forge(c=fields["c"], r=0, g=fields["g"])
        engine.run(2)

        rebuilt = result_cursor_from_token(buffer, old)
        got = rebuilt.fetch_batch()
        assert len(got) > 0
        assert encode_tuple_batch(got) == encode_tuple_batch(cursor.fetch_batch())
        assert result_token(rebuilt) == result_token(cursor)

    def test_forged_row_is_ignored_not_silently_skipped(self):
        # Regression: a token's ``r`` used to be trusted, and a chunk no
        # longer than ``r`` was skipped without a word — the forged token
        # below read all but the first chunk, reported that as everything
        # consumed, and sat at the tail with ``pending > 0`` forever.  The
        # row is no longer read: every token resumes at a chunk boundary.
        engine = make_engine(view=False)
        engine.run(3)
        buffer = engine.query("Storm").buffer
        for row in (1, 1_000_000):
            forged = result_cursor_from_token(buffer, self.forge(c=0, r=row, g=0))
            assert len(forged.fetch_batch()) == buffer.total_tuples
            assert forged.pending == 0

    def test_forged_chunk_past_the_frontier_raises_at_fetch(self):
        engine = make_engine(view=False)
        engine.run(2)
        buffer = engine.query("Storm").buffer
        frontier = buffer.cursor(tail=True).position[0]
        ahead = result_cursor_from_token(buffer, self.forge(c=frontier + 1, r=0, g=0))
        with pytest.raises(StorageError, match="ahead of the buffer"):
            ahead.fetch_batch()


class TestFrameCursorTokens:
    def test_two_step_fetch_equals_straight_through(self):
        engine = make_engine()
        engine.run(4)  # frames 0, 1
        cursor = engine.view("Rain").buffer.cursor()
        first = cursor.fetch()
        token = frame_token(cursor)
        engine.run(4)  # frames 2, 3

        rest = frame_cursor_from_token(engine.view("Rain").buffer, token).fetch()
        whole = engine.view("Rain").buffer.cursor().fetch()
        assert [encode_view_frame(f) for f in first + rest] == [
            encode_view_frame(f) for f in whole
        ]

    def test_token_survives_checkpoint_restore(self, tmp_path):
        engine = make_engine(checkpoint_dir=tmp_path)
        engine.run(4)
        cursor = engine.view("Rain").buffer.cursor()
        consumed = cursor.fetch()
        assert [f.frame_index for f in consumed] == [0, 1]
        token = frame_token(cursor)
        engine.run(2)  # frame 2; checkpoint at batch 6
        expected = [
            encode_view_frame(f)
            for f in frame_cursor_from_token(engine.view("Rain").buffer, token).fetch()
        ]

        _query_module._query_ids = QueryIdAllocator()
        restored = CraqrEngine.restore_latest(tmp_path)
        got = [
            encode_view_frame(f)
            for f in frame_cursor_from_token(
                restored.view("Rain").buffer, token
            ).fetch()
        ]
        assert got == expected
        assert [  # and the restored engine keeps emitting past the token
            f.frame_index for f in restored.view("Rain").frames()
        ] == [0, 1, 2]

    def test_token_past_retention_raises_storage_error(self):
        from repro.serve.tokens import frame_token_at
        from repro.views.frames import ViewFrame, ViewFrameBuffer

        buffer = ViewFrameBuffer(retention_frames=2)
        for i in range(6):
            keys = np.empty(1, dtype=object)
            keys[:] = [(0, i)]
            buffer.append(
                ViewFrame(
                    frame_index=i,
                    window_start=2.0 * i,
                    window_end=2.0 * i + 2.0,
                    keys=keys,
                    values=np.array([float(i)]),
                    counts=np.array([1], dtype=np.int64),
                )
            )
        stale = frame_token_at(1)  # frames 0..3 are gone
        with pytest.raises(StorageError, match="open a fresh"):
            frame_cursor_from_token(buffer, stale).fetch()

"""A query's batch is one retained chunk, and retained chunks are read-only.

The compiled programs deliver each query's batch whole, so its result
buffer holds one chunk per batch however many cells the query spans, and
retention bounds the chunk count by ``retention_batches``.  Reads hand out
stored chunks themselves — a one-batch fetch is that batch's chunk, and
every subscriber of a batch gets the same object — so
``QueryResultBuffer.extend_batch`` flags every column of a chunk
read-only, and a restored buffer flags its chunks again (pickle does not
keep the flag).  A consumer writing into what it read gets ``ValueError``
instead of rewriting retained history.
"""

import pytest

from repro import AcquisitionalQuery, CraqrEngine, RateSpec
from repro.geometry import Rectangle
from repro.workloads import build_rain_temperature_world, default_engine_config


def make_engine(region, **config):
    world = build_rain_temperature_world(sensor_count=300, seed=11)
    engine = CraqrEngine(default_engine_config(seed=7, **config), world)
    handle = engine.register_query(
        AcquisitionalQuery(
            attribute="rain",
            region=region,
            rate=RateSpec(10.0, area_unit="km2", time_unit="min"),
            name="Q",
        )
    )
    return engine, handle


def columns(batch):
    main = [batch.t, batch.x, batch.y, batch.value, batch.sensor_id, batch.tuple_id]
    return main + list(batch.extra.values())


def assert_read_only(batch):
    assert len(batch) > 0
    assert sorted(batch.extra) == ["cell", "incentive"]
    for column in columns(batch):
        with pytest.raises(ValueError, match="read-only"):
            column[0] = column[0]


def retained_chunks(handle):
    """Chunks between a head and a tail cursor: what the buffer retains."""
    head, _ = handle.cursor().position
    tail, _ = handle.cursor(tail=True).position
    return tail - head


class TestOneChunkPerBatch:
    def test_a_64_cell_query_retains_at_most_retention_batches_chunks(self):
        engine, handle = make_engine(
            Rectangle(0.0, 0.0, 4.0, 4.0), grid_cells=64, retention_batches=3
        )
        assert len(engine.planner.cells_for_query(handle.query.query_id)) == 64
        for batch in range(6):
            engine.run_batch()
            assert retained_chunks(handle) <= min(batch + 1, 3)
        assert handle.buffer.batches_completed == 6
        assert handle.buffer.evicted_tuples > 0


class TestReadOnlyChunks:
    """A one-cell query over a 2x2 corner: every batch is one chunk."""

    def test_writing_into_a_fetched_batch_raises(self):
        engine, handle = make_engine(Rectangle(0.0, 0.0, 2.0, 2.0))
        cursor = handle.cursor()
        engine.run_batch()
        before = handle.results()
        assert_read_only(cursor.fetch_batch())
        assert handle.results() == before
        assert handle.cursor().fetch() == before

    def test_writing_into_a_subscribers_batch_raises(self):
        engine, handle = make_engine(Rectangle(0.0, 0.0, 2.0, 2.0))
        received = []
        handle.subscribe(received.append)
        engine.run_batch()
        before = handle.results()
        assert len(received) == 1
        assert_read_only(received[0])
        assert handle.results() == before


class TestRestoredChunks:
    def test_restored_chunks_stay_read_only(self):
        engine, _handle = make_engine(Rectangle(0.0, 0.0, 2.0, 2.0))
        engine.run_batch()
        restored = engine.snapshot().restore()
        handle = restored.query("Q")
        before = handle.results()
        assert_read_only(handle.cursor().fetch_batch())
        assert handle.results() == before
        # A batch run after the restore is retained read-only as well.
        tail = handle.cursor(tail=True)
        restored.run_batch()
        assert_read_only(tail.fetch_batch())

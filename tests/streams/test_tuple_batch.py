"""Unit tests for the columnar :class:`TupleBatch` representation."""

import numpy as np
import pytest

from repro.errors import StreamError
from repro.streams import (
    NO_SENSOR_ID,
    SensorTuple,
    StreamOperator,
    TupleBatch,
)


class MapOperator(StreamOperator):
    """Applies ``transform`` per tuple and has no native batch path."""

    def __init__(self, transform):
        super().__init__(None, outputs=1)
        self._transform = transform

    def process(self, item):
        self.emit(self._transform(item))


def make_tuples(n=10, attribute="rain"):
    return [
        SensorTuple(
            tuple_id=i,
            attribute=attribute,
            t=float(i) * 0.1,
            x=float(i) * 0.01,
            y=1.0 - float(i) * 0.01,
            value=bool(i % 2),
            sensor_id=i % 3,
            metadata={"cell": (0, 0), "incentive": 0.5},
        )
        for i in range(n)
    ]


class TestRoundTrip:
    def test_from_tuples_to_tuples_is_identity(self):
        items = make_tuples()
        batch = TupleBatch.from_tuples(items)
        assert len(batch) == len(items)
        materialised = batch.to_tuples()
        assert materialised == items
        # Metadata survives too (SensorTuple equality ignores it).
        assert [it.metadata for it in materialised] == [it.metadata for it in items]

    def test_values_are_python_scalars_after_round_trip(self):
        items = make_tuples()
        out = TupleBatch.from_tuples(items).to_tuples()
        assert all(isinstance(item.value, bool) for item in out)
        assert all(isinstance(item.t, float) for item in out)

    def test_missing_sensor_id_round_trips_as_none(self):
        item = SensorTuple(tuple_id=1, attribute="a", t=0.0, x=0.0, y=0.0, sensor_id=None)
        batch = TupleBatch.from_tuples([item])
        assert batch.sensor_id[0] == NO_SENSOR_ID
        assert batch.to_tuples()[0].sensor_id is None

    def test_mixed_attributes_rejected(self):
        items = make_tuples(3, "rain") + make_tuples(3, "temp")
        with pytest.raises(StreamError):
            TupleBatch.from_tuples(items)

    def test_empty(self):
        batch = TupleBatch.empty("rain")
        assert batch.is_empty
        assert len(batch) == 0
        assert batch.to_tuples() == []


class TestTransforms:
    def test_select_by_mask(self):
        batch = TupleBatch.from_tuples(make_tuples(10))
        mask = np.asarray(batch.value, dtype=bool)
        kept = batch.select(mask)
        assert len(kept) == 5
        assert all(item.value for item in kept.to_tuples())
        # Extra columns are sliced along with the main ones.
        assert all(it.metadata["incentive"] == 0.5 for it in kept.to_tuples())

    def test_sorted_by_time(self):
        items = list(reversed(make_tuples(10)))
        batch = TupleBatch.from_tuples(items).sorted_by_time()
        assert list(batch.t) == sorted(batch.t)
        assert batch.to_tuples() == sorted(items, key=lambda it: it.t)

    def test_concatenate(self):
        a = TupleBatch.from_tuples(make_tuples(4))
        b = TupleBatch.from_tuples(make_tuples(6))
        merged = TupleBatch.concatenate([a, b])
        assert len(merged) == 10
        assert merged.attribute == "rain"

    def test_concatenate_preserves_agreed_meta_and_partial_extras(self):
        a = TupleBatch.from_tuples(make_tuples(3))
        b = TupleBatch.from_tuples(make_tuples(2))
        a, b = (
            TupleBatch(
                part.attribute, part.t, part.x, part.y, part.value, part.sensor_id,
                part.tuple_id, meta={"source": "handler", "round": round_}, extra=part.extra,
            )
            for round_, part in ((1, a), (2, b))
        )
        marks = np.empty(3, dtype=object)
        marks[:] = ["m0", "m1", "m2"]
        a.extra["mark"] = marks
        merged = TupleBatch.concatenate([a, b])
        # Meta entries every part agrees on survive; disagreeing ones drop.
        assert merged.meta == {"source": "handler"}
        # A column only some parts carry is padded with None, not dropped.
        assert list(merged.extra["mark"]) == ["m0", "m1", "m2", None, None]
        materialised = merged.to_tuples()
        assert materialised[0].metadata["mark"] == "m0"
        assert "mark" not in materialised[4].metadata

    def test_concatenate_keeps_extras_in_first_seen_order(self):
        # The codec and pickle walk ``extra`` in dict order, so the merged
        # order must come from the parts (first seen), never from a set of
        # names (hash-seed dependent) or a sort.
        def part(n, **extra):
            batch = TupleBatch.from_tuples(make_tuples(n))
            batch.extra.clear()
            for name in extra:
                batch.extra[name] = np.arange(n, dtype=float)
            return batch

        both = part(2, cell=1, incentive=1)
        incentive_only = part(3, incentive=1)
        bare = part(1)
        for order in ([both, incentive_only, bare], [bare, both, incentive_only]):
            assert list(TupleBatch.concatenate(order).extra) == ["cell", "incentive"]
        merged = TupleBatch.concatenate([incentive_only, bare, both])
        assert list(merged.extra) == ["incentive", "cell"]
        assert list(merged.extra["cell"]) == [None] * 4 + [0.0, 1.0]
        # Not alphabetical either: later-sorting names seen first stay first.
        assert list(
            TupleBatch.concatenate([part(1, zone=1, area=1), part(1, area=1)]).extra
        ) == ["zone", "area"]

    def test_concatenate_rejects_mixed_attributes(self):
        a = TupleBatch.from_tuples(make_tuples(2, "rain"))
        b = TupleBatch.from_tuples(make_tuples(2, "temp"))
        with pytest.raises(StreamError):
            TupleBatch.concatenate([a, b])

    def test_shifted(self):
        batch = TupleBatch.from_tuples(make_tuples(3)).shifted(dt=1.0, dx=0.5)
        assert batch.t[0] == pytest.approx(1.0)
        assert batch.x[1] == pytest.approx(0.51)

    def test_column_length_mismatch_rejected(self):
        with pytest.raises(StreamError):
            TupleBatch(
                "a",
                np.zeros(3),
                np.zeros(2),
                np.zeros(3),
                np.zeros(3),
                np.zeros(3, dtype=np.int64),
                np.zeros(3, dtype=np.int64),
            )


class TestGenericOperatorFallback:
    def test_process_batch_fallback_matches_object_path(self):
        # MapOperator has no native batch path: the StreamOperator fallback
        # must run each tuple through process() and re-batch the output.
        items = make_tuples(8)
        operator = MapOperator(lambda it: it.shifted(dt=2.0))
        out = operator.process_batch(TupleBatch.from_tuples(items))
        assert [it.t for it in out.to_tuples()] == [it.t + 2.0 for it in items]
        assert operator.tuples_in == 8
        assert operator.tuples_out == 8

    def test_process_batch_fallback_flushes_buffering_operators(self):
        # An operator that buffers in process() and emits on flush() (the
        # Flatten pattern) must not lose its batch through the shim.
        class BufferingOperator(StreamOperator):
            def __init__(self):
                super().__init__("buffering")
                self._held = []

            def process(self, item):
                self._held.append(item)

            def flush(self):
                for item in self._held:
                    self.emit(item)
                self._held = []

        operator = BufferingOperator()
        out = operator.process_batch(TupleBatch.from_tuples(make_tuples(6)))
        assert len(out) == 6

    def test_process_batch_fallback_does_not_leak_to_subscribers(self):
        # Downstream subscribers must not see the tuples a second time; the
        # caller forwards the returned batch instead.
        operator = MapOperator(lambda it: it)
        seen = []
        operator.output.subscribe(seen.append)
        out = operator.process_batch(TupleBatch.from_tuples(make_tuples(5)))
        assert len(out) == 5
        assert seen == []
        # The real output stream is restored afterwards.
        operator.accept(make_tuples(1)[0])
        assert len(seen) == 1

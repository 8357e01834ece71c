"""Unit tests for the columnar :class:`TupleBatch` representation."""

import numpy as np
import pytest

from repro.errors import StreamError
from repro.streams import NO_SENSOR_ID, SensorTuple, TupleBatch
from scaffolding import batch_of


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
    def test_to_tuples_gives_the_tuples_back(self):
        items = make_tuples()
        batch = batch_of(items)
        assert len(batch) == len(items)
        materialised = batch.to_tuples()
        assert materialised == items
        # Metadata comes back from the extra columns too (SensorTuple
        # equality ignores it).
        assert [it.metadata for it in materialised] == [it.metadata for it in items]

    def test_values_are_python_scalars_after_round_trip(self):
        items = make_tuples()
        out = batch_of(items).to_tuples()
        assert all(isinstance(item.value, bool) for item in out)
        assert all(isinstance(item.t, float) for item in out)

    def test_missing_sensor_id_round_trips_as_none(self):
        batch = TupleBatch(
            "a", [0.0], [0.0], [0.0], [None], [NO_SENSOR_ID], [1]
        )
        assert batch.to_tuples()[0].sensor_id is None

    def test_batch_meta_lands_in_every_tuple(self):
        items = make_tuples(3)
        plain = batch_of(items)
        batch = TupleBatch(
            plain.attribute, plain.t, plain.x, plain.y, plain.value,
            plain.sensor_id, plain.tuple_id, meta={"round": 3}, extra=plain.extra,
        )
        for item in batch.to_tuples():
            assert item.metadata == {"round": 3, "cell": (0, 0), "incentive": 0.5}

    def test_float_columns_round_trip_as_python_numbers(self):
        batch = TupleBatch(
            "temp", [0.5], [1.0], [2.0], np.array([21.25]), [4], [9]
        )
        (item,) = batch.to_tuples()
        assert type(item.value) is float and item.value == 21.25
        assert type(item.sensor_id) is int and type(item.tuple_id) is int

    def test_empty(self):
        batch = TupleBatch.empty("rain")
        assert batch.is_empty
        assert len(batch) == 0
        assert batch.to_tuples() == []


class TestTransforms:
    def test_select_by_mask(self):
        batch = batch_of(make_tuples(10))
        mask = np.asarray(batch.value, dtype=bool)
        kept = batch.select(mask)
        assert len(kept) == 5
        assert all(item.value for item in kept.to_tuples())
        # Extra columns are sliced along with the main ones.
        assert all(it.metadata["incentive"] == 0.5 for it in kept.to_tuples())

    def test_select_by_index_array_reorders_rows_and_extras(self):
        items = make_tuples(5)
        batch = batch_of(items)
        batch.extra["incentive"] = np.arange(5, dtype=float)
        picked = batch.select(np.array([3, 0, 3]))
        assert [int(i) for i in picked.tuple_id] == [3, 0, 3]
        assert picked.extra["incentive"].tolist() == [3.0, 0.0, 3.0]
        assert picked.extra["cell"].shape == (3, 2)

    def test_select_keeps_the_batch_meta(self):
        plain = batch_of(make_tuples(4))
        batch = TupleBatch(
            plain.attribute, plain.t, plain.x, plain.y, plain.value,
            plain.sensor_id, plain.tuple_id, meta={"source": "handler"},
        )
        assert batch.select(np.zeros(4, dtype=bool)).meta == {"source": "handler"}

    def test_concatenate_of_empty_parts_is_empty(self):
        merged = TupleBatch.concatenate([TupleBatch.empty("rain"), batch_of([])])
        assert merged.is_empty
        assert TupleBatch.concatenate([]).is_empty

    def test_concatenate_of_one_non_empty_part_is_that_part(self):
        part = batch_of(make_tuples(3))
        assert TupleBatch.concatenate([TupleBatch.empty("rain"), part]) is part

    def test_concatenate_pads_a_missing_cell_column_with_filler_rows(self):
        # The handler's cell column is (n, 2); a part without one gets
        # (n, 2) None rows, and its tuples come back without a cell.
        with_cell = batch_of(make_tuples(2))
        without_cell = batch_of(make_tuples(3))
        del without_cell.extra["cell"]
        merged = TupleBatch.concatenate([with_cell, without_cell])
        assert merged.extra["cell"].shape == (5, 2)
        cells = [item.metadata.get("cell") for item in merged.to_tuples()]
        assert cells == [(0, 0), (0, 0), None, None, None]

    def test_concatenate(self):
        a = batch_of(make_tuples(4))
        b = batch_of(make_tuples(6))
        merged = TupleBatch.concatenate([a, b])
        assert len(merged) == 10
        assert merged.attribute == "rain"

    def test_concatenate_preserves_agreed_meta_and_partial_extras(self):
        a = batch_of(make_tuples(3))
        b = batch_of(make_tuples(2))
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
            batch = batch_of(make_tuples(n))
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
        a = batch_of(make_tuples(2, "rain"))
        b = batch_of(make_tuples(2, "temp"))
        with pytest.raises(StreamError):
            TupleBatch.concatenate([a, b])

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

    def test_extra_column_length_mismatch_rejected(self):
        with pytest.raises(StreamError, match="extra column 'incentive'"):
            TupleBatch(
                "a", np.zeros(3), np.zeros(3), np.zeros(3), np.zeros(3),
                np.zeros(3, dtype=np.int64), np.zeros(3, dtype=np.int64),
                extra={"incentive": np.zeros(2)},
            )

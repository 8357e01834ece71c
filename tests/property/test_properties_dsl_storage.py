"""Property-based tests for the query DSL, rate conversions and storage."""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.core import AcquisitionalQuery, RateSpec
from repro.query import parse_query
from repro.storage import QueryResultBuffer, TupleStore
from repro.streams import SensorTuple, TupleBatch

finite_coord = st.floats(min_value=0.0, max_value=50.0, allow_nan=False, allow_infinity=False)
positive_extent = st.floats(min_value=0.5, max_value=20.0, allow_nan=False, allow_infinity=False)
rates = st.floats(min_value=0.01, max_value=1000.0, allow_nan=False, allow_infinity=False)
attributes = st.sampled_from(["rain", "temp", "noise", "co2"])


@st.composite
def query_statements(draw):
    """A random ACQUIRE statement together with its expected components."""
    attribute = draw(attributes)
    x_min = draw(finite_coord)
    y_min = draw(finite_coord)
    width = draw(positive_extent)
    height = draw(positive_extent)
    rate = draw(rates)
    area_unit = draw(st.sampled_from(["KM2", "M2", "UNIT2"]))
    time_unit = draw(st.sampled_from(["MIN", "SEC", "HOUR", "UNIT"]))
    text = (
        f"ACQUIRE {attribute} FROM RECT({x_min}, {y_min}, {x_min + width}, {y_min + height}) "
        f"AT RATE {rate} PER {area_unit} PER {time_unit}"
    )
    return text, attribute, (x_min, y_min, x_min + width, y_min + height), rate, area_unit, time_unit


class TestQueryLanguageProperties:
    @given(query_statements())
    @settings(max_examples=80, deadline=None)
    def test_parse_round_trip(self, case):
        text, attribute, bounds, rate, area_unit, time_unit = case
        parsed = parse_query(text)
        assert parsed.attribute == attribute
        assert parsed.rate_value == rate
        query = parsed.to_query()
        assert isinstance(query, AcquisitionalQuery)
        bbox = query.region.bounding_box
        assert bbox.x_min == bounds[0]
        assert bbox.y_max == bounds[3]
        # The converted rate agrees with an independently built RateSpec.
        expected = RateSpec(rate, area_unit=area_unit.lower(), time_unit=time_unit.lower())
        assert abs(query.rate - expected.per_unit) <= 1e-9 * max(1.0, expected.per_unit)

    @given(rates)
    @settings(max_examples=50, deadline=None)
    def test_rate_unit_consistency(self, value):
        per_min = RateSpec(value, area_unit="km2", time_unit="min").per_unit
        per_hour = RateSpec(value * 60.0, area_unit="km2", time_unit="hour").per_unit
        per_sec = RateSpec(value / 60.0, area_unit="km2", time_unit="sec").per_unit
        assert abs(per_min - per_hour) < 1e-6 * max(per_min, 1.0)
        assert abs(per_min - per_sec) < 1e-6 * max(per_min, 1.0)


def make_tuples(count):
    return [
        SensorTuple(tuple_id=i, attribute="rain", t=float(i), x=0.0, y=0.0)
        for i in range(count)
    ]


class TestStorageProperties:
    @given(st.integers(min_value=1, max_value=50), st.integers(min_value=0, max_value=120))
    @settings(max_examples=60, deadline=None)
    def test_tuple_store_capacity_invariant(self, capacity, inserts):
        store = TupleStore(capacity=capacity)
        store.insert_many(make_tuples(inserts))
        assert len(store) == min(capacity, inserts)
        stats = store.stats()
        assert stats.inserted_total == inserts
        assert stats.evicted_total == max(0, inserts - capacity)
        # The retained tuples are always the most recent ones, oldest first.
        retained_ids = [item.tuple_id for item in store.all()]
        assert retained_ids == list(range(max(0, inserts - capacity), inserts))

    @given(
        st.lists(st.integers(min_value=0, max_value=30), min_size=1, max_size=10),
        st.floats(min_value=0.1, max_value=10.0),
        st.floats(min_value=0.1, max_value=100.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_result_buffer_rate_accounting(self, batch_counts, area, requested):
        buffer = QueryResultBuffer(1, requested_rate=requested, region_area=area)
        for count in batch_counts:
            buffer.extend_batch(TupleBatch.from_tuples(make_tuples(count)))
            buffer.end_batch()
        assert buffer.per_batch_counts == batch_counts
        estimate = buffer.rate_over_batches(1.0)
        expected_rate = sum(batch_counts) / (area * len(batch_counts))
        assert np.isclose(estimate.achieved_rate, expected_rate)
        assert estimate.tuples == sum(batch_counts)

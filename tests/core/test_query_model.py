"""Unit tests for AcquisitionalQuery and RateSpec."""

import pytest

from repro.core import AcquisitionalQuery, RateSpec
from repro.errors import QueryError
from repro.geometry import Rectangle, RectRegion


class TestRateSpec:
    def test_native_units_pass_through(self):
        assert RateSpec(10.0).per_unit == pytest.approx(10.0)

    def test_km2_per_min_is_native(self):
        # The engine's native units are km and minutes, so 10 /km2/min == 10.
        assert RateSpec(10.0, area_unit="km2", time_unit="min").per_unit == pytest.approx(10.0)

    def test_per_hour_scales_down(self):
        assert RateSpec(60.0, area_unit="km2", time_unit="hour").per_unit == pytest.approx(1.0)

    def test_per_second_scales_up(self):
        assert RateSpec(1.0, area_unit="km2", time_unit="sec").per_unit == pytest.approx(60.0)

    def test_float_conversion(self):
        assert float(RateSpec(5.0)) == pytest.approx(5.0)

    def test_rejects_non_positive(self):
        with pytest.raises(QueryError):
            RateSpec(0.0)

    @pytest.mark.parametrize("value", [float("inf"), float("nan"), 1e309])
    def test_rejects_non_finite(self, value):
        # An infinite rate passed ``value <= 0`` and wedged the planner.
        with pytest.raises(QueryError, match="positive and finite"):
            RateSpec(value)

    def test_rejects_unknown_units(self):
        with pytest.raises(QueryError):
            RateSpec(1.0, area_unit="furlong2")
        with pytest.raises(QueryError):
            RateSpec(1.0, time_unit="fortnight")


class TestAcquisitionalQuery:
    def test_basic_construction(self):
        query = AcquisitionalQuery("rain", Rectangle(0, 0, 2, 2), 10.0)
        assert query.attribute == "rain"
        assert query.rate == 10.0
        assert query.region.area == pytest.approx(4.0)

    def test_rectangle_coerced_to_region(self):
        query = AcquisitionalQuery("rain", Rectangle(0, 0, 1, 1), 5.0)
        assert isinstance(query.region, RectRegion)

    def test_rate_spec_converted(self):
        query = AcquisitionalQuery(
            "rain", Rectangle(0, 0, 1, 1), RateSpec(120.0, time_unit="hour")
        )
        assert query.rate == pytest.approx(2.0)

    def test_query_ids_unique(self):
        a = AcquisitionalQuery("rain", Rectangle(0, 0, 1, 1), 5.0)
        b = AcquisitionalQuery("rain", Rectangle(0, 0, 1, 1), 5.0)
        assert a.query_id != b.query_id

    def test_label_uses_name_when_given(self):
        named = AcquisitionalQuery("rain", Rectangle(0, 0, 1, 1), 5.0, name="Storm")
        anonymous = AcquisitionalQuery("rain", Rectangle(0, 0, 1, 1), 5.0)
        assert named.label == "Storm"
        assert anonymous.label == f"Q{anonymous.query_id}"

    def test_with_rate_creates_new_query(self):
        query = AcquisitionalQuery("rain", Rectangle(0, 0, 1, 1), 5.0)
        changed = query.with_rate(8.0)
        assert changed.rate == 8.0
        assert changed.query_id != query.query_id

    def test_validation_errors(self):
        with pytest.raises(QueryError):
            AcquisitionalQuery("", Rectangle(0, 0, 1, 1), 5.0)
        with pytest.raises(QueryError):
            AcquisitionalQuery("rain", Rectangle(0, 0, 1, 1), 0.0)
        with pytest.raises(QueryError):
            AcquisitionalQuery("rain", Rectangle(0, 0, 1, 1), "fast")
        with pytest.raises(QueryError):
            AcquisitionalQuery("rain", "not a region", 5.0)

    @pytest.mark.parametrize("rate", [float("inf"), float("nan"), -float("inf")])
    def test_non_finite_rates_are_refused(self, rate):
        with pytest.raises(QueryError, match="positive and finite"):
            AcquisitionalQuery("rain", Rectangle(0, 0, 1, 1), rate)
        # NaN passed ``rate <= 0`` through ``with_rate`` too.
        with pytest.raises(QueryError, match="positive and finite"):
            AcquisitionalQuery("rain", Rectangle(0, 0, 1, 1), 5.0).with_rate(rate)

    def test_a_rate_spec_converting_to_infinity_is_refused(self):
        # Finite in its units, infinite in the native ones.
        with pytest.raises(QueryError, match="positive and finite"):
            AcquisitionalQuery("rain", Rectangle(0, 0, 1, 1), RateSpec(1e308, time_unit="sec"))

    def test_validate_against_minimum_area(self):
        query = AcquisitionalQuery("rain", Rectangle(0, 0, 0.5, 0.5), 5.0)
        with pytest.raises(QueryError):
            query.validate_against(Rectangle(0, 0, 4, 4), min_area=1.0)

    def test_validate_against_containment(self):
        query = AcquisitionalQuery("rain", Rectangle(3, 3, 6, 6), 5.0)
        with pytest.raises(QueryError):
            query.validate_against(Rectangle(0, 0, 4, 4), min_area=1.0)

    def test_validate_against_accepts_valid(self):
        query = AcquisitionalQuery("rain", Rectangle(0, 0, 2, 2), 5.0)
        query.validate_against(Rectangle(0, 0, 4, 4), min_area=1.0)

"""Unit tests for the attribute catalog."""

import pytest

from repro.errors import QueryError
from repro.query import AttributeCatalog, AttributeInfo, AttributeKind


class TestAttributeCatalog:
    def test_default_catalog_has_paper_attributes(self):
        catalog = AttributeCatalog.default()
        assert "rain" in catalog
        assert "temp" in catalog
        assert catalog.get("rain").kind is AttributeKind.HUMAN_SENSED
        assert catalog.get("temp").kind is AttributeKind.SENSOR_SENSED

    def test_register_and_lookup(self):
        catalog = AttributeCatalog()
        catalog.register_sensor_sensed("noise", float, "Ambient noise level (dB)")
        info = catalog.get("noise")
        assert info.value_type is float
        assert len(catalog) == 1

    def test_duplicate_registration_rejected(self):
        catalog = AttributeCatalog()
        catalog.register_human_sensed("rain")
        with pytest.raises(QueryError):
            catalog.register_human_sensed("rain")

    def test_unknown_attribute_raises(self):
        with pytest.raises(QueryError):
            AttributeCatalog().get("humidity")

    def test_names_are_sorted_whatever_the_registration_order(self):
        catalog = AttributeCatalog()
        catalog.register_sensor_sensed("temp", float, "Temperature.")
        catalog.register_human_sensed("rain", bool, "Rain.")
        assert catalog.names() == ["rain", "temp"]
        assert catalog.get("temp").kind is AttributeKind.SENSOR_SENSED

    def test_validate_attribute(self):
        catalog = AttributeCatalog.default()
        assert catalog.validate_attribute("rain").name == "rain"
        with pytest.raises(QueryError):
            catalog.validate_attribute("wind")

    def test_attribute_info_requires_name(self):
        with pytest.raises(QueryError):
            AttributeInfo("", AttributeKind.HUMAN_SENSED, bool)

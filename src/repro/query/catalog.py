"""Attribute catalog.

The paper assumes "a fixed set of attributes of interest A<1>, ..., A<k>",
each either human-sensed (hard to sense with a device, e.g. *is it raining*)
or sensor-sensed (e.g. ambient temperature).  The catalog records that
metadata and validates parsed queries against it before they reach the
engine.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Dict, List

from ..errors import QueryError


class AttributeKind(Enum):
    """How an attribute is observed."""

    HUMAN_SENSED = "human"
    SENSOR_SENSED = "sensor"


@dataclass(frozen=True)
class AttributeInfo:
    """Catalog entry for one attribute."""

    name: str
    kind: AttributeKind
    value_type: type
    description: str = ""

    def __post_init__(self) -> None:
        if not self.name:
            raise QueryError("an attribute needs a non-empty name")


class AttributeCatalog:
    """The set of attributes a deployment can acquire."""

    def __init__(self) -> None:
        self._attributes: Dict[str, AttributeInfo] = {}

    # ------------------------------------------------------------------
    def register(self, info: AttributeInfo) -> None:
        """Add an attribute to the catalog."""
        if info.name in self._attributes:
            raise QueryError(f"attribute '{info.name}' is already registered")
        self._attributes[info.name] = info

    def register_human_sensed(self, name: str, value_type: type = bool, description: str = "") -> None:
        """Convenience registration of a human-sensed attribute."""
        self.register(AttributeInfo(name, AttributeKind.HUMAN_SENSED, value_type, description))

    def register_sensor_sensed(self, name: str, value_type: type = float, description: str = "") -> None:
        """Convenience registration of a sensor-sensed attribute."""
        self.register(AttributeInfo(name, AttributeKind.SENSOR_SENSED, value_type, description))

    # ------------------------------------------------------------------
    def __contains__(self, name: str) -> bool:
        return name in self._attributes

    def __len__(self) -> int:
        return len(self._attributes)

    def get(self, name: str) -> AttributeInfo:
        """Look up one attribute; raises :class:`QueryError` when unknown."""
        try:
            return self._attributes[name]
        except KeyError:
            raise QueryError(
                f"unknown attribute '{name}'; known: {sorted(self._attributes)}"
            ) from None

    def names(self) -> List[str]:
        """All registered attribute names."""
        return sorted(self._attributes)

    def validate_attribute(self, name: str) -> AttributeInfo:
        """Validate that a query's attribute exists; returns its info."""
        return self.get(name)

    # ------------------------------------------------------------------
    @classmethod
    def default(cls) -> "AttributeCatalog":
        """The catalog of the paper's running examples (rain and temp)."""
        catalog = cls()
        catalog.register_human_sensed(
            "rain", bool, "Whether it is currently raining around the mobile sensor."
        )
        catalog.register_sensor_sensed(
            "temp", float, "Ambient temperature around the mobile sensor (deg C)."
        )
        return catalog

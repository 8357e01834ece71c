"""Abstract syntax of the declarative query language.

Two families of statement:

* :class:`ParsedQuery` — the original ``ACQUIRE ...`` registration
  statement (materialises an
  :class:`~repro.core.query.AcquisitionalQuery`).
* Session DDL — :class:`AlterStatement` (``ALTER <name> SET RATE ... /
  SET REGION ...``), :class:`StopStatement` (``STOP <name>``) and
  :class:`ShowQueriesStatement` (``SHOW QUERIES``), executed against a live
  engine's session API by :meth:`repro.core.engine.CraqrEngine.execute`.
* View DDL — :class:`CreateViewStatement` (``CREATE VIEW <name> ON <query>
  AS AGG(value) [GROUP BY CELL|ATTRIBUTE] WINDOW <dur> [SLIDE <dur>]``),
  :class:`DropViewStatement` (``DROP VIEW <name>``) and
  :class:`ShowViewsStatement` (``SHOW VIEWS``), the serving surface of the
  continuous-view subsystem (:mod:`repro.views`).
* Plan introspection — :class:`ExplainStatement` (``EXPLAIN
  <query|view>``), rendering the live chains the compiled programs of
  :mod:`repro.plan` run.

``Statement`` is the union of all of them, as produced by
:func:`repro.query.parse_statements`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

from ..core.query import AcquisitionalQuery, RateSpec
from ..errors import QueryParseError
from ..geometry import Rectangle, RectRegion


@dataclass(frozen=True)
class RegionLiteral:
    """A ``RECT(x_min, y_min, x_max, y_max)`` literal."""

    x_min: float
    y_min: float
    x_max: float
    y_max: float

    def to_region(self) -> RectRegion:
        """Convert to a geometry region (validates the extent)."""
        try:
            return RectRegion(Rectangle(self.x_min, self.y_min, self.x_max, self.y_max))
        except Exception as exc:  # GeometryError, surfaced as a parse-level error
            raise QueryParseError(f"invalid RECT literal: {exc}") from exc


@dataclass(frozen=True)
class ParsedQuery:
    """The AST of one ``ACQUIRE ...`` statement."""

    attribute: str
    region: RegionLiteral
    rate_value: float
    area_unit: str = "unit2"
    time_unit: str = "unit"
    name: Optional[str] = None

    def to_query(self) -> AcquisitionalQuery:
        """Materialise the AST as an :class:`AcquisitionalQuery`."""
        rate = RateSpec(self.rate_value, area_unit=self.area_unit, time_unit=self.time_unit)
        return AcquisitionalQuery(
            self.attribute,
            self.region.to_region(),
            rate,
            name=self.name,
        )


@dataclass(frozen=True)
class AlterStatement:
    """The AST of one ``ALTER <name> SET ...`` statement.

    Exactly one of the two mutations is present: ``rate_value`` (with its
    units) for ``SET RATE``, or ``region`` for ``SET REGION``.
    """

    name: str
    rate_value: Optional[float] = None
    area_unit: str = "unit2"
    time_unit: str = "unit"
    region: Optional[RegionLiteral] = None

    def rate_spec(self) -> Optional[RateSpec]:
        """The new rate as a :class:`RateSpec`, or ``None`` for ``SET REGION``."""
        if self.rate_value is None:
            return None
        return RateSpec(self.rate_value, area_unit=self.area_unit, time_unit=self.time_unit)


@dataclass(frozen=True)
class StopStatement:
    """The AST of one ``STOP <name>`` statement."""

    name: str


@dataclass(frozen=True)
class ShowQueriesStatement:
    """The AST of one ``SHOW QUERIES`` statement."""


@dataclass(frozen=True)
class CreateViewStatement:
    """The AST of one ``CREATE VIEW`` statement.

    ``CREATE VIEW <name> ON <query> AS AGG(value | *) [GROUP BY
    CELL|ATTRIBUTE] WINDOW <dur> [SLIDE <dur>]`` — the view is attached to
    the named live query session and maintained incrementally (see
    :mod:`repro.views`).  ``slide=None`` means a tumbling window; the
    grouping defaults to one whole-region row per frame.
    """

    name: str
    query_name: str
    aggregate: str
    window: float
    slide: Optional[float] = None
    group_by: str = "region"

    def to_spec(self):
        """Materialise the AST as a :class:`~repro.views.ViewSpec`.

        Spec-level validation (aggregate registry lookup, window/slide
        arithmetic) surfaces as :class:`~repro.errors.ViewError` from the
        spec's own constructor.
        """
        # Imported lazily: repro.views is independent of the query
        # language, and keeping it that way avoids import-order coupling.
        from ..views import ViewSpec

        return ViewSpec(
            aggregate=self.aggregate,
            window=self.window,
            slide=self.slide,
            group_by=self.group_by,
            name=self.name,
        )


@dataclass(frozen=True)
class DropViewStatement:
    """The AST of one ``DROP VIEW <name>`` statement."""

    name: str


@dataclass(frozen=True)
class ShowViewsStatement:
    """The AST of one ``SHOW VIEWS`` statement."""


@dataclass(frozen=True)
class ExplainStatement:
    """The AST of one ``EXPLAIN <query|view>`` statement.

    ``name`` addresses either a registered query's label or a maintained
    view's name; a name that is both is ambiguous and refused.  Execution
    returns the rendered plan as a string (see
    :func:`repro.plan.render_explain`).
    """

    name: str


#: Any statement :func:`repro.query.parse_statements` can produce.
Statement = Union[
    ParsedQuery,
    AlterStatement,
    StopStatement,
    ShowQueriesStatement,
    CreateViewStatement,
    DropViewStatement,
    ShowViewsStatement,
    ExplainStatement,
]

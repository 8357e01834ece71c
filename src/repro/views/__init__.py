"""Continuous views: declarative windowed aggregates as the serving API.

An acquisitional engine exists to answer questions about *regions*, not to
hand every consumer raw sensor tuples.  This package turns consumption
around: a :class:`ViewSpec` declares a windowed aggregate (``COUNT`` /
``SUM`` / ``AVG`` / ``MIN`` / ``MAX`` / ``P1``-``P99`` percentiles, grouped
per grid cell, per attribute or whole-region, over tumbling or sliding
sim-time windows), a :class:`ContinuousView` maintains it incrementally
(the engine hands it its query's delivered
:class:`~repro.streams.TupleBatch` once per batch and it folds the batch
into per-group partials — history is never rescanned), and a
:class:`ViewFrameBuffer` retains the emitted :class:`ViewFrame`\\ s behind
resumable :class:`FrameCursor`\\ s whose reads cost O(new frames).

The query language surface is ``CREATE VIEW <name> ON <query> AS
AGG(value) [GROUP BY CELL|ATTRIBUTE] WINDOW <dur> [SLIDE <dur>]``,
``DROP VIEW <name>`` and ``SHOW VIEWS``, executed through
:meth:`repro.core.engine.CraqrEngine.execute`; the programmatic surface is
:meth:`QueryHandle.view <repro.core.engine.QueryHandle.view>`.

New aggregates register through
:func:`~repro.views.aggregates.register_aggregate` and become usable from
``CREATE VIEW`` immediately.
"""

from .aggregates import Aggregate, aggregate_names, get_aggregate, register_aggregate
from .frames import FrameCursor, ViewFrame, ViewFrameBuffer
from .sketch import QuantileSketch
from .spec import ViewSpec
from .view import ContinuousView, ViewHandle, ViewSessionInfo

__all__ = [
    "Aggregate",
    "aggregate_names",
    "get_aggregate",
    "register_aggregate",
    "FrameCursor",
    "ViewFrame",
    "ViewFrameBuffer",
    "QuantileSketch",
    "ViewSpec",
    "ContinuousView",
    "ViewHandle",
    "ViewSessionInfo",
]

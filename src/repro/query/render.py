"""How the session surface shows a statement, a table or a health report.

Every statement of :meth:`~repro.core.CraqrEngine.execute_script` is
rendered once, right after it runs, by :func:`statement_row`: one JSON row
keyed on the statement's type, whose ``text`` is exactly what the repl
prints (its narration line, the ``SHOW`` table, the ``EXPLAIN`` text or
``error: <msg>``).  The repl prints that text, the serving layer's
``execute`` op returns the rows, and the ``health`` command and op both
print :func:`health_text`, so no surface renders a statement or a health
report of its own.  The fixed-width :class:`~repro.metrics.ResultTable`
renders are pinned in ``tests/querylang/test_render.py``, and
``tests/serve/test_surface_parity.py`` runs one script through the
repl and over both transports.

Statements are keyed by their type's name (the row's ``statement``
field) and engine / handle arguments are duck-typed (annotated under
``TYPE_CHECKING``), so only :mod:`repro.metrics` is imported here and the
module stays importable from anywhere in the package without cycles.
"""

from __future__ import annotations

from dataclasses import asdict
from typing import TYPE_CHECKING, List, Optional

from ..metrics import ResultTable

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.engine import CraqrEngine, QueryHandle, QuerySessionInfo
    from ..views import ViewFrame, ViewHandle, ViewSessionInfo

__all__ = [
    "statement_row",
    "health_text",
    "sessions_table",
    "views_table",
    "health_table",
    "frames_table",
]


def _query_row(handle: "QueryHandle", text: str) -> dict:
    """ACQUIRE / ALTER / STOP: the session as it stands after the statement."""
    query = handle.query
    fields = {
        "label": query.label,
        "attribute": query.attribute,
        "rate": query.rate,
        "region_area": query.region.area,
        "active": handle.is_active(),
        "paused": handle.is_paused(),
        "total_tuples": handle.buffer.total_tuples,
    }
    return {"kind": "query", "query": fields, "text": text}


def _view_row(view: "ViewHandle", text: str) -> dict:
    """CREATE VIEW / DROP VIEW: the view as it stands after the statement."""
    fields = {
        "name": view.name,
        "on": view.query_label,
        "spec": view.spec.describe(),
        "active": view.is_active(),
        "frames_emitted": view.buffer.frames_emitted,
    }
    return {"kind": "view", "view": fields, "text": text}


def _show_row(kind: str, infos: list, table) -> dict:
    """SHOW QUERIES / SHOW VIEWS: one JSON row per session, and the table."""
    rows = [asdict(info) for info in infos]
    return {"kind": kind, "rows": rows, "text": table(infos).render()}


#: Statement type name -> the row of its :meth:`CraqrEngine.execute` result.
_RENDERERS = {
    "ParsedQuery": lambda h: _query_row(
        h,
        f"registered {h.query.label}: {h.query.attribute} over "
        f"area {h.query.region.area:g} at rate {h.query.rate:g}",
    ),
    "AlterStatement": lambda h: _query_row(
        h, f"altered {h.query.label}: rate {h.query.rate:g}, area {h.query.region.area:g}"
    ),
    "StopStatement": lambda h: _query_row(
        h, f"stopped {h.query.label} ({h.buffer.total_tuples} tuples remain readable)"
    ),
    "CreateViewStatement": lambda v: _view_row(
        v, f"created view {v.name} on {v.query_label}: {v.spec.describe()}"
    ),
    # Frames stay readable through Python-level handles, but the repl's
    # `frames` command resolves registered names only — so the line does
    # not promise readability the repl can no longer deliver.
    "DropViewStatement": lambda v: _view_row(
        v, f"dropped view {v.name} after {v.buffer.frames_emitted} frames"
    ),
    "ShowQueriesStatement": lambda infos: _show_row("sessions", infos, sessions_table),
    "ShowViewsStatement": lambda infos: _show_row("views", infos, views_table),
    "ExplainStatement": lambda text: {"kind": "explain", "text": text},
}


def statement_row(statement, result=None, error: Optional[Exception] = None) -> dict:
    """One executed statement as the row every surface shows.

    ``result`` is what :meth:`CraqrEngine.execute` returned for
    ``statement``; ``error`` is the exception it raised instead.  Built
    right after the statement runs, so a later statement of the same
    script cannot change it.
    """
    name = type(statement).__name__
    row = {"statement": name, "ok": error is None}
    if error is None:
        row.update(_RENDERERS[name](result))
    else:
        row.update(
            error=str(error), error_type=type(error).__name__, text=f"error: {error}"
        )
    return row


def sessions_table(sessions: "List[QuerySessionInfo]") -> ResultTable:
    """``SHOW QUERIES`` as one row per registered query session."""
    table = ResultTable(
        "query sessions",
        [
            "query",
            "attribute",
            "area",
            "rate",
            "achieved",
            "tuples",
            "batches",
            "views",
            "health",
            "state",
        ],
    )
    for info in sessions:
        degraded = len(info.degraded_pairs)
        table.add_row(
            info.label,
            info.attribute,
            round(info.region_area, 2),
            round(info.requested_rate, 2),
            "-" if info.achieved_rate is None else round(info.achieved_rate, 2),
            info.total_tuples,
            info.batches_completed,
            info.views,
            "ok" if degraded == 0 else f"{degraded} degraded",
            "paused" if info.paused else "live",
        )
    return table


def health_table(engine: "CraqrEngine", handle: "QueryHandle") -> ResultTable:
    """Per-cell acquisition health of one query, from the last batch report."""
    attribute = handle.query.attribute
    report = engine.reports[-1].handler if engine.reports else None
    tracker = engine.degradation
    table = ResultTable(
        f"health of {handle.query.label} ({attribute}), last batch",
        ["cell", "requests", "responses", "timeouts", "drops", "retries", "rate ewma", "state"],
    )
    for cell in engine.planner.cells_for_query(handle.query_id):
        pair = (attribute, cell)
        ewma = tracker.response_rate_for(attribute, cell) if tracker is not None else None
        degraded = tracker is not None and tracker.is_degraded(attribute, cell)
        table.add_row(
            f"({cell[0]}, {cell[1]})",
            report.per_cell_requests.get(pair, 0) if report is not None else 0,
            report.per_cell_responses.get(pair, 0) if report is not None else 0,
            report.per_cell_timeouts.get(pair, 0) if report is not None else 0,
            report.per_cell_drops.get(pair, 0) if report is not None else 0,
            report.per_cell_retries.get(pair, 0) if report is not None else 0,
            "-" if ewma is None else round(ewma, 3),
            "degraded" if degraded else "ok",
        )
    return table


def health_text(engine: "CraqrEngine", handle: "QueryHandle") -> str:
    """The ``health`` report: the per-cell table plus the quarantine line."""
    lines = [health_table(engine, handle).render()]
    monitor = engine.health_monitor
    if monitor is None:
        lines.append("sensor health monitoring is off (no ResilienceConfig)")
    else:
        summary = monitor.summary()
        ids = ", ".join(str(i) for i in summary.quarantined_sensor_ids[:12])
        if summary.quarantined > 12:
            ids += f", ... ({summary.quarantined - 12} more)"
        lines.append(
            f"quarantined sensors: {summary.quarantined} "
            f"({summary.on_probation} on probation, "
            f"{summary.released} released so far)"
            + (f" — ids: {ids}" if ids else "")
        )
    return "\n".join(lines)


def views_table(views: "List[ViewSessionInfo]") -> ResultTable:
    """``SHOW VIEWS`` as one row per registered continuous view."""
    table = ResultTable(
        "continuous views",
        ["view", "on", "aggregate", "group by", "window", "slide", "frames", "tuples", "last close", "state"],
    )
    for info in views:
        table.add_row(
            info.name,
            info.query_label,
            info.aggregate,
            info.group_by,
            round(info.window, 4),
            round(info.slide, 4),
            info.frames_emitted,
            info.tuples_total,
            "-" if info.last_window_end is None else round(info.last_window_end, 4),
            "live" if info.active else f"failed: {info.error}",
        )
    return table


def frames_table(view: "ViewHandle", frames: "List[ViewFrame]") -> ResultTable:
    """The last frames of a view rendered one row per (frame, group)."""
    table = ResultTable(
        f"view {view.name}: {view.spec.describe()}",
        ["frame", "window", "group", view.spec.aggregate.upper(), "tuples"],
    )
    for frame in frames:
        window = f"[{frame.window_start:g}, {frame.window_end:g})"
        if frame.is_empty:
            table.add_row(frame.frame_index, window, "-", "-", 0)
            continue
        for i in range(frame.groups):
            key = frame.keys[i]
            label = f"({key[0]}, {key[1]})" if isinstance(key, tuple) else str(key)
            table.add_row(
                frame.frame_index,
                window,
                label,
                round(float(frame.values[i]), 4),
                int(frame.counts[i]),
            )
    return table

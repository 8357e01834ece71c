"""External span recorder: timing wrappers around the layers' callables.

Nothing under ``src/`` is changed.  :meth:`Tracer.install` replaces the
binding the caller actually uses (a class attribute, or the name a module
imported, e.g. ``repro.core.pmat.flatten.fit_linear_intensity_mle``) with a
wrapper that records one span ``(name, start, end, parent, batch_index)``;
:meth:`Tracer.uninstall` restores every binding.  Spans stay in memory and
are written out once, at the end of the run.

A layer's ``_ms`` metric is its *self time*: its spans' durations minus the
part covered by their direct child spans (see :func:`self_times`).
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import defaultdict
from typing import Dict, List, Optional, Tuple

#: ``batch_index`` of spans recorded outside any batch (set-up, restore).
SETUP = -1

#: The span every per-batch span descends from.
ROOT = "core.engine.run_batch"

#: (span name, module, class or None, attribute[, index of the argument
#: whose ``len`` is added to ``Tracer.counts[name]``]).  The span name's
#: prefix is the layer (package under ``src/repro``) the time is booked to.
SPANS = [
    ("sensing.world.build", "repro.sensing.world", "SensingWorld", "__init__"),
    ("sensing.world.advance", "repro.sensing.world", "SensingWorld", "advance"),
    ("sensing.handler.acquire", "repro.sensing.handler", "RequestResponseHandler", "acquire_batches"),
    ("faults.injector.apply", "repro.faults.injector", "FaultInjector", "apply_round"),
    ("faults.degradation.update", "repro.faults.degradation", "DegradationTracker", "update"),
    (ROOT, "repro.core.engine", "CraqrEngine", "run_batch"),
    ("core.fabricator.map", "repro.core.fabricator", "StreamFabricator", "map_batches_fused"),
    ("core.planner.process", "repro.core.planner", "QueryPlanner", "process_columnar"),
    ("core.tuner.tune", "repro.core.budget", "BudgetTuner", "tune"),
    ("core.pmat.flatten", "repro.core.pmat.flatten", "FlattenOperator", "process_batch_mask"),
    ("core.pmat.thin", "repro.core.pmat.thin", "ThinOperator", "thin_indices"),
    ("core.pmat.partition", "repro.core.pmat.partition", "PartitionOperator", "primary_mask"),
    ("plan.program.run", "repro.plan.executor", "ChainProgram", "run"),
    ("plan.cache.lookup", "repro.plan.cache", "PlanCache", "programs_for"),
    ("pointprocess.estimate", "repro.pointprocess.estimation", "OnlineIntensityEstimator", "observe_batch_fused", 1),
    ("pointprocess.estimate", "repro.core.pmat.flatten", None, "fit_linear_intensity_mle", 0),
    ("pointprocess.thinning", "repro.core.pmat.flatten", None, "flatten_keep_mask"),
    ("streams.batch.select", "repro.streams.batch", "TupleBatch", "select"),
    ("geometry.grid.cells_for_points", "repro.geometry.grid", "Grid", "cells_for_points"),
    ("streams.codec.encode", "repro.serve.fanout", None, "encode_tuple_batch"),
    ("streams.codec.encode", "repro.serve.fanout", None, "encode_view_frame"),
    ("streams.codec.encode", "repro.serve.server", None, "encode_tuple_batch"),
    ("streams.codec.encode", "repro.serve.server", None, "encode_view_frame"),
    ("storage.buffer.extend", "repro.storage.result_buffer", "QueryResultBuffer", "extend_batch"),
    ("storage.buffer.end_batch", "repro.storage.result_buffer", "QueryResultBuffer", "end_batch"),
    ("storage.cursor.fetch", "repro.storage.result_buffer", "ResultCursor", "fetch_batch"),
    ("views.fold", "repro.views.view", "ContinuousView", "on_delivery"),
    ("views.advance", "repro.views.view", "ContinuousView", "advance_to"),
    ("recovery.snapshot.capture", "repro.recovery.snapshot", "EngineSnapshot", "capture"),
    ("recovery.store.write", "repro.recovery.snapshot", "CheckpointStore", "write"),
    ("serve.server.run_op", "repro.serve.server", "Server", "_op_run"),
    ("serve.server.fetch_op", "repro.serve.server", "Server", "_op_fetch"),
    ("serve.fanout.publish", "repro.serve.fanout", "FrameFanout", "publish"),
    ("serve.protocol.encode", "repro.serve.server", None, "encode_message"),
    # counted argument: the wire body, so counts[...] is bytes off the socket
    ("serve.client.decode.message", "repro.serve.client", None, "decode_message", 0),
    ("serve.client.decode.payload", "repro.streams.codec", None, "decode_tuple_batch"),
    ("serve.client.decode.payload", "repro.streams.codec", None, "decode_view_frame"),
    ("query.parse", "repro.query.parser", None, "parse_statements"),
    ("query.execute", "repro.core.engine", "CraqrEngine", "execute_script"),
]

Span = Tuple[str, float, float, int, int]


class Tracer:
    """In-memory span recorder; one per traced process."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        #: summed ``len`` of the counted argument, per span name.
        self.counts: Dict[str, int] = defaultdict(int)
        #: shared identifier of the spans of one batch; the harness bumps it.
        self.batch_index = SETUP
        self._stack: List[int] = []
        self._undo: List[Tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    def _wrap(self, fn, name: str, count_arg=None):
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)  # reserve the slot so children can point at it
            parent = stack[-1] if stack else -1
            stack.append(index)
            if count_arg is not None:
                counts[name] += len(args[count_arg])
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, self.batch_index)

        return traced

    def install(self) -> None:
        """Patch every binding of :data:`SPANS`."""
        for name, module_name, class_name, attr, *count_arg in SPANS:
            owner = importlib.import_module(module_name)
            if class_name is not None:
                owner = getattr(owner, class_name)
            original = owner.__dict__[attr]
            count = count_arg[0] if count_arg else None
            if isinstance(original, classmethod):
                patched = classmethod(self._wrap(original.__func__, name, count))
            else:
                patched = self._wrap(original, name, count)
            self._undo.append((owner, attr, original))
            setattr(owner, attr, patched)

    def uninstall(self) -> None:
        """Restore every patched binding."""
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------------
    def write(self, path, **header) -> None:
        """Write the spans as JSON (names interned to keep the file small)."""
        names = sorted({span[0] for span in self.spans})
        code = {name: i for i, name in enumerate(names)}
        payload = dict(
            header,
            names=names,
            columns=["name", "start", "end", "parent", "batch_index"],
            spans=[[code[s[0]], s[1], s[2], s[3], s[4]] for s in self.spans],
        )
        with open(path, "w") as handle:
            json.dump(payload, handle)


def span_cost(calls: int = 20_000) -> float:
    """Seconds one span adds to the traced program, measured on a no-op.

    ``bench.trace.span_cost_pct`` multiplies this by the spans per batch: on
    a shared box it is a steadier estimate of the tracing overhead than the
    difference of two runs' medians (``bench.trace.overhead_pct``).
    """
    def noop():
        return None

    traced = Tracer()._wrap(noop, "calibration")
    clock = time.perf_counter
    start = clock()
    for _ in range(calls):
        noop()
    bare = clock() - start
    start = clock()
    for _ in range(calls):
        traced()
    return max(0.0, (clock() - start) - bare) / calls


def _in_window(batch: int, first: int, stop: Optional[int]) -> bool:
    if first == SETUP:
        return batch == SETUP
    return batch >= first and (stop is None or batch < stop)


def self_times(
    spans: List[Span], first: int, stop: Optional[int] = None
) -> Dict[str, Tuple[float, int]]:
    """``{name: (self seconds, calls)}`` over spans of batches ``[first, stop)``.

    Pass :data:`SETUP` as ``first`` to aggregate only the spans recorded
    outside any batch.  Self time is a span's duration minus the durations
    of its direct children, so nested layers never double count.
    """
    child_time = [0.0] * len(spans)
    for _name, start, end, parent, _batch in spans:
        if parent >= 0:
            child_time[parent] += end - start
    totals: Dict[str, List[float]] = defaultdict(lambda: [0.0, 0])
    for index, (name, start, end, _parent, batch) in enumerate(spans):
        if _in_window(batch, first, stop):
            entry = totals[name]
            entry[0] += (end - start) - child_time[index]
            entry[1] += 1
    return {name: (entry[0], entry[1]) for name, entry in totals.items()}


def root_coverage(spans: List[Span], first: int, stop: Optional[int] = None) -> float:
    """Share of the root spans' wall time covered by their direct children."""
    roots = {
        i for i, s in enumerate(spans)
        if s[0] == ROOT and _in_window(s[4], first, stop)
    }
    wall = sum(spans[i][2] - spans[i][1] for i in roots)
    covered = sum(s[2] - s[1] for s in spans if s[3] in roots)
    return covered / wall if wall else 0.0

"""The closed loop for the in-process workloads, the output checks, and the
metric arithmetic every workload (``served`` too) shares.

One driver, closed loop: the next batch is requested only after the
previous batch's deliveries have been consumed.  Per batch the timed window
is ``engine.run_batch()`` plus draining one :class:`ResultCursor` per query
(``fetch_batch``) and one :class:`FrameCursor` per view; the output checks
and the digest run after the window closes and are not part of any latency.
"""

from __future__ import annotations

import gc
import hashlib
import math
import pathlib
import resource
import shutil
import statistics
import tempfile
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro.core import CraqrEngine

from tracer import ROOT, SETUP, Tracer, root_coverage, self_times, span_cost
from workloads import Workload, build_engine

OUT_DIR = pathlib.Path(__file__).parent / "out"

#: Closed panes are assigned with the views' own boundary tolerance.
_PANE_TOL = 1e-9

#: Layers (packages under ``src/repro``) a span name's prefix can book to.
LAYERS = (
    "sensing", "faults", "core", "plan", "pointprocess", "streams",
    "geometry", "storage", "views", "recovery", "serve", "query",
)


@dataclass
class Phase:
    """Everything one set-up + warm-up + timed run produced."""

    first_timed: int = 0
    latencies: List[float] = field(default_factory=list)  # timed batches, s
    #: box-speed probes around the timed batches: one before each batch and
    #: one after the last (``len(latencies) + 1`` of them).
    probes: List[float] = field(default_factory=list)
    delivered: List[int] = field(default_factory=list)  # tuples per timed batch
    digests: List[bytes] = field(default_factory=list)  # every batch, warm-up too
    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)
    violation_pct: float = 0.0
    peak_rss_mib: float = 0.0
    #: summed counters of the timed batches (``*_per_batch`` metrics).
    counts: Dict[str, float] = field(default_factory=dict)
    #: layer metrics measured directly rather than from spans.
    extra: Dict[str, float] = field(default_factory=dict)
    #: ``served`` only: what the load generator saw on the wire.
    wire: Dict[str, float] = field(default_factory=dict)

    def check(self, ok: bool, message: str) -> None:
        if not ok:
            self.problems.append(message)


class BoxProbe:
    """A fixed CPU kernel, timed around every measurement.

    The reference box is a shared VM whose speed flips between two modes for
    10-30 s at a time: this kernel takes 1.0x or ~1.45x its best time, and
    everything else slows with it (CPU time too, so it is contention, not
    preemption).  A 10 s run lands in one mode or the other, which no
    statistic over the run's own batches can undo.  So every timing is scaled
    to the speed of the fastest probe the process saw (:meth:`at_full_speed`):
    the number reads as what the program costs when the box is left alone,
    which is the plain measurement on a dedicated machine.
    """

    def __init__(self) -> None:
        self._data = np.random.default_rng(0).random(20_000)
        self.best = math.inf

    def __call__(self) -> float:
        """Run the kernel twice (strided numpy arithmetic + dict churn, the
        engine's own mix); returns the second pass's seconds.  The first
        pass only brings the kernel's data back into cache, which the
        measured program has just evicted to a degree that depends on the
        workload, not on the box."""
        for _ in range(2):
            start = time.perf_counter()
            self._kernel()
            elapsed = time.perf_counter() - start
        self.best = min(self.best, elapsed)
        return elapsed

    def _kernel(self) -> None:
        data = self._data
        for offset in range(48):
            float((data[offset::7] * 1.0001).sum())
            {key: key for key in range(50)}

    def at_full_speed(self, seconds, before, after):
        """``seconds`` measured between two probes, scaled to the best probe.
        Arrays work element-wise."""
        return seconds * self.best / ((before + after) / 2)


# ----------------------------------------------------------------------
# Consumption and output checks
# ----------------------------------------------------------------------
def _column_bytes(column: np.ndarray) -> bytes:
    if column.dtype.hasobject:
        return repr(column.tolist()).encode()
    return np.ascontiguousarray(column).tobytes()


def batch_digest(batches, frames) -> bytes:
    """SHA-256 over one batch's fetched columns and closed frames."""
    sha = hashlib.sha256()
    for batch in batches:
        for name in ("t", "x", "y", "value", "sensor_id", "tuple_id"):
            sha.update(_column_bytes(getattr(batch, name)))
    for view_frames in frames:
        for frame in view_frames:
            sha.update(b"%d" % frame.frame_index)
            sha.update(_column_bytes(frame.values))
            sha.update(_column_bytes(frame.counts))
    return sha.digest()


def run_digest(digests: List[bytes]) -> str:
    return hashlib.sha256(b"".join(digests)).hexdigest()


class Consumer:
    """One cursor per query, one frame cursor per view, drained every batch."""

    def __init__(self, engine: CraqrEngine, *, tail: bool = False) -> None:
        self.queries = engine.query_handles()
        self.views = engine.view_handles()
        self.cursors = [h.cursor(tail=tail) for h in self.queries]
        self.frame_cursors = [v.frame_cursor(tail=tail) for v in self.views]

    def drain(self):
        return (
            [cursor.fetch_batch() for cursor in self.cursors],
            [cursor.fetch() for cursor in self.frame_cursors],
        )

    @property
    def fetches(self) -> int:
        return len(self.cursors) + len(self.frame_cursors)


class Checker:
    """The per-batch output checks of the in-process workloads."""

    def __init__(self, consumer: Consumer, phase: Phase, default_budget: int) -> None:
        self._consumer = consumer
        self._phase = phase
        self._default_budget = default_budget
        self._fetched = [0] * len(consumer.queries)
        self._next_frame = [0] * len(consumer.views)
        #: reference window assignment of the tumbling views: per view,
        #: the query it reads and tuples per pane.
        self._tumbling = {}
        labels = [h.query.label for h in consumer.queries]
        for index, view in enumerate(consumer.views):
            spec = view.spec
            if spec.slide_duration == spec.window:
                self._tumbling[index] = (labels.index(view.query_label), {})

    def verify(self, batch_index: int, report, budgets, batches, frames) -> None:
        phase = self._phase
        delivered = report.fabrication.delivered_per_query
        for i, (handle, batch) in enumerate(zip(self._consumer.queries, batches)):
            self._fetched[i] += len(batch)
            phase.check(
                len(batch) == delivered.get(handle.query_id, 0),
                f"batch {batch_index}: {handle.query.label} cursor read "
                f"{len(batch)} tuples, engine delivered "
                f"{delivered.get(handle.query_id, 0)}",
            )
        for pair, requests in report.handler.per_cell_requests.items():
            budget = budgets.get(pair, self._default_budget)
            phase.check(
                requests <= budget,
                f"batch {batch_index}: {requests} requests to {pair} exceed "
                f"its budget {budget}",
            )
        for index, (query_index, panes) in self._tumbling.items():
            batch = batches[query_index]
            if len(batch):
                slide = self._consumer.views[index].spec.slide_duration
                # A tuple never lands in a pane that closed before its batch.
                open_pane = math.floor(batch_index / slide + _PANE_TOL)
                ids = np.maximum(
                    np.floor(batch.t / slide + _PANE_TOL).astype(np.int64), open_pane
                )
                for pane, count in zip(*np.unique(ids, return_counts=True)):
                    panes[int(pane)] = panes.get(int(pane), 0) + int(count)
        for index, view_frames in enumerate(frames):
            for frame in view_frames:
                phase.check(
                    frame.frame_index == self._next_frame[index],
                    f"view {self._consumer.views[index].name}: frame "
                    f"{frame.frame_index} follows {self._next_frame[index] - 1}",
                )
                self._next_frame[index] = frame.frame_index + 1
                if index in self._tumbling:
                    expected = self._tumbling[index][1].pop(frame.frame_index, 0)
                    phase.check(
                        frame.tuples == expected,
                        f"view {self._consumer.views[index].name} frame "
                        f"{frame.frame_index}: {frame.tuples} tuples, "
                        f"{expected} delivered inside its window",
                    )

    def finish(self) -> None:
        for handle, fetched in zip(self._consumer.queries, self._fetched):
            self._phase.check(
                fetched == handle.buffer.total_tuples,
                f"{handle.query.label}: cursor read {fetched} tuples in all, "
                f"total_tuples is {handle.buffer.total_tuples}",
            )


# ----------------------------------------------------------------------
# The closed loop
# ----------------------------------------------------------------------
def set_up(
    workload: Workload, seed: int, checkpoint_dir: Optional[str],
    box: BoxProbe, setups: List[tuple],
):
    """Everything before "the first batch can run"; appends its (seconds,
    probe before, probe after) to ``setups``."""
    # The previous set-up's engine is the harness's garbage, not the
    # program's: collect it now rather than inside the timed window.
    gc.collect()
    before = box()
    start = time.perf_counter()
    engine = build_engine(workload, seed, checkpoint_dir)
    statements = engine.execute_script(workload.script, on_error="continue")
    consumer = Consumer(engine)
    seconds = time.perf_counter() - start
    setups.append((seconds, before, box()))
    return engine, statements, consumer


def violation_pct(reports) -> float:
    """Mean ``N_v`` over active (attribute, cell) pairs of retained batches."""
    values = [v for r in reports for v in r.fabrication.violations.values()]
    return statistics.fmean(values) if values else 0.0


def handler_counts(counts: Dict[str, float], report) -> None:
    """Fold one batch's :class:`HandlerReport` into the run's counters."""
    handler = report.handler
    for key, value in (
        ("requests", handler.requests_sent),
        ("responses", handler.responses_received),
        ("retries", handler.retries_sent),
        ("timeouts", handler.timeouts),
        ("drops", handler.drops_injected),
        ("budget_changes", sum(d.changed for d in report.budget_decisions)),
    ):
        counts[key] = counts.get(key, 0) + value


class Backend:
    """What ``run.py`` drives: ``harness.InProcess`` or ``served.Served``.

    Subclasses add ``setup_only() -> seconds``, ``run_phase(seconds=, batches=,
    warmup=, tracer=) -> Phase`` and ``layer_metrics(tracer, phase, reference)``.
    """

    def __init__(self, workload: Workload, seed: int) -> None:
        self.workload = workload
        self.seed = seed
        self.box = BoxProbe()
        #: every set-up so far: (seconds, probe before, probe after).
        self.setups: List[tuple] = []

    def setup_s(self) -> float:
        """Median set-up time at full box speed (the process's best probe)."""
        return statistics.median(
            self.box.at_full_speed(*setup) for setup in self.setups
        )

    def close(self) -> None:
        """Stop and wait for whatever processes the backend started."""


class InProcess(Backend):
    """A workload whose engine runs in this process (all but ``served``)."""

    def setup_only(self) -> float:
        """Set up once more, throw the engine away, return the seconds."""
        unused = str(OUT_DIR / "ckpt-unused")  # no batch runs, nothing is written
        set_up(self.workload, self.seed, unused, self.box, self.setups)
        return self.setups[-1][0]

    def run_phase(self, *, seconds, batches, warmup, tracer=None) -> Phase:
        """Set up, warm up, then time batches for ``seconds`` or ``batches``."""
        OUT_DIR.mkdir(exist_ok=True)
        checkpoint_dir = None
        if self.workload.checkpoint_every is not None:
            checkpoint_dir = tempfile.mkdtemp(prefix="ckpt-", dir=OUT_DIR)
        try:
            return self._run_phase(seconds, batches, warmup, tracer, checkpoint_dir)
        finally:
            if checkpoint_dir is not None:
                shutil.rmtree(checkpoint_dir, ignore_errors=True)

    def layer_metrics(self, tracer: Tracer, phase: Phase, reference: Phase):
        """Every per-layer metric of the traced ``phase``."""
        timed, setup, coverage = traced_tables(
            tracer, phase.first_timed, phase.first_timed + len(phase.latencies)
        )
        return per_layer_metrics(
            phase, reference, timed, setup, dict(tracer.counts), coverage, self.box
        )

    def _run_phase(self, seconds, batches, warmup, tracer, checkpoint_dir) -> Phase:
        workload, box = self.workload, self.box
        phase = Phase(first_timed=warmup)
        engine, statements, consumer = set_up(
            workload, self.seed, checkpoint_dir, box, self.setups
        )
        checker = Checker(consumer, phase, engine.handler.default_budget)
        phase.attempted += len(statements)
        phase.failed += sum(not s.ok for s in statements)
        clock = time.perf_counter
        index = 0

        def one_batch():
            nonlocal index
            if tracer is not None:
                tracer.batch_index = index
            budgets = engine.handler.budgets()  # in force while this batch runs
            start = clock()
            report = engine.run_batch()
            fetched, frames = consumer.drain()
            elapsed = clock() - start
            checker.verify(index, report, budgets, fetched, frames)
            phase.digests.append(batch_digest(fetched, frames))
            phase.attempted += 1 + consumer.fetches
            index += 1
            return report, elapsed, fetched, frames

        for _ in range(warmup):
            one_batch()
        evicted = sum(h.buffer.evicted_tuples for h in consumer.queries)
        cache = engine.plan_cache
        compiles, reuses = (cache.compiles, cache.reuses) if cache else (0, 0)
        counts = phase.counts
        deadline = clock() + seconds if seconds is not None else None
        phase.probes.append(box())
        while (
            (clock() < deadline) if batches is None
            else (len(phase.latencies) < batches)
        ):
            report, elapsed, fetched, frames = one_batch()
            phase.probes.append(box())
            phase.latencies.append(elapsed)
            phase.delivered.append(sum(len(b) for b in fetched))
            handler_counts(counts, report)
            counts["frames"] = counts.get("frames", 0) + sum(len(f) for f in frames)
        counts["evicted"] = (
            sum(h.buffer.evicted_tuples for h in consumer.queries) - evicted
        )
        cache = engine.plan_cache
        if cache is not None:
            counts["compiles"] = cache.compiles - compiles
            counts["reuses"] = cache.reuses - reuses
        phase.violation_pct = violation_pct(engine.reports)
        if engine.health_monitor is not None:
            phase.extra["faults.quarantined_sensors"] = (
                engine.health_monitor.summary().quarantined
            )
        # Read before the recovery check builds a second engine in this process.
        phase.peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if workload.checkpoint_every is not None:
            _check_recovery(workload, phase, engine, one_batch, checkpoint_dir)
        checker.finish()
        return phase


def _check_recovery(workload, phase, engine, one_batch, checkpoint_dir) -> None:
    """Restore the newest checkpoint, replay, compare with the live run."""
    every = workload.checkpoint_every
    # Untimed tail: leave the newest checkpoint a few batches behind, so the
    # replay always has batches to reproduce.
    behind = min(3, every - 1)
    while engine.batches_run < every or engine.batches_run % every != behind:
        one_batch()
    final = engine.batches_run
    newest = final - final % every
    files = sorted(pathlib.Path(checkpoint_dir).glob("*.ckpt"))
    timed = range(phase.first_timed + 1, phase.first_timed + len(phase.latencies) + 1)
    phase.counts["checkpoints"] = sum(1 for done in timed if done % every == 0)
    phase.attempted += newest // every
    phase.check(
        bool(files) and files[-1].name == f"checkpoint-{newest:08d}.ckpt",
        f"newest checkpoint should be batch {newest}, found "
        f"{[f.name for f in files]}",
    )
    if not files:
        return
    phase.extra["recovery.snapshot_kib"] = files[-1].stat().st_size / 1024
    start = time.perf_counter()
    restored = CraqrEngine.restore_latest(checkpoint_dir)
    phase.extra["recovery.restore_ms"] = (time.perf_counter() - start) * 1e3
    phase.check(
        restored.batches_run == newest,
        f"restored engine is at batch {restored.batches_run}, not {newest}",
    )
    replay = Consumer(restored, tail=True)
    replayed = []
    while restored.batches_run < final:
        restored.run_batch()
        replayed.append(batch_digest(*replay.drain()))
    phase.check(
        replayed == phase.digests[newest:final],
        f"restore-and-replay of batches {newest}..{final - 1} diverged from "
        f"the uninterrupted run",
    )


# ----------------------------------------------------------------------
# Metric arithmetic (shared with served.py)
# ----------------------------------------------------------------------
def percentile(values: List[float], q: float) -> float:
    return float(np.percentile(values, q))


def full_speed_latencies(phase: Phase, box: BoxProbe) -> np.ndarray:
    """The timed batches' latencies, each scaled by the probes around it."""
    probes = np.asarray(phase.probes)
    return box.at_full_speed(np.asarray(phase.latencies), probes[:-1], probes[1:])


def end_to_end_metrics(phase: Phase, setup_s: float, box: BoxProbe) -> Dict[str, dict]:
    """The end-to-end metrics of one untraced run (timings at full box speed)."""
    latencies = full_speed_latencies(phase, box)
    delivered = np.asarray(phase.delivered)
    # Median over ten consecutive segments, not total/wall: one stall on a
    # shared box moves a single segment instead of the whole number.
    segments = [
        (lat, tup)
        for lat, tup in zip(np.array_split(latencies, 10), np.array_split(delivered, 10))
        if len(lat)
    ]
    return {
        "setup_s": {"value": setup_s, "unit": "s"},
        "batches_per_s": {
            "value": statistics.median(len(lat) / lat.sum() for lat, _ in segments),
            "unit": "1/s",
        },
        "delivered_tuples_per_s": {
            "value": statistics.median(tup.sum() / lat.sum() for lat, tup in segments),
            "unit": "1/s",
        },
        "batch_ms_p50": {"value": percentile(latencies, 50) * 1e3, "unit": "ms"},
        "peak_rss_mib": {"value": phase.peak_rss_mib, "unit": "MiB"},
        "rate_met_pct": {"value": 100.0 - phase.violation_pct, "unit": "%"},
    }


#: per-layer ``_ms`` metric -> span names whose self time it sums.
SPAN_METRICS = {
    "sensing.world.advance_ms": ("sensing.world.advance",),
    "sensing.handler.acquire_ms": ("sensing.handler.acquire",),
    "faults.injector.apply_ms": ("faults.injector.apply",),
    "faults.degradation.update_ms": ("faults.degradation.update",),
    "core.engine.self_ms": (ROOT,),
    "core.fabricator.map_ms": ("core.fabricator.map",),
    "core.planner.process_ms": ("core.planner.process",),
    "core.tuner.tune_ms": ("core.tuner.tune",),
    "core.pmat.flatten_ms": ("core.pmat.flatten",),
    "core.pmat.thin_ms": ("core.pmat.thin",),
    "core.pmat.partition_ms": ("core.pmat.partition",),
    "plan.program.run_ms": ("plan.program.run",),
    "plan.cache.lookup_ms": ("plan.cache.lookup",),
    "pointprocess.estimate_ms": ("pointprocess.estimate",),
    "pointprocess.thinning_ms": ("pointprocess.thinning",),
    "streams.batch.select_ms": ("streams.batch.select",),
    "geometry.grid.cells_for_points_ms": ("geometry.grid.cells_for_points",),
    "streams.codec.encode_ms": ("streams.codec.encode",),
    "storage.buffer.extend_ms": ("storage.buffer.extend",),
    "storage.buffer.end_batch_ms": ("storage.buffer.end_batch",),
    "storage.cursor.fetch_ms": ("storage.cursor.fetch",),
    "views.fold_ms": ("views.fold",),
    "views.advance_ms": ("views.advance",),
    "serve.server.run_op_ms": ("serve.server.run_op",),
    "serve.server.fetch_op_ms": ("serve.server.fetch_op",),
    "serve.fanout.publish_ms": ("serve.fanout.publish",),
    "serve.protocol.encode_ms": ("serve.protocol.encode",),
    # server-process CPU outside every span: event loop, queue scans, sends
    "serve.server.loop_ms": ("serve.server.loop",),
    "serve.client.decode_ms": ("serve.client.decode.message", "serve.client.decode.payload"),
}

#: per-layer metric -> unit, for everything not ending in ``_ms``.
OTHER_METRICS = {
    "sensing.world.build_s": "s",
    "sensing.handler.requests_per_batch": "count",
    "sensing.handler.response_ratio": "ratio",
    "sensing.handler.requests_per_delivered": "ratio",
    "faults.retries_per_batch": "count",
    "faults.timeouts_per_batch": "count",
    "faults.drops_per_batch": "count",
    "faults.quarantined_sensors": "count",
    "core.engine.span_coverage": "ratio",
    "core.engine.batch_ms_p90": "ms",
    "core.tuner.budget_changes_per_batch": "count",
    "plan.program.runs_per_batch": "count",
    "plan.cache.compiles_per_batch": "count",
    "plan.cache.reuse_ratio": "ratio",
    "pointprocess.estimate_calls_per_batch": "count",
    "pointprocess.estimate_events_per_batch": "count",
    "streams.batch.select_calls_per_batch": "count",
    "streams.codec.encodes_per_publish": "ratio",
    "storage.buffer.evicted_tuples_per_batch": "count",
    "views.frames_per_batch": "count",
    "recovery.snapshot.capture_ms": "ms",
    "recovery.store.write_ms": "ms",
    "recovery.checkpoints": "count",
    "recovery.snapshot_kib": "KiB",
    "recovery.restore_ms": "ms",
    "serve.fetch_rtt_ms_p50": "ms",
    "serve.events_per_s": "1/s",
    "serve.wire_mib_per_s": "MiB/s",
    "serve.queue.skipped_events": "count",
    "serve.queue.disconnects": "count",
    "query.parse_ms": "ms",
    "query.execute_ms": "ms",
    "bench.trace.overhead_pct": "%",
    "bench.trace.span_cost_pct": "%",
    "bench.trace.batches": "count",
    "bench.box.slowdown_pct": "%",
    "bench.generator.cpu_share": "ratio",
}
OTHER_METRICS.update({f"share.{layer}_pct": "%" for layer in LAYERS})


def per_layer_metrics(
    phase: Phase,
    reference: Phase,
    timed: Dict[str, tuple],
    setup: Dict[str, tuple],
    span_counts: Dict[str, int],
    coverage: float,
    box: BoxProbe,
) -> Dict[str, dict]:
    """Every per-layer metric of one traced run.  Span times are as measured;
    only the traced-vs-untraced comparison is taken at full box speed.

    ``timed`` / ``setup`` are :func:`tracer.self_times` over the timed
    batches and over the spans outside any batch; for ``served`` they hold
    the server's and the client's spans together.
    """
    n = len(phase.latencies)
    counts = phase.counts
    values = {name: 0.0 for name in list(SPAN_METRICS) + list(OTHER_METRICS)}

    def self_ms(name):
        return timed.get(name, (0.0, 0))[0] * 1e3

    def calls(name):
        return timed.get(name, (0.0, 0))[1]

    for metric, names in SPAN_METRICS.items():
        values[metric] = sum(self_ms(name) for name in names) / n
    total = sum(seconds for seconds, _ in timed.values())
    for layer in LAYERS:
        layer_s = sum(s for name, (s, _) in timed.items() if name.split(".")[0] == layer)
        values[f"share.{layer}_pct"] = 100.0 * layer_s / total if total else 0.0
    requests = counts.get("requests", 0)
    delivered = sum(phase.delivered)
    checkpoints = counts.get("checkpoints", 0)
    values.update({
        "sensing.world.build_s": setup.get("sensing.world.build", (0.0, 0))[0],
        "sensing.handler.requests_per_batch": requests / n,
        "sensing.handler.response_ratio": (
            counts.get("responses", 0) / requests if requests else 0.0
        ),
        "sensing.handler.requests_per_delivered": (
            requests / delivered if delivered else 0.0
        ),
        "faults.retries_per_batch": counts.get("retries", 0) / n,
        "faults.timeouts_per_batch": counts.get("timeouts", 0) / n,
        "faults.drops_per_batch": counts.get("drops", 0) / n,
        "core.engine.span_coverage": coverage,
        "core.engine.batch_ms_p90": percentile(phase.latencies, 90) * 1e3,
        "core.tuner.budget_changes_per_batch": counts.get("budget_changes", 0) / n,
        "plan.program.runs_per_batch": calls("plan.program.run") / n,
        "plan.cache.compiles_per_batch": counts.get("compiles", 0) / n,
        "plan.cache.reuse_ratio": (
            counts.get("reuses", 0)
            / max(1, counts.get("reuses", 0) + counts.get("compiles", 0))
        ),
        "pointprocess.estimate_calls_per_batch": calls("pointprocess.estimate") / n,
        "pointprocess.estimate_events_per_batch": (
            span_counts.get("pointprocess.estimate", 0) / n
        ),
        "streams.batch.select_calls_per_batch": calls("streams.batch.select") / n,
        "storage.buffer.evicted_tuples_per_batch": counts.get("evicted", 0) / n,
        "views.frames_per_batch": counts.get("frames", 0) / n,
        "recovery.checkpoints": checkpoints,
        "query.parse_ms": setup.get("query.parse", (0.0, 0))[0] * 1e3,
        "query.execute_ms": setup.get("query.execute", (0.0, 0))[0] * 1e3,
        "bench.trace.overhead_pct": 100.0 * (
            percentile(full_speed_latencies(phase, box), 50)
            / percentile(full_speed_latencies(reference, box), 50) - 1.0
        ),
        "bench.trace.span_cost_pct": 100.0 * (
            span_cost() * sum(c for _, c in timed.values()) / n
            / percentile(reference.latencies, 50)
        ),
        "bench.trace.batches": n,
        "bench.box.slowdown_pct": 100.0 * (
            statistics.median(phase.probes) / box.best - 1.0
        ),
    })
    if checkpoints:
        values["recovery.snapshot.capture_ms"] = (
            self_ms("recovery.snapshot.capture") / checkpoints
        )
        values["recovery.store.write_ms"] = self_ms("recovery.store.write") / checkpoints
    values.update(phase.extra)
    units = dict(OTHER_METRICS, **{name: "ms" for name in SPAN_METRICS})
    return {
        name: {"value": float(value), "unit": units[name]}
        for name, value in values.items()
    }


def traced_tables(tracer: Tracer, first_timed: int, stop: Optional[int] = None):
    """``(timed, setup, coverage)`` of one process's spans; the timed batches
    are ``[first_timed, stop)``."""
    return (
        self_times(tracer.spans, first_timed, stop),
        self_times(tracer.spans, SETUP),
        root_coverage(tracer.spans, first_timed, stop),
    )

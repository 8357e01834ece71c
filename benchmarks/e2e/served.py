"""The ``served`` workload: this process is the load generator, the engine
and its asyncio server live in ``serve_child.py``.

Closed loop over two connections.  A drives: ``run(1)``, then token-resumed
``fetch`` of Q1 and V1.  B holds ``Workload.subscriptions`` push subscriptions
on Q0 and as many on V0 (``policy="disconnect"``: a dropped event is a
failure, not a skip) and reads until it holds every event of the batch.  A
batch's latency ends when both connections hold all of that batch's tuples
and closed frames, decoded.

One socket plays the whole audience, so B decodes a payload only when its
bytes differ from the previous event's (each of the 400 copies is still
compared byte for byte): the generator stays light and what is measured is
the server's encode-once fan-out, queueing and framing.
"""

from __future__ import annotations

import hashlib
import json
import pathlib
import subprocess
import sys
import time
from typing import List

from repro.errors import ServeError
from repro.serve import ServeClient, unpack_payloads
from repro.streams import codec

import harness
from harness import Phase, batch_digest
from tracer import Tracer
from workloads import Workload

CHILD = pathlib.Path(__file__).with_name("serve_child.py")


class ServerProcess:
    """``serve_child.py``, driven one JSON line at a time."""

    def __init__(self) -> None:
        self._proc = subprocess.Popen(
            [sys.executable, str(CHILD)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        self.answer()  # "ready": its imports are not part of any set-up time

    def ask(self, **command) -> None:
        self._proc.stdin.write(json.dumps(command) + "\n")
        self._proc.stdin.flush()

    def answer(self) -> dict:
        line = self._proc.stdout.readline()
        if not line:
            raise ServeError(
                f"serve_child.py exited with code {self._proc.wait()} "
                f"instead of answering"
            )
        return json.loads(line)

    def close(self) -> None:
        """Stop the child and wait until it has ended."""
        if self._proc.poll() is None:
            try:
                self.ask(cmd="exit")
                self._proc.wait(timeout=10)
            except (OSError, subprocess.TimeoutExpired):
                self._proc.kill()
        self._proc.wait()
        self._proc.stdin.close()
        self._proc.stdout.close()


class Session:
    """One served engine: the child's server plus connections A and B."""

    def __init__(
        self, child: ServerProcess, workload: Workload, seed: int,
        *, trace: bool, first_timed: int,
    ) -> None:
        start = time.perf_counter()
        self._child = child
        child.ask(cmd="serve", seed=seed, trace=trace, first_timed=first_timed)
        port = child.answer()["port"]
        self.a = ServeClient("127.0.0.1", port)
        self.b = ServeClient("127.0.0.1", port)
        self.statements = self.a.execute(workload.script)
        self.q0_subs = {
            self.b.subscribe(query="Q0", policy="disconnect")["sub"]
            for _ in range(workload.subscriptions)
        }
        self.v0_subs = {
            self.b.subscribe(view="V0", policy="disconnect")["sub"]
            for _ in range(workload.subscriptions)
        }
        self.setup_s = time.perf_counter() - start

    def close(self) -> dict:
        """Shut the server down; returns the child's summary."""
        self.a.shutdown()
        self.a.close()
        self.b.close()
        return self._child.answer()


class Served(harness.Backend):
    """The ``served`` workload: the engine runs in ``serve_child.py``."""

    def __init__(self, workload: Workload, seed: int) -> None:
        super().__init__(workload, seed)
        self._child = ServerProcess()
        self._summary: dict = {}

    def setup_only(self) -> float:
        self._session(trace=False, first_timed=0).close()
        return self.setups[-1][0]

    def _session(self, **how) -> "Session":
        """Open a session, with box probes around its set-up."""
        before = self.box()
        session = Session(self._child, self.workload, self.seed, **how)
        self.setups.append((session.setup_s, before, self.box()))
        return session

    def run_phase(self, *, seconds, batches, warmup, tracer=None) -> Phase:
        phase = Phase(first_timed=warmup)
        session = self._session(trace=tracer is not None, first_timed=warmup)
        try:
            _drive(session, phase, seconds, batches, warmup, tracer, self.box)
        except ServeError as exc:
            phase.problems.append(f"wire failure: {exc}")
        summary = self._summary = session.close()
        phase.peak_rss_mib = summary["peak_rss_mib"]
        phase.violation_pct = summary["violation_pct"]
        phase.check(
            not summary["over_budget"], f"over budget: {summary['over_budget']}"
        )
        return phase

    def layer_metrics(self, tracer: Tracer, phase: Phase, reference: Phase):
        """Per-layer metrics from the server's and the generator's spans."""
        summary, wire, n = self._summary, phase.wire, len(phase.latencies)
        timed, setup, _ = harness.traced_tables(
            tracer, phase.first_timed, phase.first_timed + n
        )
        counts = dict(summary["counts"], frames=wire["frames"])
        # Server CPU no span covers: the asyncio loop, the per-event queue
        # scan and the socket writes.
        loop_s = counts.pop("cpu_s") - sum(s for s, _ in summary["timed"].values())
        timed["serve.server.loop"] = (max(0.0, loop_s), 0)
        phase.counts.update(counts)
        metrics = harness.per_layer_metrics(
            phase, reference,
            _merge(timed, summary["timed"]), _merge(setup, summary["setup"]),
            dict(tracer.counts, **summary["span_counts"]), summary["coverage"],
            self.box,
        )
        for name, value in (
            ("serve.fetch_rtt_ms_p50", wire["fetch_rtt_ms_p50"]),
            ("serve.events_per_s", wire["events"] / wire["wall"]),
            ("serve.wire_mib_per_s", wire["wire_bytes"] / wire["wall"] / 2**20),
            ("serve.queue.skipped_events", wire["skipped"]),
            ("serve.queue.disconnects", wire["disconnects"]),
            ("bench.generator.cpu_share", wire["generator_cpu_share"]),
            ("streams.codec.encodes_per_publish",
             summary["encodes_in_publish"] / max(1, wire["distinct_events"])),
        ):
            metrics[name]["value"] = float(value)
        return metrics

    def close(self) -> None:
        self._child.close()


def _merge(*tables):
    """Sum ``{name: (seconds, calls)}`` span tables of two processes."""
    merged: dict = {}
    for table in tables:
        for name, (seconds, calls) in table.items():
            have = merged.get(name, (0.0, 0))
            merged[name] = (have[0] + seconds, have[1] + calls)
    return merged


def _drive(session, phase, seconds, batches, warmup, tracer, box) -> None:
    a, b = session.a, session.b
    subscriptions = len(session.q0_subs) + len(session.v0_subs)
    phase.attempted += len(session.statements) + subscriptions
    phase.failed += sum(not row["ok"] for row in session.statements)
    clock = time.perf_counter
    tokens = {"Q1": None, "V1": None, "Q0": None, "V0": None}
    wire_tuples = {"Q0": 0, "Q1": 0}
    rtts: List[float] = []
    next_v0_frame = 0
    index = 0
    stats = phase.wire
    stats.update(events=0, skipped=0, disconnects=0, distinct_events=0, frames=0)

    def one_batch():
        nonlocal index, next_v0_frame
        if tracer is not None:
            tracer.batch_index = index
        start = clock()
        reply = a.run(1)
        sent = clock()
        head, payload = a.fetch(query="Q1", token=tokens["Q1"])
        rtts.append(clock() - sent)
        q1 = codec.decode_tuple_batch(payload) if head["count"] else None
        sent = clock()
        vhead, vpayload = a.fetch(view="V1", token=tokens["V1"])
        rtts.append(clock() - sent)
        v1 = [codec.decode_view_frame(p) for p in unpack_payloads(vpayload)]
        tokens["Q1"], tokens["V1"] = head["token"], vhead["token"]
        q0_count = reply["tuples_delivered"] - head["count"]
        expected = len(session.v0_subs) + (len(session.q0_subs) if q0_count else 0)
        events = []
        last = {"batch": b"", "frame": b""}
        decoded = {"batch": None, "frame": None}
        for _ in range(expected):
            header, body = b.next_event(timeout=20)
            kind = header["event"]
            if kind in last and body != last[kind]:
                last[kind] = body
                decoded[kind] = (
                    codec.decode_tuple_batch(body)
                    if kind == "batch"
                    else codec.decode_view_frame(body)
                )
                stats["distinct_events"] += 1
            events.append(header)
        elapsed = clock() - start

        # -- checks, outside the timed window ---------------------------
        q0_events = [e for e in events if e["event"] == "batch"]
        v0_events = [e for e in events if e["event"] == "frame"]
        phase.check(
            {e["sub"] for e in v0_events} == session.v0_subs
            and len(v0_events) == len(session.v0_subs)
            and all(e["frame_index"] == next_v0_frame for e in v0_events),
            f"batch {index}: V0 subscribers did not each get frame {next_v0_frame}",
        )
        next_v0_frame += 1
        if q0_count:
            phase.check(
                {e["sub"] for e in q0_events} == session.q0_subs
                and len(q0_events) == len(session.q0_subs)
                and all(e["count"] == q0_count for e in q0_events)
                and len(decoded["batch"]) == q0_count,
                f"batch {index}: Q0 subscribers did not each get {q0_count} tuples",
            )
        for label, got in (("Q0", q0_events), ("V0", v0_events)):
            if got:
                tokens[label] = got[-1]["token"]
        stats["skipped"] += sum(e.get("skipped", 0) for e in events)
        stats["disconnects"] += sum(e["event"] == "disconnect" for e in events)
        phase.check(
            head["count"] == (len(q1) if q1 is not None else 0),
            f"batch {index}: Q1 fetch header and payload disagree",
        )
        wire_tuples["Q0"] += q0_count
        wire_tuples["Q1"] += head["count"]
        sha = hashlib.sha256(batch_digest([q1] if q1 is not None else [], [v1]))
        sha.update(last["batch"])
        sha.update(last["frame"])
        phase.digests.append(sha.digest())
        phase.attempted += 3 + expected
        index += 1
        return elapsed, head["count"] + len(q0_events) * q0_count, len(events), len(v1) + 1

    for _ in range(warmup):
        one_batch()
    stats["distinct_events"] = 0  # only the timed batches' payloads count
    timed_start, cpu_start = clock(), time.process_time()
    wire_start = tracer.counts["serve.client.decode.message"] if tracer else 0
    deadline = timed_start + seconds if seconds is not None else None
    phase.probes.append(box())
    while (clock() < deadline) if batches is None else (len(phase.latencies) < batches):
        elapsed, tuples, events, frames = one_batch()
        phase.probes.append(box())
        phase.latencies.append(elapsed)
        phase.delivered.append(tuples)
        stats["events"] += events
        stats["frames"] += frames
    wall = clock() - timed_start
    stats["generator_cpu_share"] = (time.process_time() - cpu_start) / wall
    stats["wall"] = wall
    stats["fetch_rtt_ms_p50"] = sorted(rtts)[len(rtts) // 2] * 1e3
    if tracer is not None:
        stats["wire_bytes"] = tracer.counts["serve.client.decode.message"] - wire_start

    # -- end-of-run checks ----------------------------------------------
    b.request({"op": "ping"})  # anything still in flight lands in b.events
    phase.check(not b.events, f"{len(b.events)} push events beyond the expected")
    rows = a.execute("SHOW QUERIES")[0]["rows"]
    totals = {row["label"]: row["total_tuples"] for row in rows}
    phase.check(
        totals == wire_tuples,
        f"wire tuples {wire_tuples} differ from engine deliveries {totals}",
    )
    # Token order: the last token of each push stream points at the frontier.
    pending = a.fetch(query="Q0", token=tokens["Q0"])[0]["count"]
    pending += a.fetch(view="V0", token=tokens["V0"])[0]["count"]
    phase.check(pending == 0, f"{pending} items past the last push tokens")
    phase.attempted += 4

"""Hosts ``repro.serve.Server`` in its own process for the ``served`` workload.

The load generator (``served.py``) must not share a GIL with the server, so
the engine and the asyncio server live here.  The parent drives this process
over stdin/stdout with one JSON object per line.  It announces
``{"ready": true}`` once its imports are done, then obeys:

``{"cmd": "serve", "seed": n, "trace": bool, "first_timed": k}``
    build the world and engine, start a server on an ephemeral port, answer
    ``{"port": p}``, serve until a client sends the ``shutdown`` op, then
    answer one summary line (engine-side numbers the wire does not carry and,
    when tracing, this process's span tables).
``{"cmd": "exit"}`` (or EOF)
    leave.

Several ``serve`` commands may follow each other: the parent repeats set-up
to report its median.
"""

from __future__ import annotations

import asyncio
import gc
import json
import pathlib
import resource
import signal
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parents[1] / "src")]

from repro.serve import ServeConfig, Server  # noqa: E402

import harness  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS, build_engine  # noqa: E402

#: A wedged run must not outlive the benchmark's time limit.
WATCHDOG_SECONDS = 170


class BatchObserver:
    """Traced runs only: bumps the tracer's batch index on every ``run`` op
    (one batch each) and keeps the timed batches' engine-side counters."""

    def __init__(self, tracer: Tracer, first_timed: int) -> None:
        self.counts: dict = {}
        self._baseline = None
        self._op_run = op_run = Server._op_run

        def observed(server, conn, header):
            tracer.batch_index += 1
            timed = tracer.batch_index >= first_timed
            if timed and self._baseline is None:
                self._baseline = self._lifetime(server.engine)
            reply = op_run(server, conn, header)
            if timed:
                harness.handler_counts(self.counts, server.engine.reports[-1])
            return reply

        Server._op_run = observed

    @staticmethod
    def _lifetime(engine) -> dict:
        cache = engine.plan_cache
        return {
            "evicted": sum(h.buffer.evicted_tuples for h in engine.query_handles()),
            "compiles": cache.compiles if cache else 0,
            "reuses": cache.reuses if cache else 0,
            "cpu_s": time.thread_time(),  # the loop thread only, not BLAS workers
        }

    def finish(self, engine) -> dict:
        """Restore ``_op_run``; returns the timed batches' counters."""
        Server._op_run = self._op_run
        if self._baseline is not None:
            for key, value in self._lifetime(engine).items():
                self.counts[key] = value - self._baseline[key]
        return self.counts


def serve_once(command: dict) -> dict:
    workload = WORKLOADS["served"]
    tracer = observer = None
    if command["trace"]:
        tracer = Tracer()
        tracer.install()
        observer = BatchObserver(tracer, command["first_timed"])
    try:
        engine = build_engine(workload, command["seed"])
        server = Server(engine, ServeConfig())

        async def main() -> None:
            _host, port = await server.start()
            print(json.dumps({"port": port}), flush=True)
            await server.serve_forever()

        asyncio.run(main())
    finally:
        if tracer is not None:
            counts = observer.finish(engine)
            tracer.uninstall()
    reports = engine.reports
    budget = workload.budget.initial
    summary = {
        "violation_pct": harness.violation_pct(reports),
        "over_budget": [
            [list(map(str, pair)), requests]
            for report in reports
            for pair, requests in report.handler.per_cell_requests.items()
            if requests > budget
        ],
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer is not None:
        first = command["first_timed"]
        timed, setup, coverage = harness.traced_tables(tracer, first)
        spans = tracer.spans
        summary.update(
            counts=counts,
            timed=timed,
            setup=setup,
            coverage=coverage,
            span_counts=dict(tracer.counts),
            encodes_in_publish=sum(
                1
                for span in spans
                if span[0] == "streams.codec.encode"
                and span[4] >= first
                and span[3] >= 0
                and spans[span[3]][0] == "serve.fanout.publish"
            ),
        )
        harness.OUT_DIR.mkdir(exist_ok=True)
        tracer.write(
            harness.OUT_DIR / "trace_served_server.json",
            workload="served", seed=command["seed"], first_timed=first,
        )
    return summary


def main() -> int:
    print(json.dumps({"ready": True}), flush=True)
    for line in sys.stdin:
        command = json.loads(line)
        if command["cmd"] == "exit":
            break
        signal.alarm(WATCHDOG_SECONDS)
        summary = serve_once(command)
        gc.collect()  # this engine must not be collected inside the next set-up
        print(json.dumps(summary), flush=True)
        signal.alarm(0)
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""E13: the columnar fast path vs the per-tuple object path.

Pushes identical tuple populations through a representative per-cell chain
(F -> T -> P, as the planner builds it) twice: once tuple-by-tuple through
the object path and once as one :class:`TupleBatch` through the operators'
``process_batch`` methods.  Both runs are seeded identically, so they retain
exactly the same tuples — the comparison is pure execution cost.

The columnar path must win by at least 5x from 10k tuples per batch
(ISSUE 1 acceptance criterion); the measured ratios are also persisted to
``BENCH_columnar.json`` so the perf trajectory is tracked across PRs.
"""

import time

import numpy as np
import pytest

from repro.core.pmat import FlattenOperator, PartitionOperator, ThinOperator
from repro.geometry import Rectangle, RectRegion
from repro.metrics import ResultTable
from repro.pointprocess import ConstantIntensity, HomogeneousMDPP
from repro.streams import CountingSink, SensorTuple, TupleBatch

CELL = Rectangle(0.0, 0.0, 1.0, 1.0)
BATCH_SIZES = (1_000, 10_000, 100_000)

#: Minimum columnar speedup required at 10k+ tuples per batch.
REQUIRED_SPEEDUP = 5.0


def make_population(n, seed=1301):
    events = HomogeneousMDPP(float(n), CELL).sample(
        1.0, rng=np.random.default_rng(seed), count=n
    )
    items = [
        SensorTuple(
            tuple_id=i, attribute="rain", t=float(t), x=float(x), y=float(y),
            value=True, sensor_id=i % 64,
        )
        for i, (t, x, y) in enumerate(zip(events.t, events.x, events.y))
    ]
    return items, TupleBatch.from_tuples(items)


def build_chain(n, seed=1303):
    """The planner's canonical per-cell chain: F -> T -> P."""
    rate = float(n)
    rng = np.random.default_rng(seed)
    spawn = lambda: np.random.default_rng(rng.integers(0, 2 ** 63 - 1))
    flatten = FlattenOperator(
        rate / 2, region=CELL, intensity=ConstantIntensity(rate), rng=spawn()
    )
    thin = ThinOperator(rate / 2, rate / 4, rng=spawn())
    partition = PartitionOperator(
        [RectRegion(r) for r in CELL.subdivide(2, 1)], rng=spawn()
    )
    return flatten, thin, partition


def run_object_path(n, items):
    flatten, thin, partition = build_chain(n)
    thin.subscribe_to(flatten.output)
    partition.subscribe_to(thin.output)
    sinks = [CountingSink().attach(partition.output_for(i)) for i in range(2)]
    start = time.perf_counter()
    for item in items:
        flatten.accept(item)
    flatten.flush()
    elapsed = time.perf_counter() - start
    return elapsed, sum(sink.count for sink in sinks)


def run_columnar_path(n, batch):
    flatten, thin, partition = build_chain(n)
    start = time.perf_counter()
    out = partition.process_batch_multi(thin.process_batch(flatten.process_batch(batch)))
    elapsed = time.perf_counter() - start
    return elapsed, sum(len(part) for part in out)


def test_columnar_throughput(record_table, record_metric):
    table = ResultTable(
        "E13 - columnar vs object path (F -> T -> P chain)",
        ["batch size", "object t/s", "columnar t/s", "speedup"],
    )
    speedups = {}
    for n in BATCH_SIZES:
        items, batch = make_population(n)
        # Warm-up pass so allocator/jit-ish effects do not skew either side.
        run_columnar_path(n, batch)
        object_elapsed, object_delivered = run_object_path(n, items)
        columnar_elapsed, columnar_delivered = run_columnar_path(n, batch)
        # Seeded identically: both paths must keep the same tuples.
        assert object_delivered == columnar_delivered
        speedup = object_elapsed / columnar_elapsed
        speedups[n] = speedup
        table.add_row(
            n,
            int(n / object_elapsed),
            int(n / columnar_elapsed),
            f"{speedup:.1f}x",
        )
        record_metric(
            f"columnar_chain_speedup_{n}",
            speedup,
            unit="x",
            detail={
                "object_tuples_per_second": n / object_elapsed,
                "columnar_tuples_per_second": n / columnar_elapsed,
                "delivered": int(columnar_delivered),
            },
        )
    record_table("E13_columnar_throughput", table)

    # The acceptance bar: >= 5x at 10k tuples per batch and beyond.
    for n in BATCH_SIZES:
        if n >= 10_000:
            assert speedups[n] >= REQUIRED_SPEEDUP, (
                f"columnar path only {speedups[n]:.1f}x faster at {n} tuples"
            )

"""E14: the vectorised sensing world vs the per-object simulation.

``SensingWorld.advance`` throughput per mobility model at 1k / 10k / 100k
sensors — strict mode (the per-sensor object path) against fast-sim mode
(``vectorized_rng=True``, one ``step_batch`` kernel per model group per
movement step).  ISSUE 2's acceptance bar is a >= 15x speedup for
RandomWaypoint at 10k sensors (restated as >= 8x since the strict loop
itself got ~2.2x faster, see ``REQUIRED_ADVANCE_SPEEDUP``).  Beside the
ratios the table prints the *absolute* milliseconds of one
``advance(1.0)`` (ten movement sub-steps) on both sides: a ratio hides
what either loop costs — at 100k sensors the fast-sim number is most of
an engine batch, and the strict one is what ``crowd_strict`` pays.  What
either contract costs an engine batch end to end is ``crowd_fast`` /
``crowd_strict`` in ``benchmarks/e2e/``.

Results are persisted to ``BENCH_world.json`` via ``record_world_metric`` so
the simulation perf trajectory is tracked across PRs.
"""

import time

import numpy as np

from repro.geometry import Rectangle
from repro.metrics import ResultTable
from repro.sensing import (
    GaussMarkovMobility,
    HotspotMobility,
    RandomWalkMobility,
    RandomWaypointMobility,
    SensingWorld,
    StationaryMobility,
    WorldConfig,
)

REGION = Rectangle(0.0, 0.0, 4.0, 4.0)

MOBILITY_FACTORIES = {
    "stationary": lambda r: StationaryMobility(r),
    "walk": lambda r: RandomWalkMobility(r),
    "waypoint": lambda r: RandomWaypointMobility(r),
    "gauss_markov": lambda r: GaussMarkovMobility(r),
    "hotspot": lambda r: HotspotMobility(r, [(1.0, 1.0, 1.0), (3.0, 3.0, 2.0)]),
}

SENSOR_COUNTS = (1_000, 10_000, 100_000)

#: Simulated duration per measurement; shorter at 100k so the strict
#: (per-object) side keeps the whole benchmark CI-friendly.
ADVANCE_DURATION = {1_000: 1.0, 10_000: 1.0, 100_000: 0.2}

#: Timing repetitions (minimum taken) per sensor count: scheduler noise on a
#: shared runner lands on one window, not both; a single pass suffices at
#: 100k where the ratio is recorded but not asserted.
ADVANCE_REPEATS = {1_000: 2, 10_000: 3, 100_000: 1}

#: Repetitions (minimum taken) of the absolute fast-sim ``advance(1.0)``
#: timing where the ratio measurement above used a shorter duration (the
#: strict side takes a single pass there: it is seconds, not milliseconds).
ABSOLUTE_REPEATS = 3

#: ISSUE 2 acceptance: fast-sim advance speedup at 10k waypoint sensors.
#: The denominator of this ratio is the strict loop, so a faster reference
#: lowers it: it read 40.6x at PR 17 and ~18x since PR 18 made strict
#: ``advance`` sensor-major (~0.73 M -> ~1.6 M sensor-steps/s) with the
#: fast-sim numerator unchanged at ~3.4 ms per ``advance(1.0)``.  15x would
#: now fail on runner noise alone; 8x still fails if the kernels lose
#: half their lead, and the absolute columns say which side moved.
REQUIRED_ADVANCE_SPEEDUP = 8.0


def make_world(factory, sensor_count, *, vectorized, seed=41):
    return SensingWorld(
        WorldConfig(
            region=REGION,
            sensor_count=sensor_count,
            seed=seed,
            vectorized_rng=vectorized,
        ),
        mobility_factory=factory,
    )


def time_advance(world, duration, repeats=1):
    world.advance(world.config.movement_step)  # warm-up sub-step
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        world.advance(duration)
        best = min(best, time.perf_counter() - start)
    return best


def test_world_advance_throughput(record_table, record_world_metric):
    table = ResultTable(
        "E14 - SensingWorld.advance: strict (object) vs fast-sim (SoA kernels)",
        [
            "model", "sensors", "object s-steps/s", "fast-sim s-steps/s",
            "speedup", "strict ms/advance(1.0)", "fast-sim ms/advance(1.0)",
        ],
    )
    speedups = {}
    for name, factory in MOBILITY_FACTORIES.items():
        for count in SENSOR_COUNTS:
            duration = ADVANCE_DURATION[count]
            strict = make_world(factory, count, vectorized=False)
            fast = make_world(factory, count, vectorized=True)
            sub_steps = round(duration / strict.config.movement_step)
            sensor_steps = count * sub_steps
            repeats = ADVANCE_REPEATS[count]
            strict_elapsed = time_advance(strict, duration, repeats)
            fast_elapsed = time_advance(fast, duration, repeats)
            speedup = strict_elapsed / fast_elapsed
            speedups[(name, count)] = speedup
            if duration == 1.0:
                strict_unit, fast_unit = strict_elapsed, fast_elapsed
            else:
                strict_unit = time_advance(strict, 1.0)
                fast_unit = time_advance(fast, 1.0, ABSOLUTE_REPEATS)
            table.add_row(
                name,
                count,
                int(sensor_steps / strict_elapsed),
                int(sensor_steps / fast_elapsed),
                f"{speedup:.1f}x",
                f"{strict_unit * 1e3:.1f}",
                f"{fast_unit * 1e3:.2f}",
            )
            record_world_metric(
                f"world_advance_speedup_{name}_{count}",
                speedup,
                unit="x",
                detail={
                    "object_sensor_steps_per_second": sensor_steps / strict_elapsed,
                    "fast_sim_sensor_steps_per_second": sensor_steps / fast_elapsed,
                    "simulated_duration": duration,
                },
            )
    record_table("E14_world_advance", table)

    # The acceptance bar is defined at 10k sensors; the 1k and 100k rows are
    # recorded for the trajectory but not asserted (at 100k the short
    # simulated duration makes the ratio sensitive to scheduler noise).
    assert speedups[("waypoint", 10_000)] >= REQUIRED_ADVANCE_SPEEDUP, (
        f"fast-sim advance only {speedups[('waypoint', 10_000)]:.1f}x faster "
        f"at 10k waypoint sensors"
    )

"""E8 (skew motivation, Section I): CrAQR delivers fixed-rate streams despite skew.

The paper's opening claim: crowdsensed data has a highly skewed
spatio-temporal distribution caused by sensor mobility, and systems should
"mitigate this effect by acquiring crowdsensed [data] at a fixed
spatio-temporal rate".  The experiment runs the same city-wide temperature
query against (a) a world with roughly uniform sensor coverage and (b) a
world whose sensors cluster around two hotspots.  Reported per setting: the
skew of the sensor population, of the raw acquired tuples, of the delivered
stream and of a uniform-random-sampling baseline fed the same raw tuples
(coefficient of variation over a 4x4 quadrat grid), plus the achieved rate.

Every tuple CV is pooled over the same number of rounds (``BATCHES``): the
delivered stream over the engine's batches, the raw arrivals and the
baseline over as many handler rounds run right after them.  A single round
is ~200 raw / ~64 kept tuples and reads 0.1-0.3 / 0.3-0.6 from sampling
noise alone; ~770 evenly spread tuples still read ``sqrt(16 / 770)`` = 0.14.

Where the de-skewing happens: the 4x4 quadrats are the engine's 4x4 grid
cells, and the handler sends each cell its own request budget, so the raw
arrivals are already even at this resolution whatever the sensor population
looks like (sensor CV ~1.4 -> raw ~0.1).  Flatten and Thin then even out
each cell's stream and fix its rate.  The uniform-sampling baseline samples
those same budgeted arrivals, so at quadrat resolution it is as even as they
are; no check rests on it.  The shape: the delivered stream's skew is far
below the sensor population's and the rate is the requested one in both
worlds.  The benchmark measures a full batch in the hotspot world.
"""

import numpy as np
import pytest

from repro import AcquisitionalQuery, CraqrEngine
from repro.baselines import UniformSamplingAcquirer
from repro.geometry import Rectangle
from repro.metrics import ResultTable
from repro.pointprocess import EventBatch, coefficient_of_variation
from repro.workloads import build_hotspot_world, build_uniform_world, default_engine_config

REGION = Rectangle(0, 0, 4, 4)
RATE = 4.0
BATCHES = 12
WARMUP_TIME = 30.0


def cv_of_tuples(items, region=REGION):
    batch = EventBatch.from_rows([(it.t, it.x, it.y) for it in items])
    return coefficient_of_variation(batch, region, 4, 4)


def run_setting(world_builder, seed):
    world = world_builder(sensor_count=350, seed=seed)
    world.advance(WARMUP_TIME)  # let mobility shape the sensor distribution
    sensor_cv = float(
        np.std(world.density_snapshot(4, 4)) / np.mean(world.density_snapshot(4, 4))
    )
    engine = CraqrEngine(default_engine_config(seed=seed + 1), world)
    handle = engine.register_query(AcquisitionalQuery("temp", REGION, RATE, name="citywide"))

    for _ in range(BATCHES):
        engine.run_batch()
    delivered = handle.results()

    # Raw arrivals, before any operator runs: as many handler rounds as the
    # delivered stream has batches, the world moving on between them as it
    # does between batches.
    baseline = UniformSamplingAcquirer(np.random.default_rng(seed + 2))
    cells = engine.planner.attribute_cells()
    raw_items, baseline_kept = [], []
    for _ in range(BATCHES):
        raw_round, _ = engine.handler.acquire(cells, duration=1.0)
        round_items = [item for items in raw_round.values() for item in items]
        raw_items += round_items
        baseline_kept += baseline.sample_to_rate(round_items, RATE, REGION.area, 1.0)
        world.advance(1.0)

    return {
        "engine": engine,
        "handle": handle,
        "sensor_cv": sensor_cv,
        "raw_cv": cv_of_tuples(raw_items),
        "delivered_cv": cv_of_tuples(delivered),
        "baseline_cv": cv_of_tuples(baseline_kept),
        "achieved": handle.achieved_rate(last_batches=6).achieved_rate,
    }


def test_skew_mitigation(benchmark, record_table):
    uniform = run_setting(build_uniform_world, seed=701)
    hotspot = run_setting(build_hotspot_world, seed=751)

    table = ResultTable(
        f"E8 - spatial skew (4x4 quadrat CV, {BATCHES} rounds pooled) of sensors, "
        "raw arrivals and delivered streams",
        [
            "world",
            "sensor CV",
            "raw acquired CV (per-cell budgets)",
            "CrAQR delivered CV",
            "uniform-sampling CV",
            "achieved rate (target 4)",
        ],
    )
    for label, result in (("uniform mobility", uniform), ("hotspot mobility", hotspot)):
        table.add_row(
            label,
            round(result["sensor_cv"], 2),
            round(result["raw_cv"], 2),
            round(result["delivered_cv"], 2),
            round(result["baseline_cv"], 2),
            round(result["achieved"], 2),
        )
    record_table("E8_skew_mitigation", table)

    # Shape checks:
    # (1) the hotspot world's sensor population really is skewed;
    assert hotspot["sensor_cv"] > 2.0 * uniform["sensor_cv"]
    # (2) per-cell budgets already remove that skew from the raw arrivals,
    #     and the delivered stream stays as far below it;
    assert hotspot["raw_cv"] < 0.2 * hotspot["sensor_cv"]
    assert hotspot["delivered_cv"] < 0.2 * hotspot["sensor_cv"]
    # (3) the delivered stream is even in both worlds;
    assert uniform["delivered_cv"] < 0.5
    assert hotspot["delivered_cv"] < 0.5
    # (4) the requested rate is met in both worlds.
    assert uniform["achieved"] == pytest.approx(RATE, rel=0.3)
    assert hotspot["achieved"] == pytest.approx(RATE, rel=0.3)

    benchmark(hotspot["engine"].run_batch)

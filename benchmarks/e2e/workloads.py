"""The five canonical workloads: generated configs and statements only.

Everything the program under test receives is built here from ``--seed``:
a :class:`~repro.sensing.SensingWorld`, an :class:`~repro.config.EngineConfig`
and a DDL script.  The harness (``harness.py`` / ``served.py``) never
reaches past these inputs.

Sizes are this PR's, measured on its 2-core box so that one timed batch
costs ~65-155 ms and a 10 s run holds >= 50 batches (README.md records the
sizing numbers and the layer shares that justified each size).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

from repro.config import BudgetConfig, CheckpointConfig, EngineConfig
from repro.core import CraqrEngine
from repro.geometry import Rectangle
from repro.sensing import (
    BernoulliParticipation,
    RainField,
    RandomWaypointMobility,
    SensingWorld,
    TemperatureField,
    WorldConfig,
)
from repro.workloads.scenarios import default_resilience_config, flaky_crowd_plan

REGION = Rectangle(0.0, 0.0, 8.0, 8.0)

#: The "small set": one whole-region rain query, one inner temp query, a
#: tumbling and a sliding view.
SMALL_SET = """
ACQUIRE rain FROM RECT(0, 0, 8, 8) AT RATE 10 PER KM2 PER MIN AS Q0;
ACQUIRE temp FROM RECT(2, 2, 6, 6) AT RATE 15 PER KM2 PER MIN AS Q1;
CREATE VIEW V0 ON Q0 AS AVG(value) GROUP BY CELL WINDOW 2;
CREATE VIEW V1 ON Q1 AS P95(value) GROUP BY CELL WINDOW 4 SLIDE 2;
"""

#: The 10 queries + 10 views of ``benchmarks/bench_plan_compiler.py``
#: (copied, not imported: the benchmark owns its inputs).
PLAN_SET = """
ACQUIRE rain FROM RECT(0, 0, 8, 8) AT RATE 12 PER KM2 PER MIN AS Q0;
ACQUIRE rain FROM RECT(0, 0, 4, 4) AT RATE 24 PER KM2 PER MIN AS Q1;
ACQUIRE rain FROM RECT(4, 4, 8, 8) AT RATE 18 PER KM2 PER MIN AS Q2;
ACQUIRE rain FROM RECT(0, 4, 4, 8) AT RATE 9 PER KM2 PER MIN AS Q3;
ACQUIRE rain FROM RECT(2, 2, 6, 6) AT RATE 15 PER KM2 PER MIN AS Q4;
ACQUIRE rain FROM RECT(1.5, 0, 3.5, 2.5) AT RATE 30 PER KM2 PER MIN AS Q5;
ACQUIRE temp FROM RECT(0, 0, 8, 8) AT RATE 10 PER KM2 PER MIN AS Q6;
ACQUIRE temp FROM RECT(4, 0, 8, 4) AT RATE 20 PER KM2 PER MIN AS Q7;
ACQUIRE temp FROM RECT(2.5, 2.5, 5.5, 5.5) AT RATE 14 PER KM2 PER MIN AS Q8;
ACQUIRE temp FROM RECT(0, 6, 8, 8) AT RATE 7 PER KM2 PER MIN AS Q9;
CREATE VIEW V0 ON Q0 AS AVG(value) GROUP BY CELL WINDOW 2;
CREATE VIEW V1 ON Q0 AS MAX(value) GROUP BY CELL WINDOW 4 SLIDE 2;
CREATE VIEW V2 ON Q1 AS COUNT(*) GROUP BY CELL WINDOW 2;
CREATE VIEW V3 ON Q2 AS AVG(value) GROUP BY CELL WINDOW 2;
CREATE VIEW V4 ON Q3 AS SUM(value) WINDOW 2;
CREATE VIEW V5 ON Q4 AS AVG(value) GROUP BY CELL WINDOW 2;
CREATE VIEW V6 ON Q5 AS MAX(value) WINDOW 4 SLIDE 2;
CREATE VIEW V7 ON Q6 AS AVG(value) GROUP BY CELL WINDOW 2;
CREATE VIEW V8 ON Q7 AS COUNT(*) GROUP BY CELL WINDOW 2;
CREATE VIEW V9 ON Q8 AS AVG(value) GROUP BY CELL WINDOW 4 SLIDE 2;
"""

#: ``served``: two whole-region queries; V0 closes one frame per batch so
#: every batch pushes one delivery event and one frame event per subscriber.
SERVED_SET = """
ACQUIRE rain FROM RECT(0, 0, 8, 8) AT RATE 4 PER KM2 PER MIN AS Q0;
ACQUIRE temp FROM RECT(0, 0, 8, 8) AT RATE 4 PER KM2 PER MIN AS Q1;
CREATE VIEW V0 ON Q0 AS AVG(value) GROUP BY CELL WINDOW 1;
CREATE VIEW V1 ON Q1 AS P95(value) GROUP BY CELL WINDOW 4 SLIDE 2;
"""


@dataclass(frozen=True)
class Workload:
    """One canonical workload: its inputs' shape plus its run lengths."""

    name: str
    why: str
    sensors: int
    fast_sim: bool
    grid_cells: int
    script: str
    budget: BudgetConfig
    warmup: int
    batches: int
    online_estimation: bool = False
    flaky: bool = False
    checkpoint_every: Optional[int] = None
    #: ``served`` only: push subscriptions connection B holds on each of Q0
    #: and V0.
    subscriptions: int = 0


def pinned(budget: int) -> BudgetConfig:
    """A budget the tuner cannot move, so percentiles describe the code,
    not the first 20 batches of budget drift."""
    return BudgetConfig(initial=budget, delta=10, limit=budget, floor=budget)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="estimate64",
            why="128 chains per batch on a 64-cell grid: pointprocess "
            "estimation + plan + core.pmat own the batch, sensing is minor",
            sensors=900, fast_sim=True, grid_cells=64, script=PLAN_SET,
            budget=pinned(200), warmup=10, batches=120, online_estimation=True,
        ),
        Workload(
            name="crowd_fast",
            why="large fast-sim crowd, 20 chains: sensing (shared-stream "
            "advance + fused acquisition) owns the batch; setup and RSS matter",
            sensors=100_000, fast_sim=True, grid_cells=16, script=SMALL_SET,
            budget=pinned(1000), warmup=5, batches=120,
        ),
        Workload(
            name="crowd_strict",
            why="same sensing layer under per-sensor RNG streams: a gain for "
            "one RNG policy that costs the other shows here",
            sensors=2_000, fast_sim=False, grid_cells=16, script=SMALL_SET,
            budget=pinned(150), warmup=5, batches=100,
        ),
        Workload(
            name="flaky_ckpt",
            why="only workload where faults, retries, quarantine, the live "
            "tuner, retention eviction and checkpoint writes run",
            sensors=1_000, fast_sim=False, grid_cells=16, script=SMALL_SET,
            budget=BudgetConfig(initial=200, delta=10, limit=400, floor=20),
            warmup=10, batches=100, flaky=True, checkpoint_every=5,
        ),
        Workload(
            name="served",
            why="400+400 push subscriptions over the wire: encode-once "
            "fan-out, queueing, framing and client decode own the batch",
            sensors=2_000, fast_sim=True, grid_cells=4, script=SERVED_SET,
            budget=pinned(1000), warmup=10, batches=300, subscriptions=400,
        ),
    )
}


def build_world(workload: Workload, seed: int) -> SensingWorld:
    """The rain + temperature crowd every workload shares, at its size."""
    world = SensingWorld(
        WorldConfig(
            region=REGION,
            sensor_count=workload.sensors,
            seed=seed,
            vectorized_rng=workload.fast_sim,
        ),
        mobility_factory=lambda r: RandomWaypointMobility(r, speed=0.3, pause=0.2),
        participation_factory=lambda sensor_id: BernoulliParticipation(
            0.7, mean_latency=0.1
        ),
    )
    world.register_field(RainField(REGION, band_width=2.0, period=60.0))
    world.register_field(TemperatureField(REGION))
    return world


def build_engine(
    workload: Workload, seed: int, checkpoint_dir: Optional[str] = None
) -> CraqrEngine:
    """World + engine for one seed; the world, engine and fault-plan seeds
    are derived from ``seed`` so one integer names the whole input."""
    config = EngineConfig(
        grid_cells=workload.grid_cells,
        batch_duration=1.0,
        budget=workload.budget,
        seed=seed + 1,
        online_estimation=workload.online_estimation,
        retention_batches=20,
    )
    if workload.flaky:
        config = replace(
            config,
            faults=flaky_crowd_plan(seed=seed + 2),
            resilience=default_resilience_config(),
        )
    if workload.checkpoint_every is not None:
        config = replace(
            config,
            checkpoints=CheckpointConfig(
                directory=checkpoint_dir, every=workload.checkpoint_every, retain=2
            ),
        )
    return CraqrEngine(config, build_world(workload, seed))

"""Pre-packaged simulation scenarios.

World builders, engine configurations and fault plans, so examples,
benchmarks and the CLI can say "the rain + temperature city" or "the
hotspot-skewed city" in one line and get an identical, reproducible setup.
"""

from __future__ import annotations

from typing import Optional, Tuple

from ..config import BudgetConfig, EngineConfig
from ..faults import (
    BurstDropModel,
    CellOutage,
    FaultPlan,
    HealthConfig,
    ResilienceConfig,
    RetryPolicy,
)
from ..geometry import Rectangle
from ..sensing import (
    BernoulliParticipation,
    HotspotMobility,
    RainField,
    RandomWaypointMobility,
    SensingWorld,
    StationaryMobility,
    TemperatureField,
    WorldConfig,
)

#: The default deployment region: a 4 km x 4 km city, one unit = 1 km.
DEFAULT_REGION = Rectangle(0.0, 0.0, 4.0, 4.0)


def default_engine_config(
    *,
    grid_cells: int = 16,
    seed: Optional[int] = 7,
    initial_budget: int = 60,
    budget_limit: int = 600,
    budget_delta: int = 5,
    budget_floor: int = 20,
    violation_threshold: float = 5.0,
    retention_batches: Optional[int] = None,
) -> EngineConfig:
    """The engine configuration shared by the stock scenarios.

    The budget floor is kept well above one request so that the +/- delta
    feedback loop of Section V oscillates around the sufficient budget
    instead of periodically starving a cell.  ``retention_batches`` turns
    on the service-mode memory bound (see
    :attr:`repro.config.EngineConfig.retention_batches`); the stock
    experiment scenarios keep the whole history.
    """
    return EngineConfig(
        grid_cells=grid_cells,
        batch_duration=1.0,
        budget=BudgetConfig(
            initial=initial_budget,
            delta=budget_delta,
            limit=budget_limit,
            floor=min(budget_floor, initial_budget),
            violation_threshold=violation_threshold,
        ),
        seed=seed,
        retention_batches=retention_batches,
    )


def build_rain_temperature_world(
    *,
    sensor_count: int = 300,
    seed: Optional[int] = 11,
    region: Rectangle = DEFAULT_REGION,
    response_probability: float = 0.6,
) -> SensingWorld:
    """The paper's running example: rain (human-sensed) and temp (sensor-sensed).

    Sensors follow random-waypoint mobility; humans answer rain questions with
    the given probability and some latency, while the temperature attribute
    is read from an ambient field with heat islands.
    """
    world = SensingWorld(
        WorldConfig(region=region, sensor_count=sensor_count, seed=seed),
        mobility_factory=lambda r: RandomWaypointMobility(r, speed=0.25, pause=0.5),
        participation_factory=lambda sensor_id: BernoulliParticipation(
            response_probability, mean_latency=0.1
        ),
    )
    world.register_field(RainField(region, band_width=region.width * 0.3, period=60.0))
    world.register_field(
        TemperatureField(
            region,
            base=18.0,
            diurnal_amplitude=6.0,
            period=1440.0,
            heat_islands=(
                (region.width * 0.3, region.height * 0.3, 4.0, region.width * 0.15),
                (region.width * 0.75, region.height * 0.6, 2.5, region.width * 0.1),
            ),
        )
    )
    return world


def build_uniform_world(
    *,
    sensor_count: int = 300,
    seed: Optional[int] = 13,
    region: Rectangle = DEFAULT_REGION,
    response_probability: float = 0.8,
) -> SensingWorld:
    """A world with mild, roughly uniform sensor coverage (low skew baseline)."""
    world = SensingWorld(
        WorldConfig(region=region, sensor_count=sensor_count, seed=seed),
        mobility_factory=lambda r: RandomWaypointMobility(r, speed=0.3, pause=0.2),
        participation_factory=lambda sensor_id: BernoulliParticipation(
            response_probability, mean_latency=0.05
        ),
    )
    world.register_field(RainField(region, band_width=region.width * 0.4, period=80.0))
    world.register_field(TemperatureField(region))
    return world


def build_hotspot_world(
    *,
    sensor_count: int = 300,
    seed: Optional[int] = 17,
    region: Rectangle = DEFAULT_REGION,
    response_probability: float = 0.6,
    roamer_fraction: float = 0.25,
    jitter: float = 0.3,
) -> SensingWorld:
    """A world with strongly skewed sensor density (two popular hotspots).

    This is the stress case the paper motivates: most of the crowd clusters
    around a couple of hotspots (a dense "downtown"), while a minority of
    roaming sensors keeps thin coverage in the rest of the city — so raw
    arrivals are far from homogeneous but fixed-rate acquisition remains
    physically possible everywhere.
    """
    hotspots = (
        (region.width * 0.25, region.height * 0.3, 3.0),
        (region.width * 0.75, region.height * 0.7, 1.0),
    )

    def mobility_factory(r: Rectangle):
        return HotspotMobility(
            r, hotspots, speed=0.35, jitter=jitter, switch_probability=0.05
        )

    # A fixed share of sensors roam the whole city so no cell is ever empty;
    # the factory receives only the region, so the split is done by counting
    # how many models have been created so far.
    created = {"count": 0}

    def mixed_mobility_factory(r: Rectangle):
        created["count"] += 1
        if created["count"] % max(int(round(1.0 / max(roamer_fraction, 1e-9))), 1) == 0:
            return RandomWaypointMobility(r, speed=0.3, pause=0.2)
        return mobility_factory(r)

    factory = mixed_mobility_factory if roamer_fraction > 0 else mobility_factory
    world = SensingWorld(
        WorldConfig(region=region, sensor_count=sensor_count, seed=seed),
        mobility_factory=factory,
        participation_factory=lambda sensor_id: BernoulliParticipation(
            response_probability, mean_latency=0.1
        ),
    )
    world.register_field(RainField(region, band_width=region.width * 0.3, period=60.0))
    world.register_field(TemperatureField(region))
    return world


# ----------------------------------------------------------------------
# Fault-injection scenarios (robustness experiments)
# ----------------------------------------------------------------------

def default_resilience_config(
    *,
    deadline: float = 0.6,
    max_attempts: int = 3,
    reserve_fraction: float = 0.25,
    probation: bool = True,
    quarantine_batches: int = 3,
    degraded_response_rate: float = 0.25,
) -> ResilienceConfig:
    """The mitigation bundle the fault scenarios switch on.

    ``probation=False`` makes sensor quarantine permanent — the
    mitigation-disabled baseline of the outage recovery regression, whose
    delivered rate must *not* recover after the outage ends.
    """
    return ResilienceConfig(
        deadline=deadline,
        retry=RetryPolicy(
            max_attempts=max_attempts, reserve_fraction=reserve_fraction
        ),
        health=HealthConfig(
            probation=probation, quarantine_batches=quarantine_batches
        ),
        degraded_response_rate=degraded_response_rate,
    )


def flaky_crowd_plan(*, seed: int = 23) -> FaultPlan:
    """A little of everything going wrong: the general-robustness stress mix.

    i.i.d. and bursty transit drops, a few stuck-at sensors, occasional
    gross outliers on numeric attributes, latency spikes past the default
    response deadline, and bounded clock skew.
    """
    return FaultPlan(
        seed=seed,
        drop_probability=0.12,
        burst=BurstDropModel(enter_probability=0.04, exit_probability=0.3),
        stuck_fraction=0.04,
        outlier_probability=0.05,
        outlier_scale=30.0,
        latency_inflation_probability=0.12,
        latency_inflation_factor=10.0,
        clock_skew_max=0.02,
    )


def build_stationary_world(
    *,
    sensor_count: int = 240,
    seed: Optional[int] = 19,
    region: Rectangle = DEFAULT_REGION,
    response_probability: float = 0.8,
) -> SensingWorld:
    """A traditional-WSN world: sensors never move.

    The outage regression pins recovery on the *same* population that
    suffered the outage — mobile sensors wandering into a dead cell would
    mask a failed re-admission, so the outage scenarios hold every sensor
    still.
    """
    world = SensingWorld(
        WorldConfig(region=region, sensor_count=sensor_count, seed=seed),
        mobility_factory=lambda r: StationaryMobility(r),
        participation_factory=lambda sensor_id: BernoulliParticipation(
            response_probability, mean_latency=0.05
        ),
    )
    world.register_field(TemperatureField(region))
    return world


def cell_outage_plan(
    *,
    seed: int = 29,
    start: float = 4.0,
    end: float = 10.0,
    cells: Optional[Tuple[Tuple[int, int], ...]] = ((0, 0), (1, 0), (0, 1), (1, 1)),
    moving: bool = False,
    grid_side: int = 4,
    column_batches: float = 3.0,
) -> FaultPlan:
    """A total cell outage window — static, or sweeping across the grid.

    The static form blacks out ``cells`` for ``[start, end)``.  With
    ``moving`` the outage instead sweeps one grid *column* at a time from
    left to right, ``column_batches`` time units per column starting at
    ``start`` (``cells`` is ignored) — the moving-window stress for
    quarantine/probation churn.
    """
    if moving:
        outages = tuple(
            CellOutage(
                start=start + q * column_batches,
                end=start + (q + 1) * column_batches,
                cells=tuple((q, r) for r in range(grid_side)),
            )
            for q in range(grid_side)
        )
    else:
        outages = (CellOutage(start=start, end=end, cells=cells),)
    return FaultPlan(seed=seed, outages=outages)

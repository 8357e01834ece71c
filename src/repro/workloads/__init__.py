"""Workload and scenario generators used by examples, tests and benchmarks."""

from .queries import random_query_workload, overlapping_query_workload, fig2_queries
from .scenarios import (
    Scenario,
    build_rain_temperature_world,
    build_stationary_world,
    build_uniform_world,
    build_hotspot_world,
    cell_outage_plan,
    cell_outage_scenario,
    crash_recovery_scenario,
    default_engine_config,
    default_resilience_config,
    flaky_crowd_plan,
    flaky_crowd_scenario,
)

__all__ = [
    "random_query_workload",
    "overlapping_query_workload",
    "fig2_queries",
    "Scenario",
    "build_rain_temperature_world",
    "build_stationary_world",
    "build_uniform_world",
    "build_hotspot_world",
    "cell_outage_plan",
    "cell_outage_scenario",
    "crash_recovery_scenario",
    "default_engine_config",
    "default_resilience_config",
    "flaky_crowd_plan",
    "flaky_crowd_scenario",
]

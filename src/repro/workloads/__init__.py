"""Workload and scenario generators used by examples, tests and benchmarks."""

from .queries import random_query_workload, overlapping_query_workload, fig2_queries
from .scenarios import (
    build_rain_temperature_world,
    build_stationary_world,
    build_uniform_world,
    build_hotspot_world,
    cell_outage_plan,
    default_engine_config,
    default_resilience_config,
    flaky_crowd_plan,
)

__all__ = [
    "random_query_workload",
    "overlapping_query_workload",
    "fig2_queries",
    "build_rain_temperature_world",
    "build_stationary_world",
    "build_uniform_world",
    "build_hotspot_world",
    "cell_outage_plan",
    "default_engine_config",
    "default_resilience_config",
    "flaky_crowd_plan",
]

"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import BudgetConfig, EngineConfig
from repro.geometry import Grid, Rectangle, RectRegion
from repro.sensing import (
    AlwaysRespond,
    BernoulliParticipation,
    RandomWaypointMobility,
    RainField,
    SensingWorld,
    TemperatureField,
    WorldConfig,
)


@pytest.fixture
def rng():
    """A deterministic random generator."""
    return np.random.default_rng(12345)


@pytest.fixture
def unit_region():
    """The unit square region."""
    return Rectangle(0.0, 0.0, 1.0, 1.0)


@pytest.fixture
def city_region():
    """A 4x4 deployment region (one unit = 1 km)."""
    return Rectangle(0.0, 0.0, 4.0, 4.0)


@pytest.fixture
def city_grid(city_region):
    """A 4x4 grid over the city region."""
    return Grid(city_region, side=4)


@pytest.fixture
def small_config():
    """A small engine configuration suitable for fast tests."""
    return EngineConfig(
        grid_cells=16,
        batch_duration=1.0,
        budget=BudgetConfig(initial=40, delta=10, limit=400, violation_threshold=5.0),
        seed=42,
    )


def pytest_configure(config):
    """Numpy's floating-point warnings fail the test that raises them.

    A kernel that evaluates ``log`` or a division over rows whose result it
    then ignores must mask them or run under ``np.errstate``: a warning
    would reach a serving process's stderr.
    """
    config.addinivalue_line("filterwarnings", "error::RuntimeWarning")


def make_world(
    region: Rectangle,
    *,
    sensor_count: int = 120,
    seed: int = 7,
    response_probability: float = 1.0,
) -> SensingWorld:
    """Build a small deterministic sensing world for tests."""
    if response_probability >= 1.0:
        participation_factory = lambda sensor_id: AlwaysRespond()
    else:
        participation_factory = lambda sensor_id: BernoulliParticipation(
            response_probability, mean_latency=0.05
        )
    world = SensingWorld(
        WorldConfig(region=region, sensor_count=sensor_count, seed=seed),
        mobility_factory=lambda r: RandomWaypointMobility(r, speed=0.3, pause=0.2),
        participation_factory=participation_factory,
    )
    world.register_field(RainField(region, band_width=region.width * 0.4, period=50.0))
    world.register_field(TemperatureField(region))
    return world


@pytest.fixture
def city_world(city_region):
    """A deterministic 4x4 world with rain and temperature fields."""
    return make_world(city_region)


@pytest.fixture
def unit_rect_region(unit_region):
    """The unit square as a Region."""
    return RectRegion(unit_region)

"""Unit tests for configuration objects and the exception hierarchy."""

import numpy as np
import pytest

import repro
from repro.config import BudgetConfig, EngineConfig
from repro.errors import (
    AcquisitionError,
    BudgetError,
    CraqrError,
    EstimationError,
    GeometryError,
    PlanningError,
    PointProcessError,
    QueryError,
    QueryParseError,
    StorageError,
    StreamError,
    WorkloadError,
)
from repro.faults import FaultPlan
from repro.geometry import Rectangle
from repro.sensing import WorldConfig


class TestBudgetConfig:
    def test_defaults_are_valid(self):
        config = BudgetConfig()
        assert config.initial > 0
        assert config.limit >= config.initial

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"initial": 0},
            {"delta": 0},
            {"limit": 1, "initial": 10},
            {"floor": 0},
            {"floor": 100, "initial": 50},
            {"violation_threshold": -1.0},
        ],
    )
    def test_invalid_configurations_rejected(self, kwargs):
        with pytest.raises(CraqrError):
            BudgetConfig(**kwargs)


class TestEngineConfig:
    def test_defaults(self):
        config = EngineConfig()
        assert config.grid_side ** 2 == config.grid_cells

    def test_grid_must_be_perfect_square(self):
        with pytest.raises(CraqrError):
            EngineConfig(grid_cells=15)

    def test_grid_must_be_positive(self):
        with pytest.raises(CraqrError):
            EngineConfig(grid_cells=0)

    def test_batch_duration_positive(self):
        with pytest.raises(CraqrError):
            EngineConfig(batch_duration=0.0)

    @pytest.mark.parametrize("duration", [float("nan"), float("inf")])
    def test_batch_duration_must_be_finite(self, duration):
        # Both used to be accepted and fail at the first run_batch, inside
        # the movement sub-stepping.
        with pytest.raises(CraqrError, match="batch_duration must be positive and finite"):
            EngineConfig(batch_duration=duration)

    def test_with_seed_returns_copy(self):
        config = EngineConfig(seed=1)
        other = config.with_seed(2)
        assert other.seed == 2
        assert config.seed == 1
        assert other.grid_cells == config.grid_cells


#: Every configuration that carries a seed, built with just that seed.
SEEDED_CONFIGS = {
    "engine": lambda seed: EngineConfig(seed=seed),
    "world": lambda seed: WorldConfig(Rectangle(0.0, 0.0, 1.0, 1.0), seed=seed),
    "faults": lambda seed: FaultPlan(seed=seed),
}


@pytest.mark.parametrize("config", sorted(SEEDED_CONFIGS))
class TestSeeds:
    @pytest.mark.parametrize("seed", [-5, 1.5, "7", True])
    def test_a_seed_numpy_would_refuse_is_a_config_error(self, config, seed):
        with pytest.raises(CraqrError, match="seed"):
            SEEDED_CONFIGS[config](seed)

    @pytest.mark.parametrize("seed", [None, 0, pytest.param(np.int64(7), id="int64")])
    def test_none_and_non_negative_integers_are_accepted(self, config, seed):
        assert SEEDED_CONFIGS[config](seed).seed is seed


class TestErrorHierarchy:
    @pytest.mark.parametrize(
        "error_type",
        [
            GeometryError,
            PointProcessError,
            EstimationError,
            StreamError,
            QueryError,
            QueryParseError,
            PlanningError,
            BudgetError,
            AcquisitionError,
            StorageError,
            WorkloadError,
        ],
    )
    def test_all_errors_derive_from_craqr_error(self, error_type):
        assert issubclass(error_type, CraqrError)

    def test_estimation_error_is_point_process_error(self):
        assert issubclass(EstimationError, PointProcessError)

    def test_query_parse_error_is_query_error(self):
        assert issubclass(QueryParseError, QueryError)


class TestPackageSurface:
    def test_version_exposed(self):
        assert repro.__version__

    def test_public_api_importable(self):
        for name in repro.__all__:
            assert hasattr(repro, name), f"missing public symbol {name}"

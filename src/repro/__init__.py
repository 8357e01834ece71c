"""CrAQR: crowdsensed data acquisition using multi-dimensional point processes.

A production-quality reproduction of

    S. Sathe, T. Sellis, K. Aberer.
    "On Crowdsensed Data Acquisition using Multi-Dimensional Point Processes."
    ICDE Workshops 2015.

The library provides

* a multi-dimensional point-process substrate (:mod:`repro.pointprocess`),
* the PMAT operators and the CrAQR engine (:mod:`repro.core`),
* a crowdsensing simulator standing in for a real deployment
  (:mod:`repro.sensing`),
* a declarative acquisitional query language (:mod:`repro.query`),
* continuous views — incrementally maintained windowed aggregates, the
  serving API over live query sessions (:mod:`repro.views`),
* baselines, metrics, storage and workload generators used by the
  benchmark harness.

Quick start::

    from repro import CraqrEngine, AcquisitionalQuery
    from repro.workloads import build_rain_temperature_world, default_engine_config
    from repro.geometry import Rectangle

    world = build_rain_temperature_world()
    engine = CraqrEngine(default_engine_config(), world)
    handle = engine.register_query(
        AcquisitionalQuery("rain", Rectangle(0, 0, 2, 2), rate=10.0)
    )
    engine.run(batches=20)
    print(handle.achieved_rate())
"""

from .config import BudgetConfig, CheckpointConfig, EngineConfig
from .errors import (
    CraqrError,
    GeometryError,
    PointProcessError,
    EstimationError,
    StreamError,
    QueryError,
    QueryParseError,
    PlanningError,
    BudgetError,
    AcquisitionError,
    ServeError,
    StorageError,
    ViewError,
    WorkloadError,
)
from .core import (
    AcquisitionalQuery,
    RateSpec,
    CraqrEngine,
    QueryHandle,
    QuerySessionInfo,
    EngineReport,
    FlattenOperator,
    ThinOperator,
    PartitionOperator,
    UnionOperator,
)
from .geometry import Rectangle, RectRegion, CompositeRegion, Grid
from .pointprocess import HomogeneousMDPP, InhomogeneousMDPP, LinearIntensity
from .sensing import SensingWorld, WorldConfig
from .query import parse_query, parse_queries, parse_statements, AttributeCatalog
from .views import ViewFrame, ViewHandle, ViewSessionInfo, ViewSpec

__version__ = "1.0.0"

__all__ = [
    "__version__",
    "BudgetConfig",
    "CheckpointConfig",
    "EngineConfig",
    "CraqrError",
    "GeometryError",
    "PointProcessError",
    "EstimationError",
    "StreamError",
    "QueryError",
    "QueryParseError",
    "PlanningError",
    "BudgetError",
    "AcquisitionError",
    "ServeError",
    "StorageError",
    "ViewError",
    "WorkloadError",
    "AcquisitionalQuery",
    "RateSpec",
    "CraqrEngine",
    "QueryHandle",
    "QuerySessionInfo",
    "EngineReport",
    "FlattenOperator",
    "ThinOperator",
    "PartitionOperator",
    "UnionOperator",
    "Rectangle",
    "RectRegion",
    "CompositeRegion",
    "Grid",
    "HomogeneousMDPP",
    "InhomogeneousMDPP",
    "LinearIntensity",
    "SensingWorld",
    "WorldConfig",
    "parse_query",
    "parse_queries",
    "parse_statements",
    "AttributeCatalog",
    "ViewFrame",
    "ViewHandle",
    "ViewSessionInfo",
    "ViewSpec",
]

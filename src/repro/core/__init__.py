"""The paper's primary contribution: PMAT operators and the CrAQR engine.

* :mod:`repro.core.pmat` — the point-process transformation operators
  (Flatten, Thin, Partition, Union and extension operators).
* :mod:`repro.core.query` — acquisitional queries (attribute, region, rate).
* :mod:`repro.core.topology` — per-grid-cell execution topologies built from
  PMAT operators, with the paper's structural invariants.
* :mod:`repro.core.planner` — topology construction, query insertion and
  deletion (Section V).
* :mod:`repro.core.budget` — budget tuning driven by rate-violation feedback.
* :mod:`repro.core.fabricator` — the crowdsensed stream fabricator.
* :mod:`repro.core.engine` — the CrAQR engine facade tying the pieces to the
  request/response handler and the sensing world.
"""

from .query import AcquisitionalQuery, RateSpec
from .pmat import (
    PMATOperator,
    FlattenOperator,
    ThinOperator,
    PartitionOperator,
    UnionOperator,
    ShiftOperator,
    MarkOperator,
    SampleOperator,
    ClampOperator,
    OutlierFilterOperator,
)
from .topology import AttributeChain, CellTopology, RateLevel
from .planner import QueryPlanner, PlannerStats, QueryUpdate
from .budget import BudgetTuner, BudgetDecision
from .fabricator import StreamFabricator, BatchResult
from .engine import (
    CraqrEngine,
    EngineReport,
    QueryHandle,
    QuerySessionInfo,
    StatementResult,
    ViolationInfo,
)
from .optimizer import (
    TopologyCostModel,
    QueryCostEstimate,
    estimate_query_cost,
    GridGranularityAdvisor,
    GranularityRecommendation,
)
from .merge import TreeMergeBuilder, MergeTree, merge_depth, operator_count

__all__ = [
    "AcquisitionalQuery",
    "RateSpec",
    "PMATOperator",
    "FlattenOperator",
    "ThinOperator",
    "PartitionOperator",
    "UnionOperator",
    "ShiftOperator",
    "MarkOperator",
    "SampleOperator",
    "ClampOperator",
    "OutlierFilterOperator",
    "AttributeChain",
    "CellTopology",
    "RateLevel",
    "QueryPlanner",
    "PlannerStats",
    "QueryUpdate",
    "BudgetTuner",
    "BudgetDecision",
    "StreamFabricator",
    "BatchResult",
    "CraqrEngine",
    "EngineReport",
    "QueryHandle",
    "QuerySessionInfo",
    "StatementResult",
    "ViolationInfo",
    "TopologyCostModel",
    "QueryCostEstimate",
    "estimate_query_cost",
    "GridGranularityAdvisor",
    "GranularityRecommendation",
    "TreeMergeBuilder",
    "MergeTree",
    "merge_depth",
    "operator_count",
]

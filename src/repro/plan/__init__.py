"""Per-batch plan compiler (ROADMAP item 1).

Lowers every registered query's PMAT chain — and the views attached to
each query — into one explicit dataflow graph per batch, runs an optimizer
pass pipeline over it (keep-mask fusion, cross-query CSE, shared view
sorts), and executes the result as a handful of fused numpy kernels that
deliver, for the same acquired batch, exactly the bytes of the per-tuple
operator walk (``StreamFabricator.process_batch``, the reference
``tests/core/test_chain_differential.py`` drives).

Entry points:

* :class:`PlanCache` — the engine's derived-state cache of compiled
  :class:`ChainSteps`, invalidated per changed cell, from which each
  batch's per-attribute :class:`ChainProgram`\\ s are assembled.
* :func:`build_plan_graph` + :func:`optimize` + :func:`render_explain` —
  the ``EXPLAIN`` pipeline.
"""

from .cache import PlanCache
from .compiler import build_plan_graph
from .executor import ChainProgram, ChainSteps
from .explain import render_explain
from .ir import (
    EVENT_SCHEMA,
    MASK_SCHEMA,
    SORT_SCHEMA,
    TUPLE_SCHEMA,
    FusedKernel,
    PlanGraph,
    PlanNode,
)
from .passes import (
    annotate_merge_structure,
    fuse_keep_masks,
    optimize,
    share_common_subplans,
    share_view_sorts,
)

__all__ = [
    "PlanCache",
    "build_plan_graph",
    "ChainProgram",
    "ChainSteps",
    "render_explain",
    "PlanGraph",
    "PlanNode",
    "FusedKernel",
    "TUPLE_SCHEMA",
    "EVENT_SCHEMA",
    "MASK_SCHEMA",
    "SORT_SCHEMA",
    "optimize",
    "fuse_keep_masks",
    "share_common_subplans",
    "share_view_sorts",
    "annotate_merge_structure",
]

"""Plan intermediate representation: one dataflow graph per engine batch.

ROADMAP open item 1 asks for the whole per-batch computation — fabricator
bucketing, per-cell PMAT chains, per-query merge, view folds — as one
explicit dataflow graph instead of a cascade of imperative
``process_batch`` calls.  This module is that graph's vocabulary:

* :class:`PlanNode` — a pure-data node (kind, label, column schema, input
  edges, the set of queries sharing it, and kernel details contributed by
  the operators' ``lower_ir`` methods).
* :class:`PlanGraph` — the node container plus the sharing/fusion
  annotations the optimizer passes attach.

The graph is *descriptive*: it is what ``EXPLAIN`` renders and what the IR
golden tests pin.  Execution uses the parallel
:class:`~repro.plan.executor.ChainSteps` objects, which hold live
operator references and are assembled each batch into one
:class:`~repro.plan.executor.ChainProgram` per attribute; compiler and
executor lower from the same chain structure, so the two cannot drift
apart structurally.

Node kinds
----------
``source``
    One (cell, attribute) column batch produced by the fabricator's map
    phase.
``estimate``
    The flatten operator's intensity estimation over the source's event
    coordinates (MLE, online SGD, or a fixed model).
``mask``
    A boolean keep-decision: flatten Eq. (3) retention, thin Bernoulli
    retention, or partition containment.  Mask nodes compose; the
    keep-mask fusion pass groups each chain's masks into one fused kernel
    that the executor runs as composed row indices.
``gather``
    The single per-tap column gather materialising a delivered batch.
``union``
    A query's merge stage (Fig. 2c) collecting its per-cell gathers.
``sink``
    The query's result buffer ingest.
``view-sort``
    The shared pane/group lexsort feeding every view with the same
    ``(slide, group_by)`` signature on one query.
``view-sink``
    One continuous view's fold into its open panes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Tuple

#: Column schema of tuple batches flowing between source, gather and sink.
TUPLE_SCHEMA: Tuple[str, ...] = ("t", "x", "y", "value", "sensor_id", "tuple_id")
#: Schema of the event-coordinate projection fed to intensity estimation.
EVENT_SCHEMA: Tuple[str, ...] = ("t", "x", "y")
#: Schema of a boolean keep-mask (aligned with the source rows).
MASK_SCHEMA: Tuple[str, ...] = ("keep",)
#: Schema of a view's pane/group sort (order plus sorted pane/group codes).
SORT_SCHEMA: Tuple[str, ...] = ("order", "pane", "group")


@dataclass
class PlanNode:
    """One node of the per-batch dataflow graph."""

    node_id: int
    kind: str
    label: str
    schema: Tuple[str, ...]
    inputs: Tuple[int, ...] = ()
    queries: FrozenSet[int] = frozenset()
    details: Dict[str, object] = field(default_factory=dict)

    @property
    def shared(self) -> bool:
        """Whether more than one query rides on this node."""
        return len(self.queries) > 1


@dataclass
class FusedKernel:
    """A group of mask nodes the executor runs as one composed pass."""

    name: str
    node_ids: Tuple[int, ...]
    description: str = ""


class PlanGraph:
    """The compiled dataflow graph of one engine batch.

    Nodes are appended in deterministic lowering order (cells in planner
    order, chains in cell order, levels by descending rate, then unions,
    sinks and views), so node ids are reproducible for a given topology
    and the golden tests can pin them.
    """

    def __init__(self) -> None:
        self._nodes: List[PlanNode] = []
        self.kernels: List[FusedKernel] = []
        #: optimizer annotations: human-readable notes per pass
        self.notes: List[str] = []
        #: CSE pricing: estimated per-batch operator-tuple cost saved by
        #: sharing, in the TopologyCostModel's cost_per_operator_tuple units
        self.shared_cost_saved: float = 0.0

    # ------------------------------------------------------------------
    def add(
        self,
        kind: str,
        label: str,
        schema: Tuple[str, ...],
        *,
        inputs: Tuple[int, ...] = (),
        queries: FrozenSet[int] = frozenset(),
        **details: object,
    ) -> PlanNode:
        """Append a node and return it."""
        node = PlanNode(
            node_id=len(self._nodes),
            kind=kind,
            label=label,
            schema=schema,
            inputs=tuple(inputs),
            queries=frozenset(queries),
            details=details,
        )
        self._nodes.append(node)
        return node

    @property
    def nodes(self) -> List[PlanNode]:
        """All nodes in id order."""
        return list(self._nodes)

    def node(self, node_id: int) -> PlanNode:
        """Node lookup by id."""
        return self._nodes[node_id]

    def __len__(self) -> int:
        return len(self._nodes)

    # ------------------------------------------------------------------
    def nodes_of_kind(self, kind: str) -> List[PlanNode]:
        """All nodes of one kind, in id order."""
        return [node for node in self._nodes if node.kind == kind]

    def nodes_for_query(self, query_id: int) -> List[PlanNode]:
        """Every node the query rides on, in id order."""
        return [node for node in self._nodes if query_id in node.queries]

"""Lowering: live planner state -> plan IR graph + executable programs.

Both artefacts derive from the same chain structure:

* :func:`assemble_programs` produces the per-attribute
  :class:`~repro.plan.executor.ChainProgram` objects the engine runs, each
  over the compiled steps of that attribute's (cell, attribute) chains;
* :func:`build_plan_graph` produces the pure-data :class:`PlanGraph` that
  the optimizer passes annotate and ``EXPLAIN`` renders.

Lowering order is deterministic — cells in planner (insertion) order,
chains in cell order, levels by descending rate, taps in declaration
order, then per-query unions and sinks in registration order, then views —
so node ids are stable for a given topology.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Tuple

from .executor import ChainProgram, ChainSteps
from .ir import (
    EVENT_SCHEMA,
    MASK_SCHEMA,
    PlanGraph,
    SORT_SCHEMA,
    TUPLE_SCHEMA,
)

CellKey = Tuple[int, int]


def assemble_programs(
    planner, steps_for: Callable[[CellKey, object, str], ChainSteps]
) -> Dict[str, ChainProgram]:
    """One program per attribute from every materialised chain's steps.

    Walks the chains in the object path's order (cells in planner order, a
    cell's chains in attribute order) — the order deliveries are emitted in
    — and asks ``steps_for(cell key, topology, attribute)`` for each
    chain's compiled steps.
    """
    chains: Dict[str, List[Tuple[int, ChainSteps]]] = {}
    position = 0
    for key in planner.materialized_cells:
        topology = planner.cell_topology(key)
        for attribute in topology.attributes:
            chains.setdefault(attribute, []).append(
                (position, steps_for(key, topology, attribute))
            )
            position += 1
    return {
        attribute: ChainProgram(attribute, attribute_chains)
        for attribute, attribute_chains in chains.items()
    }


def _details(ir: Dict[str, object]) -> Dict[str, object]:
    """Operator IR details minus the keys the node carries structurally."""
    return {k: v for k, v in ir.items() if k not in ("kind",)}


def _lower_chain(
    graph: PlanGraph,
    chain,
    cell_key: CellKey,
    gathers_by_query: Dict[int, List[int]],
) -> None:
    attribute = chain.attribute
    chain_tag = f"{attribute}@{cell_key}"
    queries = frozenset(chain.query_ids)
    source = graph.add(
        "source",
        f"source:{chain_tag}",
        TUPLE_SCHEMA,
        queries=queries,
        cell=str(cell_key),
        attribute=attribute,
    )
    flatten_ir = chain.flatten.lower_ir()
    estimate = graph.add(
        "estimate",
        f"estimate:{chain_tag}",
        EVENT_SCHEMA,
        inputs=(source.node_id,),
        queries=queries,
        estimator=flatten_ir["estimator"],
        chain=chain_tag,
    )
    flatten_node = graph.add(
        "mask",
        flatten_ir["name"],
        MASK_SCHEMA,
        inputs=(source.node_id, estimate.node_id),
        queries=queries,
        chain=chain_tag,
        **_details(flatten_ir),
    )

    levels = chain.levels
    # A thin level is shared by every query tapping it or any lower level.
    suffix_queries: List[frozenset] = [frozenset()] * len(levels)
    running: set = set()
    for index in range(len(levels) - 1, -1, -1):
        running = running | {tap.query_id for tap in levels[index].taps}
        suffix_queries[index] = frozenset(running)

    upstream = flatten_node
    for level_index, level in enumerate(levels):
        thin_ir = level.thin.lower_ir()
        thin_node = graph.add(
            "mask",
            thin_ir["name"],
            MASK_SCHEMA,
            inputs=(upstream.node_id,),
            queries=suffix_queries[level_index],
            chain=chain_tag,
            level=level_index,
            **_details(thin_ir),
        )
        for tap in level.taps:
            tap_queries = frozenset({tap.query_id})
            final_mask = thin_node
            if tap.partition is not None:
                partition_ir = tap.partition.lower_ir()
                final_mask = graph.add(
                    "mask",
                    partition_ir["name"],
                    MASK_SCHEMA,
                    inputs=(thin_node.node_id,),
                    queries=tap_queries,
                    chain=chain_tag,
                    level=level_index,
                    **_details(partition_ir),
                )
            gather = graph.add(
                "gather",
                f"gather:q{tap.query_id}@{cell_key}",
                TUPLE_SCHEMA,
                inputs=(source.node_id, final_mask.node_id),
                queries=tap_queries,
                chain=chain_tag,
                cell=str(cell_key),
            )
            gathers_by_query.setdefault(tap.query_id, []).append(gather.node_id)
        upstream = thin_node


def build_plan_graph(planner, views: Iterable = ()) -> PlanGraph:
    """Lower the planner's live topology (plus views) into a fresh graph.

    The result is unoptimized; run it through
    :func:`repro.plan.passes.optimize` to attach keep-mask fusion, CSE and
    shared-sort annotations.
    """
    graph = PlanGraph()
    gathers_by_query: Dict[int, List[int]] = {}
    for key in planner.materialized_cells:
        topology = planner.cell_topology(key)
        for attribute in topology.attributes:
            _lower_chain(graph, topology.chain(attribute), key, gathers_by_query)

    sink_by_query: Dict[int, int] = {}
    for query in planner.queries:
        union_op = planner.union_operator(query.query_id)
        union_ir = union_op.lower_ir()
        union_node = graph.add(
            "union",
            union_ir["name"],
            TUPLE_SCHEMA,
            inputs=tuple(gathers_by_query.get(query.query_id, ())),
            queries=frozenset({query.query_id}),
            **_details(union_ir),
        )
        sink = graph.add(
            "sink",
            f"buffer:{query.label}",
            TUPLE_SCHEMA,
            inputs=(union_node.node_id,),
            queries=frozenset({query.query_id}),
            label_query=query.label,
            paused=planner.is_paused(query.query_id),
        )
        sink_by_query[query.query_id] = sink.node_id

    _lower_views(graph, views, sink_by_query)
    return graph


def _lower_views(graph: PlanGraph, views: Iterable, sink_by_query: Dict[int, int]) -> None:
    """Views become sort + fold sinks; one sort per (query, slide, group_by).

    The shared sort node is the lowering of the executor's per-query
    shared-lexsort cache: every view with the same pane/group signature on
    one query folds from the same sorted order.
    """
    sort_nodes: Dict[Tuple[int, float, str], int] = {}
    for view in views:
        if not view.is_active:
            continue
        sink_id = sink_by_query.get(view.query_id)
        if sink_id is None:
            continue
        spec = view.spec
        signature = (view.query_id, float(spec.slide_duration), spec.group_by)
        sort_id = sort_nodes.get(signature)
        if sort_id is None:
            sort_node = graph.add(
                "view-sort",
                f"sort:q{view.query_id}/slide={spec.slide_duration:g}/{spec.group_by}",
                SORT_SCHEMA,
                inputs=(sink_id,),
                queries=frozenset({view.query_id}),
                slide=float(spec.slide_duration),
                group_by=spec.group_by,
            )
            sort_id = sort_node.node_id
            sort_nodes[signature] = sort_id
        graph.add(
            "view-sink",
            f"view:{view.name}",
            TUPLE_SCHEMA,
            inputs=(sort_id,),
            queries=frozenset({view.query_id}),
            aggregate=spec.aggregate.upper(),
            window=float(spec.window),
            group_by=spec.group_by,
        )

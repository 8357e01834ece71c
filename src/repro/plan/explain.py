"""EXPLAIN rendering: the compiled graph as text.

``EXPLAIN <query|view>`` resolves its target to a query, lowers the
current topology through the compiler and pass pipeline, and renders the
slice of the graph the target rides on: nodes with their schemas, the
fused kernel each mask belongs to, which queries share each node, the
merge-stage structure, and the seed-era cost-model estimate.
"""

from __future__ import annotations

from typing import Dict, Optional

from .ir import PlanGraph


def _query_marker(node, query_id: int) -> str:
    if not node.shared:
        return ""
    others = sorted(q for q in node.queries if q != query_id)
    return f"  [shared with q{',q'.join(str(q) for q in others)}]"


def render_explain(
    graph: PlanGraph,
    *,
    query_id: int,
    query_label: str,
    view_name: Optional[str] = None,
    cost_estimate=None,
) -> str:
    """Render the plan slice for one query (optionally focussed on a view)."""
    target = f"view {view_name!r} on query {query_label!r}" if view_name else f"query {query_label!r}"
    lines = [
        f"EXPLAIN {target} (q{query_id})",
        "execution mode: compiled (fused kernels)",
        "",
    ]
    nodes = graph.nodes_for_query(query_id)
    if view_name is not None:
        view_label = f"view:{view_name}"
        keep_kinds = {"source", "estimate", "mask", "gather", "union", "sink"}
        nodes = [
            node
            for node in nodes
            if node.kind in keep_kinds
            or node.kind == "view-sink" and node.label == view_label
            or node.kind == "view-sort"
            and any(
                sink.label == view_label and node.node_id in sink.inputs
                for sink in graph.nodes_of_kind("view-sink")
            )
        ]
    lines.append(f"dataflow ({len(nodes)} nodes):")
    for node in nodes:
        inputs = (
            " <- " + ",".join(f"#{i}" for i in node.inputs) if node.inputs else ""
        )
        kernel = node.details.get("kernel")
        kernel_tag = f"  {{{kernel}}}" if kernel else ""
        shares = node.details.get("shares_mask_with")
        shares_tag = f"  [predicate shared with #{shares}]" if shares is not None else ""
        lines.append(
            f"  #{node.node_id:<3} {node.kind:<9} {node.label}"
            f"  ({', '.join(node.schema)}){inputs}"
            f"{kernel_tag}{shares_tag}{_query_marker(node, query_id)}"
        )

    kernel_names = {
        node.details.get("kernel")
        for node in nodes
        if node.details.get("kernel") is not None
    }
    kernels = [kernel for kernel in graph.kernels if kernel.name in kernel_names]
    if kernels:
        lines.append("")
        lines.append(f"fused kernels ({len(kernels)}):")
        for kernel in kernels:
            lines.append(
                f"  {kernel.name}: nodes "
                f"{','.join(f'#{i}' for i in kernel.node_ids)} — {kernel.description}"
            )

    union_nodes = [node for node in nodes if node.kind == "union"]
    for node in union_nodes:
        fan_in = node.details.get("fan_in")
        if fan_in is None:
            continue
        lines.append("")
        lines.append(
            f"merge stage: flat union over {fan_in} per-cell streams"
        )
        depth = node.details.get("tree_depth")
        operators = node.details.get("tree_operators")
        if depth is not None:
            lines.append(
                f"  tree alternative (fan-in 2): depth {depth}, "
                f"{operators} union operators"
            )

    if cost_estimate is not None:
        lines.append("")
        lines.append(
            "cost estimate (steady-state, seed cost model): "
            f"{cost_estimate.total:.2f} units/batch over "
            f"{cost_estimate.cells} cells "
            f"({cost_estimate.requests_per_batch:.1f} requests, "
            f"{cost_estimate.operator_tuples_per_batch:.1f} operator-tuples, "
            f"over-acquisition {100.0 * cost_estimate.over_acquisition:.1f}%)"
        )
    if graph.shared_cost_saved:
        lines.append(
            f"sharing saves ~{graph.shared_cost_saved:.3f} cost units/batch "
            "across all queries (CSE)"
        )
    if graph.notes:
        lines.append("")
        lines.append("optimizer notes:")
        for note in graph.notes:
            lines.append(f"  - {note}")
    return "\n".join(lines)

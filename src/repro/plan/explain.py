"""EXPLAIN rendering: the chains a query runs on, as text.

``EXPLAIN <query|view>`` resolves its target to a query and walks the
planner's live chains in the order
:func:`~repro.plan.cache.assemble_programs` hands them to the attribute
programs (cells in planner order, a cell's chains in attribute order).
For every chain the query taps it prints the Flatten, each Thin level
down to the query's tap, and the tap's Partition, each with the other
queries riding on it; then the query's flat merge, its views and the
seed-era cost-model estimate.  It reads the chain objects, not the plan
cache, so it compiles nothing.
"""

from __future__ import annotations

from typing import Iterable, Optional


def _shared(query_ids: Iterable[int], query_id: int, what: str = "shared") -> str:
    others = sorted(set(query_ids) - {query_id})
    if not others:
        return ""
    return f"  [{what} with q{',q'.join(str(q) for q in others)}]"


def _chain_lines(chain, query_id: int) -> list:
    flatten = chain.flatten
    lines = [
        f"  {flatten.name}  target {flatten.target_rate:g}/s, "
        f"estimator {flatten.estimator}{_shared(chain.query_ids, query_id)}"
    ]
    # Levels run by descending rate; a level is shared by every query
    # tapping it or a lower one.
    below = set(chain.query_ids)
    for level in chain.levels:
        thin = level.thin
        lines.append(
            f"    {thin.name}  {thin.rate_in:g}->{thin.rate_out:g}"
            f"{_shared(below, query_id)}"
        )
        tap = next((tap for tap in level.taps if tap.query_id == query_id), None)
        if tap is not None:
            if tap.partition is not None:
                # The executor evaluates equal containment predicates on a
                # level once.
                signature = tap.partition.mask_signature()
                twins = [
                    other.query_id
                    for other in level.taps
                    if other.partition is not None
                    and other.partition.mask_signature() == signature
                ]
                lines.append(
                    f"    {tap.partition.name}  mask {signature}"
                    f"{_shared(twins, query_id, 'predicate shared')}"
                )
            break
        below -= {tap.query_id for tap in level.taps}
    return lines


def render_explain(
    planner,
    query,
    views: Iterable,
    cost_estimate,
    *,
    view_name: Optional[str] = None,
) -> str:
    """Render the chains, merge and views of one query (or one of its views)."""
    query_id = query.query_id
    target = f"view {view_name!r} on query {query.label!r}" if view_name else f"query {query.label!r}"
    chain_lines = []
    streams = 0
    for key in planner.materialized_cells:
        topology = planner.cell_topology(key)
        for attribute in topology.attributes:
            chain = topology.chain(attribute)
            if query_id in chain.query_ids:
                streams += 1
                chain_lines.extend(_chain_lines(chain, query_id))
    paused = " (paused: deliveries suppressed)" if planner.is_paused(query_id) else ""
    lines = [
        f"EXPLAIN {target} (q{query_id})",
        "",
        f"chains ({streams}):",
        *chain_lines,
        "",
        f"merge stage: {planner.union_operator(query_id).name} flat union "
        f"over {streams} per-cell streams{paused}",
    ]

    # A quarantined view is detached and folds nothing, so it is not
    # listed; each listed view sorts its query's batch alone.
    shown = [
        view
        for view in views
        if view.query_id == query_id and view.is_active and view_name in (None, view.name)
    ]
    if shown:
        lines += ["", f"views ({len(shown)}):"]
    for view in shown:
        spec = view.spec
        lines.append(
            f"  view:{view.name}  {spec.describe()}  "
            f"sort (slide={spec.slide_duration:g}, {spec.group_by})"
        )

    lines += [
        "",
        "cost estimate (steady-state, seed cost model): "
        f"{cost_estimate.total:.2f} units/batch over "
        f"{cost_estimate.cells} cells "
        f"({cost_estimate.requests_per_batch:.1f} requests, "
        f"{cost_estimate.operator_tuples_per_batch:.1f} operator-tuples, "
        f"over-acquisition {100.0 * cost_estimate.over_acquisition:.1f}%)",
    ]
    return "\n".join(lines)

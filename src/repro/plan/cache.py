"""Plan cache: compiled chain steps keyed on live topology identity.

The cache is *derived state*: it holds no RNG, no counters, no results —
only the step structure of each chain.  It is therefore excluded from
engine checkpoints (``CraqrEngine.__getstate__`` nulls it, like the crash
injector) and rebuilt lazily after a restore.

Invalidation is O(changed cells): an entry for ``(cell_key, attribute)``
stays valid while the cell's topology object, its rebuild counter and the
chain object are all the ones the steps were compiled from.  ALTER /
STOP / DROP only rebuild the cells they touch (the planner's incremental
replanning), so only those entries recompile; pausing a query changes no
topology at all (delivery-time suppression), so the cache is untouched.
Each batch's attribute programs are assembled from the entries — a list
append per chain, not a compile.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Tuple

from .executor import ChainProgram, ChainSteps

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


@dataclass
class _CacheEntry:
    topology: object
    rebuilds: int
    chain: object
    steps: ChainSteps


class PlanCache:
    """Per-(cell, attribute) compiled chain steps with incremental rebuilds."""

    def __init__(self) -> None:
        self._entries: Dict[Tuple[CellKey, str], _CacheEntry] = {}
        #: lifetime number of chain compilations (regression-tested by the
        #: churn-storm test: must stay O(changed cells), not O(all cells))
        self.compiles = 0
        #: lifetime number of cache hits
        self.reuses = 0

    def __len__(self) -> int:
        return len(self._entries)

    def programs_for(self, planner) -> Dict[str, ChainProgram]:
        """This batch's attribute programs, recompiling stale chains only.

        Entries whose topology was rebuilt (or replaced) since compilation
        are replaced, entries for dropped cells/chains are pruned.
        """
        live = set()

        def steps_for(key: CellKey, topology, attribute: str) -> ChainSteps:
            chain = topology.chain(attribute)
            cache_key = (key, attribute)
            live.add(cache_key)
            entry = self._entries.get(cache_key)
            if (
                entry is not None
                and entry.topology is topology
                and entry.rebuilds == topology.rebuilds
                and entry.chain is chain
            ):
                self.reuses += 1
                return entry.steps
            steps = ChainSteps(chain)
            self._entries[cache_key] = _CacheEntry(
                topology=topology,
                rebuilds=topology.rebuilds,
                chain=chain,
                steps=steps,
            )
            self.compiles += 1
            return steps

        programs = assemble_programs(planner, steps_for)
        for cache_key in list(self._entries):
            if cache_key not in live:
                del self._entries[cache_key]
        return programs

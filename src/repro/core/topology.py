"""Per-grid-cell execution topologies built from PMAT operators.

Section V of the paper stores, under each grid-cell key of a hashmap, "the
execution topology that is responsible for processing all the tuples that
are crowdsensed in R(q,r)".  :class:`CellTopology` is that value.  For every
attribute with at least one query overlapping the cell it holds an
:class:`AttributeChain`:

    entry --(attribute filter)--> F --> T(rate_1) --> T(rate_2) --> ...

where the Flatten operator is always first ("the first operator is always
the F-operator"), the Thin operators are sorted by descending output rate
("the highest rate T-operator is closest to the F-operator"), the Flatten
output rate is strictly greater than the first Thin's output rate, and a
query taps the stream whose rate equals its requested rate — through a
Partition operator when the query only partially overlaps the cell.

The chain is (re)built canonically whenever the set of queries for the cell
changes; the canonical form is exactly the fixed point of the paper's
incremental insertion/deletion rules (sorted T-operators, no two consecutive
T-operators without a branching point between them), so the structural
invariants hold by construction and are asserted in
:meth:`AttributeChain.check_invariants`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from ..errors import PlanningError
from ..geometry import GridCell, Region
from ..rng import ensure_rng
from ..streams import (
    CallbackSink,
    FilterOperator,
    SensorTuple,
    StreamTopology,
    TupleBatch,
)
from .pmat import FlattenOperator, PartitionOperator, ThinOperator
from .query import AcquisitionalQuery

#: Callback the engine supplies for delivering a tuple to a query's stream.
DeliverFn = Callable[[int, SensorTuple], None]

#: Columnar counterpart: delivers a whole batch of one query's tuples.
DeliverBatchFn = Callable[[int, TupleBatch], None]

#: Factor by which the Flatten output rate exceeds the highest query rate,
#: satisfying the paper's "output rate of the F-operator is ... greater than
#: the output rate of the first T-operator".
DEFAULT_HEADROOM = 1.25


class AttributeRoute:
    """Routing predicate keeping only one attribute's tuples.

    A plain class (not a lambda) so a built topology — and with it the
    whole engine — can be pickled into a checkpoint.
    """

    __slots__ = ("attribute",)

    def __init__(self, attribute: str) -> None:
        self.attribute = attribute

    def __call__(self, item: SensorTuple) -> bool:
        return item.attribute == self.attribute


class QueryDelivery:
    """Delivers one query's tuples to a ``(query_id, item)`` handler.

    Binds the query id to a two-argument delivery callable, exactly like
    the ``lambda item, qid=...: deliver(qid, item)`` closures it replaces —
    but picklable, so sinks survive engine checkpointing.
    """

    __slots__ = ("deliver", "query_id")

    def __init__(self, deliver: DeliverFn, query_id: int) -> None:
        self.deliver = deliver
        self.query_id = query_id

    def __call__(self, item: SensorTuple) -> None:
        self.deliver(self.query_id, item)


class DiscardRecording:
    """Forwards one operator's discarded tuples to a discard recorder."""

    __slots__ = ("recorder", "operator_name")

    def __init__(self, recorder: Callable[[str, SensorTuple], None], operator_name: str) -> None:
        self.recorder = recorder
        self.operator_name = operator_name

    def __call__(self, item: SensorTuple) -> None:
        self.recorder(self.operator_name, item)


@dataclass
class QueryTap:
    """Where one query taps the chain.

    Attributes
    ----------
    query_id:
        The tapping query.
    overlap:
        The part of the query region inside this cell.
    partition:
        The Partition operator carving the overlap out of the cell, or
        ``None`` when the query covers the whole cell ("P-operators are
        required only ... since Q1 and Q2 perfectly overlap the grid cells").
    sink:
        The callback sink forwarding tuples to the query's merge stage.
    """

    query_id: int
    overlap: Region
    partition: Optional[PartitionOperator]
    sink: CallbackSink


@dataclass
class RateLevel:
    """One Thin stage of the chain and the queries tapping it."""

    rate: float
    thin: ThinOperator
    taps: List[QueryTap] = field(default_factory=list)


@dataclass
class _QueryEntry:
    query: AcquisitionalQuery
    overlap: Region
    full_overlap: bool


class AttributeChain:
    """The F -> T... chain for one attribute within one cell topology."""

    def __init__(
        self,
        attribute: str,
        cell: GridCell,
        *,
        headroom: float = DEFAULT_HEADROOM,
        batch_duration: float = 1.0,
        online_estimation: bool = False,
        discard_recorder: Optional[Callable[[str, SensorTuple], None]] = None,
        report_history: Optional[int] = None,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        if headroom <= 1.0:
            raise PlanningError(
                "the Flatten headroom must exceed 1 so the F output rate is "
                "strictly greater than the first T output rate"
            )
        self._attribute = attribute
        self._cell = cell
        self._headroom = headroom
        self._batch_duration = batch_duration
        self._online = online_estimation
        self._discard_recorder = discard_recorder
        self._report_history = report_history
        self._rng = ensure_rng(rng)
        self._entries: Dict[int, _QueryEntry] = {}
        self._flatten: Optional[FlattenOperator] = None
        self._levels: List[RateLevel] = []
        self._router: Optional[FilterOperator] = None

    # ------------------------------------------------------------------
    @property
    def attribute(self) -> str:
        """The attribute this chain serves."""
        return self._attribute

    @property
    def cell(self) -> GridCell:
        """The grid cell this chain serves."""
        return self._cell

    @property
    def flatten(self) -> FlattenOperator:
        """The chain's Flatten operator (present after the first build)."""
        if self._flatten is None:
            raise PlanningError("the chain has not been built yet")
        return self._flatten

    @property
    def levels(self) -> List[RateLevel]:
        """The Thin levels, sorted by descending rate."""
        return list(self._levels)

    @property
    def router(self) -> Optional[FilterOperator]:
        """The attribute filter at the chain's head (``None`` before build)."""
        return self._router

    @property
    def query_ids(self) -> List[int]:
        """Ids of the queries currently routed through this chain."""
        return list(self._entries.keys())

    @property
    def is_empty(self) -> bool:
        """Whether no query uses this chain any more."""
        return not self._entries

    @property
    def max_rate(self) -> float:
        """Highest requested rate among the chain's queries."""
        if not self._entries:
            raise PlanningError("an empty chain has no maximum rate")
        return max(entry.query.rate for entry in self._entries.values())

    @property
    def flatten_rate(self) -> float:
        """The Flatten output rate (headroom above the highest query rate)."""
        return self._headroom * self.max_rate

    def last_violation_percent(self) -> float:
        """``N_v`` reported by the Flatten operator for the last batch."""
        if self._flatten is None:
            return 0.0
        return self._flatten.last_violation_percent

    # ------------------------------------------------------------------
    # Query membership
    # ------------------------------------------------------------------
    def add_query(self, query: AcquisitionalQuery, overlap: Region) -> None:
        """Register a query whose region overlaps this cell."""
        if query.attribute != self._attribute:
            raise PlanningError(
                f"query {query.label} acquires '{query.attribute}', not "
                f"'{self._attribute}'"
            )
        if query.query_id in self._entries:
            raise PlanningError(f"query {query.label} is already in this chain")
        full = overlap.covers(self._cell.region) and self._cell.region.covers(overlap)
        self._entries[query.query_id] = _QueryEntry(query, overlap, full)

    def remove_query(self, query_id: int) -> None:
        """Deregister a query."""
        if query_id not in self._entries:
            raise PlanningError(f"query id {query_id} is not in this chain")
        del self._entries[query_id]

    def has_query(self, query_id: int) -> bool:
        """Whether the query is routed through this chain."""
        return query_id in self._entries

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def build(self, topology: StreamTopology, deliver: DeliverFn) -> None:
        """(Re)build the chain's operators inside ``topology``.

        The chain is wired from the topology's entry stream: an attribute
        filter routes only this attribute's tuples into the Flatten operator,
        then Thin operators follow in descending-rate order, and each query's
        tap (optionally behind a Partition) subscribes to the stream whose
        rate matches the query's requested rate.
        """
        if not self._entries:
            raise PlanningError("cannot build a chain with no queries")
        attribute = self._attribute
        cell_key = self._cell.key

        self._router = FilterOperator(
            AttributeRoute(attribute),
            name=f"route:{attribute}@{cell_key}",
        )
        topology.add_operator(self._router, upstream=topology.entry)

        self._flatten = FlattenOperator(
            self.flatten_rate,
            region=self._cell.region,
            attribute=attribute,
            batch_duration=self._batch_duration,
            online=self._online,
            emit_discarded=self._discard_recorder is not None,
            history_batches=self._report_history,
            name=f"F:{attribute}@{cell_key}",
            rng=np.random.default_rng(self._rng.integers(0, 2 ** 63 - 1)),
        )
        topology.add_operator(self._flatten, upstream=self._router.output)
        if self._discard_recorder is not None:
            # "If necessary, the discarded tuples can be stored separately."
            self._flatten.discarded_output.subscribe(
                DiscardRecording(self._discard_recorder, self._flatten.name)
            )

        # Distinct requested rates, descending; equal-rate queries share a level.
        distinct_rates = sorted(
            {entry.query.rate for entry in self._entries.values()}, reverse=True
        )
        self._levels = []
        upstream_stream = self._flatten.output
        upstream_rate = self.flatten_rate
        for level_index, rate in enumerate(distinct_rates):
            thin = ThinOperator(
                upstream_rate,
                rate,
                attribute=attribute,
                region=self._cell.region,
                name=f"T:{attribute}@{cell_key}#{level_index}",
                rng=np.random.default_rng(self._rng.integers(0, 2 ** 63 - 1)),
            )
            topology.add_operator(thin, upstream=upstream_stream)
            level = RateLevel(rate=rate, thin=thin)
            for entry in self._entries.values():
                if entry.query.rate != rate:
                    continue
                level.taps.append(
                    self._build_tap(topology, thin, entry, deliver, level_index)
                )
            self._levels.append(level)
            upstream_stream = thin.output
            upstream_rate = rate

    def _build_tap(
        self,
        topology: StreamTopology,
        thin: ThinOperator,
        entry: _QueryEntry,
        deliver: DeliverFn,
        level_index: int,
    ) -> QueryTap:
        query = entry.query
        sink = CallbackSink(
            QueryDelivery(deliver, query.query_id),
            name=f"deliver:{query.label}@{self._cell.key}",
        )
        partition: Optional[PartitionOperator] = None
        if entry.full_overlap:
            sink.attach(thin.output)
        else:
            partition = PartitionOperator(
                [entry.overlap],
                attribute=self._attribute,
                keep_rest=False,
                name=f"P:{query.label}@{self._cell.key}#{level_index}",
                rng=np.random.default_rng(self._rng.integers(0, 2 ** 63 - 1)),
            )
            topology.add_operator(partition, upstream=thin.output)
            sink.attach(partition.output_for(0))
        return QueryTap(
            query_id=query.query_id,
            overlap=entry.overlap,
            partition=partition,
            sink=sink,
        )

    # ------------------------------------------------------------------
    # Invariants (the paper's structural rules, checked by tests)
    # ------------------------------------------------------------------
    def check_invariants(self) -> None:
        """Assert the paper's structural rules hold for the built chain.

        Raises
        ------
        PlanningError
            If any invariant is violated.
        """
        if self._flatten is None:
            raise PlanningError("the chain has not been built yet")
        rates = [level.rate for level in self._levels]
        if any(earlier <= later for earlier, later in zip(rates, rates[1:])):
            raise PlanningError("Thin operators must be sorted by strictly descending rate")
        if rates and self._flatten.target_rate <= rates[0]:
            raise PlanningError(
                "the Flatten output rate must exceed the first Thin output rate"
            )
        for level in self._levels:
            if not level.taps:
                raise PlanningError(
                    "two consecutive Thin operators without a branching point "
                    "must be merged into a single Thin operator"
                )
        for earlier, later in zip(self._levels, self._levels[1:]):
            if abs(later.thin.rate_in - earlier.rate) > 1e-9:
                raise PlanningError("consecutive Thin operators must chain their rates")

    def operator_count(self) -> int:
        """Number of PMAT operators in the chain (router excluded)."""
        count = 1  # the Flatten operator
        for level in self._levels:
            count += 1  # the Thin operator
            count += sum(1 for tap in level.taps if tap.partition is not None)
        return count


class CellTopology:
    """The execution topology stored under one grid-cell key.

    Owns one :class:`AttributeChain` per attribute with queries overlapping
    the cell, plus the underlying :class:`StreamTopology` the chains are
    wired into.  Whenever the query set changes the topology is rebuilt
    canonically (see :class:`AttributeChain`).
    """

    def __init__(
        self,
        cell: GridCell,
        *,
        batch_duration: float = 1.0,
        headroom: float = DEFAULT_HEADROOM,
        online_estimation: bool = False,
        discard_recorder: Optional[Callable[[str, SensorTuple], None]] = None,
        report_history: Optional[int] = None,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        self._cell = cell
        self._batch_duration = batch_duration
        self._headroom = headroom
        self._online = online_estimation
        self._discard_recorder = discard_recorder
        self._report_history = report_history
        self._rng = ensure_rng(rng)
        self._chains: Dict[str, AttributeChain] = {}
        self._topology = StreamTopology(name=f"cell{cell.key}")
        self._rebuilds = 0

    # ------------------------------------------------------------------
    @property
    def cell(self) -> GridCell:
        """The grid cell this topology serves."""
        return self._cell

    @property
    def key(self) -> Tuple[int, int]:
        """The hashmap key ``(q, r)``."""
        return self._cell.key

    @property
    def attributes(self) -> List[str]:
        """Attributes with an active chain in this cell."""
        return list(self._chains.keys())

    @property
    def rebuilds(self) -> int:
        """How many times the topology has been rebuilt."""
        return self._rebuilds

    @property
    def is_empty(self) -> bool:
        """Whether no query is routed through this cell any more."""
        return not self._chains

    def chain(self, attribute: str) -> AttributeChain:
        """The chain serving ``attribute``."""
        try:
            return self._chains[attribute]
        except KeyError:
            raise PlanningError(
                f"no chain for attribute '{attribute}' in cell {self._cell.key}"
            ) from None

    def query_ids(self) -> List[int]:
        """Ids of all queries routed through this cell."""
        ids: List[int] = []
        for chain in self._chains.values():
            ids.extend(chain.query_ids)
        return ids

    # ------------------------------------------------------------------
    # Query membership (rebuild must be called afterwards)
    # ------------------------------------------------------------------
    def add_query(self, query: AcquisitionalQuery, overlap: Region) -> None:
        """Register a query overlapping this cell."""
        chain = self._chains.get(query.attribute)
        if chain is None:
            chain = AttributeChain(
                query.attribute,
                self._cell,
                headroom=self._headroom,
                batch_duration=self._batch_duration,
                online_estimation=self._online,
                discard_recorder=self._discard_recorder,
                report_history=self._report_history,
                rng=np.random.default_rng(self._rng.integers(0, 2 ** 63 - 1)),
            )
            self._chains[query.attribute] = chain
        chain.add_query(query, overlap)

    def remove_query(self, query: AcquisitionalQuery) -> None:
        """Deregister a query; drops the attribute chain when it empties."""
        chain = self.chain(query.attribute)
        chain.remove_query(query.query_id)
        if chain.is_empty:
            del self._chains[query.attribute]

    def rebuild(self, deliver: DeliverFn) -> None:
        """Rebuild the underlying stream topology from the current query set."""
        self._topology = StreamTopology(name=f"cell{self._cell.key}")
        for chain in self._chains.values():
            chain.build(self._topology, deliver)
        self._rebuilds += 1

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def inject(self, item: SensorTuple) -> None:
        """Push one raw tuple into the cell's topology."""
        self._topology.inject(item)

    def inject_many(self, items) -> int:
        """Push many tuples; returns how many were pushed."""
        return self._topology.inject_many(items)

    def flush(self) -> None:
        """End the batch: every Flatten operator processes its buffer."""
        self._topology.flush()

    def violations(self) -> Dict[str, float]:
        """Last-batch ``N_v`` per attribute."""
        return {
            attribute: chain.last_violation_percent()
            for attribute, chain in self._chains.items()
        }

    def operator_count(self) -> int:
        """Total PMAT operators across all chains."""
        return sum(chain.operator_count() for chain in self._chains.values())

    def check_invariants(self) -> None:
        """Check the structural invariants of every chain."""
        for chain in self._chains.values():
            chain.check_invariants()

    @property
    def stream_topology(self) -> StreamTopology:
        """The underlying stream topology (for introspection and tests)."""
        return self._topology

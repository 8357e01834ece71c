"""Execution topologies: directed graphs of stream operators.

A :class:`StreamTopology` is the per-grid-cell operator chain the paper
builds in Section V — F followed by T operators sorted by rate, optionally
followed by P operators, whose outputs feed U operators or result streams.
The topology tracks operators, the edges between them, and *branching
points* (streams with more than one downstream consumer), which the paper's
insertion/deletion rules care about.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..errors import StreamError
from .operator import StreamOperator
from .stream import Stream
from .tuples import SensorTuple


@dataclass(frozen=True)
class BranchingPoint:
    """A stream consumed by more than one downstream operator."""

    stream_name: str
    consumer_names: Tuple[str, ...]


class StreamTopology:
    """A connected set of operators with explicit edges.

    The topology owns its entry stream (where raw tuples are injected) and
    remembers, for every operator, which upstream stream feeds it and which
    operators consume each of its outputs.
    """

    def __init__(self, name: str) -> None:
        if not name:
            raise StreamError("a topology needs a non-empty name")
        self._name = name
        self._entry = Stream(f"{name}:entry")
        self._operators: Dict[str, StreamOperator] = {}
        #: maps a stream name to the operator names subscribed to it
        self._consumers: Dict[str, List[str]] = {}
        #: maps an operator name to the name of the stream feeding it
        self._feeds: Dict[str, str] = {}
        #: all streams by name (entry + every operator output)
        self._streams: Dict[str, Stream] = {self._entry.name: self._entry}

    # ------------------------------------------------------------------
    @property
    def name(self) -> str:
        """The topology's name (e.g. the grid-cell key it serves)."""
        return self._name

    @property
    def entry(self) -> Stream:
        """The stream where raw tuples are injected."""
        return self._entry

    @property
    def operators(self) -> Sequence[StreamOperator]:
        """All operators currently in the topology (insertion order)."""
        return tuple(self._operators.values())

    def operator(self, name: str) -> StreamOperator:
        """Look up an operator by name."""
        try:
            return self._operators[name]
        except KeyError:
            raise StreamError(f"no operator named '{name}' in topology '{self._name}'") from None

    def __len__(self) -> int:
        return len(self._operators)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_operator(
        self, operator: StreamOperator, *, upstream: Optional[Stream] = None
    ) -> StreamOperator:
        """Add an operator, subscribing it to ``upstream`` (default: the entry stream)."""
        if operator.name in self._operators:
            raise StreamError(
                f"operator '{operator.name}' already in topology '{self._name}'"
            )
        upstream = upstream if upstream is not None else self._entry
        if upstream.name not in self._streams:
            raise StreamError(
                f"stream '{upstream.name}' does not belong to topology '{self._name}'"
            )
        operator.subscribe_to(upstream)
        self._operators[operator.name] = operator
        self._feeds[operator.name] = upstream.name
        self._consumers.setdefault(upstream.name, []).append(operator.name)
        for out_stream in operator.outputs:
            self._streams[out_stream.name] = out_stream
            self._consumers.setdefault(out_stream.name, [])
        return operator

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def branching_points(self) -> List[BranchingPoint]:
        """Streams consumed by more than one operator (the paper's branching points)."""
        points = []
        for stream_name, consumer_names in self._consumers.items():
            if len(consumer_names) > 1:
                points.append(
                    BranchingPoint(
                        stream_name=stream_name,
                        consumer_names=tuple(consumer_names),
                    )
                )
        return points

    def describe(self) -> str:
        """A multi-line, human-readable dump of the topology structure."""
        lines = [f"topology '{self._name}':"]
        for operator in self._operators.values():
            upstream = self._feeds[operator.name]
            outputs = ", ".join(s.name for s in operator.outputs) or "-"
            lines.append(
                f"  {operator.describe()}  <- {upstream}  -> {outputs}"
            )
        branch_points = self.branching_points()
        if branch_points:
            lines.append("  branching points:")
            for point in branch_points:
                lines.append(
                    f"    {point.stream_name} -> {', '.join(point.consumer_names)}"
                )
        return "\n".join(lines)

    # ------------------------------------------------------------------
    # Execution helpers
    # ------------------------------------------------------------------
    def inject(self, item: SensorTuple) -> None:
        """Push one tuple into the topology's entry stream."""
        self._entry.push(item)

    def inject_many(self, items: Iterable[SensorTuple]) -> int:
        """Push an iterable of tuples; returns how many were pushed."""
        count = 0
        for item in items:
            self.inject(item)
            count += 1
        return count

    def flush(self) -> None:
        """Flush every operator (end of batch)."""
        for operator in self._operators.values():
            operator.flush()

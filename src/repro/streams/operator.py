"""Stream operator base classes.

An operator consumes tuples from one or more input streams and pushes
results to one or more output streams.  The PMAT operators in
:mod:`repro.core.pmat` derive from :class:`StreamOperator`; a few generic
operators (filter, map, pass-through) are provided for building execution
topologies and for tests.
"""

from __future__ import annotations

import itertools
from abc import ABC, abstractmethod
from typing import Callable, List, Optional, Sequence

from ..errors import StreamError
from .batch import TupleBatch
from .stream import Stream
from .tuples import SensorTuple

_operator_ids = itertools.count(1)


class StreamOperator(ABC):
    """Base class of all stream operators.

    Subclasses implement :meth:`process` which receives one input tuple and
    pushes any number of tuples to the operator's output streams.
    """

    #: Short display symbol, e.g. ``"F"`` for Flatten; subclasses override.
    symbol = "?"

    def __init__(self, name: Optional[str] = None, *, outputs: int = 1) -> None:
        if outputs < 0:
            raise StreamError("an operator cannot have a negative output count")
        self._operator_id = next(_operator_ids)
        self._name = name or f"{type(self).__name__}-{self._operator_id}"
        self._outputs: List[Stream] = [
            Stream(f"{self._name}:out{i}") for i in range(outputs)
        ]
        self._tuples_in = 0
        self._tuples_out = 0

    # ------------------------------------------------------------------
    @property
    def name(self) -> str:
        """The operator's unique name."""
        return self._name

    @property
    def operator_id(self) -> int:
        """A process-wide unique integer id."""
        return self._operator_id

    @property
    def outputs(self) -> Sequence[Stream]:
        """The operator's output streams."""
        return tuple(self._outputs)

    @property
    def output(self) -> Stream:
        """The primary (first) output stream."""
        if not self._outputs:
            raise StreamError(f"operator '{self._name}' has no outputs")
        return self._outputs[0]

    @property
    def tuples_in(self) -> int:
        """Number of tuples consumed so far."""
        return self._tuples_in

    @property
    def tuples_out(self) -> int:
        """Number of tuples emitted so far."""
        return self._tuples_out

    # ------------------------------------------------------------------
    def subscribe_to(self, upstream: Stream) -> None:
        """Attach this operator as a subscriber of an upstream stream."""
        upstream.subscribe(self.accept)

    def accept(self, item: SensorTuple) -> None:
        """Receive one tuple from upstream and process it."""
        self._tuples_in += 1
        self.process(item)

    def emit(self, item: SensorTuple, *, output_index: int = 0) -> None:
        """Push a tuple to one of the operator's output streams."""
        try:
            stream = self._outputs[output_index]
        except IndexError:
            raise StreamError(
                f"operator '{self._name}' has no output index {output_index}"
            ) from None
        self._tuples_out += 1
        stream.push(item)

    @abstractmethod
    def process(self, item: SensorTuple) -> None:
        """Handle one input tuple (push results with :meth:`emit`)."""

    def flush(self) -> None:
        """Flush any buffered state (end of batch); no-op by default."""

    def account_batch(self, tuples_in: int, tuples_out: int) -> None:
        """Bump the throughput counters for a batch handled out of band.

        Used by columnar drivers for pass-through stages (e.g. the
        attribute router) whose work is subsumed by batch bookkeeping.
        """
        self._tuples_in += tuples_in
        self._tuples_out += tuples_out

    def process_batch(self, batch: TupleBatch) -> TupleBatch:
        """Process a whole :class:`TupleBatch`, returning the primary output.

        Operators on the columnar fast path override this with a vectorised
        implementation.  The generic fallback materialises the batch, runs
        each tuple through :meth:`process` and then :meth:`flush` (so
        operators that buffer until the end of the batch window still emit)
        while capturing primary-output emissions, and re-batches — same
        per-tuple RNG draws, counters and side outputs as the object path,
        just not faster.  The primary output stream is swapped out during
        the capture so subscribers attached to it do not see the tuples
        twice (the caller forwards the returned batch instead).
        """
        if batch.is_empty:
            return batch
        if not self._outputs:
            raise StreamError(f"operator '{self._name}' has no outputs")
        captured: List[SensorTuple] = []
        real_primary = self._outputs[0]
        capture = Stream(f"{self._name}:batch-capture")
        capture.subscribe(captured.append)
        self._outputs[0] = capture
        try:
            for item in batch.to_tuples():
                self.accept(item)
            self.flush()
        finally:
            self._outputs[0] = real_primary
        out = TupleBatch.from_tuples(captured)
        if out.is_empty:
            return TupleBatch.empty(batch.attribute, meta=batch.meta)
        return out

    def describe(self) -> str:
        """A short human-readable description used in topology dumps."""
        return f"{self.symbol}[{self._name}]"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"{type(self).__name__}(name={self._name!r}, "
            f"in={self._tuples_in}, out={self._tuples_out})"
        )


class FilterOperator(StreamOperator):
    """Forwards only tuples satisfying a predicate."""

    symbol = "S"

    def __init__(
        self, predicate: Callable[[SensorTuple], bool], name: Optional[str] = None
    ) -> None:
        super().__init__(name, outputs=1)
        self._predicate = predicate

    def process(self, item: SensorTuple) -> None:
        if self._predicate(item):
            self.emit(item)

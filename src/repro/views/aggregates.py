"""Streaming aggregate functions for continuous views.

Every view maintains, per group and per window pane, one *partial state*
per :class:`Aggregate`.  The contract is the classic incremental-aggregation
triple plus vectorised folding:

* :meth:`Aggregate.new_state` — the identity partial;
* :meth:`Aggregate.fold` — absorb one group's batch slice of values (a
  contiguous numpy array; the view has already bucketed the delivered
  :class:`~repro.streams.TupleBatch` by (pane, group) with one lexsort, so
  ``fold`` only ever sees C-speed ufunc reductions, never a Python loop
  over tuples);
* :meth:`Aggregate.merge` — combine two partials (how a sliding window's
  panes become one frame);
* :meth:`Aggregate.result` — the frame-row value of a finished partial.

The built-ins are ``COUNT``, ``SUM``, ``AVG``, ``MIN``, ``MAX`` and the
percentile family ``P1`` … ``P99`` (mergeable deterministic
:class:`~repro.views.sketch.QuantileSketch` summaries; ``P50`` is the
median).  New aggregates register through :func:`register_aggregate` and are
immediately usable from ``CREATE VIEW ... AS <NAME>(value)`` — the parser
validates names against this registry at execution time.
"""

from __future__ import annotations

import re
from typing import Callable, Dict, Optional

import numpy as np

from ..errors import ViewError
from .sketch import QuantileSketch


class Aggregate:
    """Base class of streaming aggregate functions (see module docstring).

    An aggregate object holds no state of its own: per-window state lives
    in the partials :meth:`new_state` / :meth:`fold` / :meth:`merge`
    return, which a view keeps and checkpoints.  Build partials from
    builtins, numpy arrays or ``repro`` classes (the snapshot loader
    admits nothing else); a restored view gets a fresh aggregate object
    from the registry, looked up by name.
    """

    #: Registry name (upper-case, as written in CREATE VIEW).
    name: str = ""

    #: Whether :meth:`fold` needs the numeric value column (COUNT does not,
    #: so it works over attributes whose values are not numeric).
    needs_values: bool = True

    def new_state(self):
        """The identity partial state."""
        raise NotImplementedError

    def fold(self, state, values: np.ndarray, count: int):
        """Absorb one group's batch slice; returns the updated state.

        ``values`` is the group's float64 value slice (empty for
        aggregates with ``needs_values = False``); ``count`` is the number
        of tuples in the slice (always provided, so COUNT never touches
        the value column).
        """
        raise NotImplementedError

    def merge(self, state, other):
        """Combine two partial states; returns the merged state."""
        raise NotImplementedError

    def result(self, state) -> float:
        """The frame-row value of a finished partial state."""
        raise NotImplementedError


class CountAggregate(Aggregate):
    """``COUNT`` — tuples per group (value-type agnostic)."""

    name = "COUNT"
    needs_values = False

    def new_state(self):
        return 0

    def fold(self, state, values, count):
        return state + count

    def merge(self, state, other):
        return state + other

    def result(self, state) -> float:
        return float(state)


class SumAggregate(Aggregate):
    """``SUM`` — sum of the value column per group."""

    name = "SUM"

    def new_state(self):
        return 0.0

    def fold(self, state, values, count):
        return state + float(values.sum())

    def merge(self, state, other):
        return state + other

    def result(self, state) -> float:
        return float(state)


class AvgAggregate(Aggregate):
    """``AVG`` — mean of the value column per group ((sum, count) partials)."""

    name = "AVG"

    def new_state(self):
        return (0.0, 0)

    def fold(self, state, values, count):
        total, n = state
        return (total + float(values.sum()), n + count)

    def merge(self, state, other):
        return (state[0] + other[0], state[1] + other[1])

    def result(self, state) -> float:
        total, n = state
        if n == 0:
            return float("nan")
        return total / n


class MinAggregate(Aggregate):
    """``MIN`` — minimum of the value column per group."""

    name = "MIN"

    def new_state(self):
        return float("inf")

    def fold(self, state, values, count):
        return min(state, float(values.min()))

    def merge(self, state, other):
        return min(state, other)

    def result(self, state) -> float:
        return float(state)


class MaxAggregate(Aggregate):
    """``MAX`` — maximum of the value column per group."""

    name = "MAX"

    def new_state(self):
        return float("-inf")

    def fold(self, state, values, count):
        return max(state, float(values.max()))

    def merge(self, state, other):
        return max(state, other)

    def result(self, state) -> float:
        return float(state)


class PercentileAggregate(Aggregate):
    """``P<nn>`` — streaming percentile via a deterministic quantile sketch."""

    def __init__(self, percent: int, *, capacity: Optional[int] = None) -> None:
        if not 1 <= percent <= 99:
            raise ViewError(f"percentile must be in [1, 99], got P{percent}")
        self.name = f"P{percent}"
        self._q = percent / 100.0
        self._capacity = capacity

    def new_state(self):
        if self._capacity is None:
            return QuantileSketch()
        return QuantileSketch(self._capacity)

    def fold(self, state, values, count):
        state.extend(values)
        return state

    def merge(self, state, other):
        return state.merge(other)

    def result(self, state) -> float:
        if state.count == 0:
            return float("nan")
        return state.quantile(self._q)


#: Factories of the registered aggregates, keyed by upper-case name.
_REGISTRY: Dict[str, Callable[[], Aggregate]] = {}

#: ``P50`` … ``P99``-style names resolved dynamically.
_PERCENTILE_RE = re.compile(r"^P(\d{1,2})$")


def register_aggregate(name: str, factory: Callable[[], Aggregate]) -> None:
    """Register (or replace) an aggregate under an upper-case name.

    ``factory`` is called once per view that uses the aggregate, and again
    for each such view a checkpoint restore rebuilds, so register the name
    before restoring.  Per-window state lives in the partials, built from
    builtins, numpy arrays or ``repro`` classes, never on the aggregate
    object: the restored view's object is a fresh one.
    """
    key = name.upper()
    if not key or not key.isidentifier():
        raise ViewError(f"invalid aggregate name {name!r}")
    _REGISTRY[key] = factory


for _cls in (CountAggregate, SumAggregate, AvgAggregate, MinAggregate, MaxAggregate):
    register_aggregate(_cls.name, _cls)


def aggregate_names() -> list:
    """The registered aggregate names (percentiles are dynamic: ``P1``-``P99``)."""
    return sorted(_REGISTRY) + ["P1..P99"]


def get_aggregate(name: str) -> Aggregate:
    """Resolve an aggregate name to a fresh :class:`Aggregate` instance.

    Registered names are matched case-insensitively; ``P<nn>`` percentile
    names are resolved dynamically so the whole ``P1`` … ``P99`` family is
    available without 99 registry entries.
    """
    key = str(name).upper()
    factory = _REGISTRY.get(key)
    if factory is not None:
        return factory()
    match = _PERCENTILE_RE.match(key)
    if match is not None:
        return PercentileAggregate(int(match.group(1)))
    raise ViewError(
        f"unknown aggregate {name!r}; known: {', '.join(aggregate_names())}"
    )

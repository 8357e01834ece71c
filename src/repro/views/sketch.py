"""A deterministic streaming quantile sketch for continuous-view percentiles.

The percentile aggregates (``P50`` … ``P99``) of a continuous view must be
maintainable incrementally — a window's values are folded in batch by batch
and the frame is emitted without ever rescanning history — in bounded
memory even when one window spans millions of tuples.  :class:`QuantileSketch`
is a compact, *deterministic* bounded-size summary in the KLL/MRL family:

* values live in levels; level ``i`` holds items of weight ``2**i``
  (fresh values enter level 0 with weight 1);
* when the total retained size exceeds ``capacity`` the lowest
  compactable level is halved: its items are sorted, every other rank
  survives into the next level with doubled weight, an odd leftover stays
  put.  The surviving rank of each adjacent pair alternates per level
  across compactions, so the selection bias of one halving is cancelled by
  the next — fully deterministic (no RNG), which keeps independently
  maintained sketches byte-identical when fed the same batches (what the
  restore-then-replay digests rely on);
* quantile queries answer the weighted nearest-rank quantile over the
  levelled summary.

While no compaction has happened (the common case: windows that hold fewer
than ``capacity`` values) the sketch is *exact*: :meth:`quantile` equals
the nearest-rank percentile of the raw values.  After compactions the
answer is approximate; high-weight items are compacted exponentially
rarely, so the rank error stays a small fraction of the total weight.

Sketches merge level-wise (:meth:`merge`), which is how a sliding window's
per-pane partials combine into one frame.
"""

from __future__ import annotations

from typing import List

import numpy as np

from ..errors import ViewError

#: Default maximum number of retained values.
DEFAULT_CAPACITY = 2048

#: Smallest allowed capacity (leaves room for the levelled layout).
MIN_CAPACITY = 8

_EMPTY = np.empty(0, dtype=np.float64)


class QuantileSketch:
    """Bounded, mergeable, deterministic quantile summary."""

    __slots__ = ("_capacity", "_levels", "_parity", "_count", "_compactions")

    def __init__(self, capacity: int = DEFAULT_CAPACITY) -> None:
        if capacity < MIN_CAPACITY:
            raise ViewError(f"sketch capacity must be at least {MIN_CAPACITY}")
        self._capacity = capacity
        #: level i holds an unsorted array of items of weight 2**i.
        self._levels: List[np.ndarray] = [_EMPTY]
        #: per-level compaction parity (which rank of each pair survives).
        self._parity: List[int] = [0]
        #: total weight (== number of values ever folded in)
        self._count = 0
        self._compactions = 0

    # ------------------------------------------------------------------
    @property
    def capacity(self) -> int:
        """Retained-size bound that triggers compactions."""
        return self._capacity

    @property
    def count(self) -> int:
        """Total number of values folded in (the summary's total weight)."""
        return self._count

    @property
    def is_exact(self) -> bool:
        """Whether no compaction has happened yet (quantiles are exact)."""
        return self._compactions == 0

    @property
    def retained(self) -> int:
        """Number of weighted items currently retained across all levels."""
        return sum(level.shape[0] for level in self._levels)

    # ------------------------------------------------------------------
    def extend(self, values: np.ndarray) -> None:
        """Fold a batch of values into the sketch."""
        values = np.asarray(values, dtype=np.float64)
        if values.ndim != 1:
            raise ViewError("QuantileSketch.extend takes a 1-d value array")
        if values.shape[0] == 0:
            return
        self._levels[0] = (
            values.copy() if self._levels[0].shape[0] == 0
            else np.concatenate((self._levels[0], values))
        )
        self._count += values.shape[0]
        self._maybe_compact()

    def merge(self, other: "QuantileSketch") -> "QuantileSketch":
        """Fold another sketch's summary into this one (returns ``self``)."""
        if other._count == 0:
            return self
        while len(self._levels) < len(other._levels):
            self._levels.append(_EMPTY)
            self._parity.append(0)
        for i, level in enumerate(other._levels):
            if level.shape[0]:
                self._levels[i] = (
                    level.copy() if self._levels[i].shape[0] == 0
                    else np.concatenate((self._levels[i], level))
                )
        self._count += other._count
        self._compactions += other._compactions
        self._maybe_compact()
        return self

    def copy(self) -> "QuantileSketch":
        """An independent copy (shares no mutable arrays)."""
        clone = QuantileSketch(self._capacity)
        clone._levels = [level.copy() for level in self._levels]
        clone._parity = list(self._parity)
        clone._count = self._count
        clone._compactions = self._compactions
        return clone

    def _maybe_compact(self) -> None:
        while self.retained > self._capacity:
            # Halve the lowest level with a pair to spare: its items carry
            # the smallest weight, so the rank error introduced is minimal.
            level = next(
                (i for i, arr in enumerate(self._levels) if arr.shape[0] >= 2),
                None,
            )
            if level is None:  # only log2(count) singletons left
                break
            self._compact_level(level)

    def _compact_level(self, i: int) -> None:
        arr = np.sort(self._levels[i], kind="stable")
        pairs = arr.shape[0] // 2
        survivors = arr[self._parity[i] : 2 * pairs : 2].copy()
        self._parity[i] ^= 1
        self._levels[i] = arr[2 * pairs :]  # the odd leftover stays put
        if i + 1 == len(self._levels):
            self._levels.append(_EMPTY)
            self._parity.append(0)
        self._levels[i + 1] = (
            survivors if self._levels[i + 1].shape[0] == 0
            else np.concatenate((self._levels[i + 1], survivors))
        )
        self._compactions += 1

    # ------------------------------------------------------------------
    def quantile(self, q: float) -> float:
        """The weighted nearest-rank ``q``-quantile of the folded values."""
        if not 0.0 <= q <= 1.0:
            raise ViewError(f"quantile fraction must be in [0, 1], got {q}")
        if self._count == 0:
            raise ViewError("cannot take the quantile of an empty sketch")
        parts = [level for level in self._levels if level.shape[0]]
        values = np.concatenate(parts)
        weights = np.concatenate(
            [
                np.full(level.shape[0], 1 << i, dtype=np.int64)
                for i, level in enumerate(self._levels)
                if level.shape[0]
            ]
        )
        order = np.argsort(values, kind="stable")
        values = values[order]
        cumulative = np.cumsum(weights[order])
        # Weighted nearest-rank: the first value whose cumulative weight
        # reaches ceil(q * total), with rank at least 1.
        rank = max(1, int(np.ceil(q * cumulative[-1])))
        index = int(np.searchsorted(cumulative, rank, side="left"))
        return float(values[index])

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"QuantileSketch(count={self._count}, retained={self.retained}, "
            f"exact={self.is_exact})"
        )

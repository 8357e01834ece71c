"""A general-purpose in-memory tuple store with an optional retention cap.

Used for raw acquisition batches (so examples can inspect what the handler
collected) and, through :class:`~repro.storage.discarded.DiscardedStore`, for
the tuples PMAT operators drop.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, List, Optional

from ..errors import StorageError
from ..geometry import Rectangle
from ..streams import SensorTuple
from .index import SpatioTemporalIndex


@dataclass(frozen=True)
class StoreStats:
    """Summary statistics of a tuple store."""

    stored: int
    inserted_total: int
    evicted_total: int
    attributes: tuple


class TupleStore:
    """An append-mostly, optionally capped, in-memory tuple store.

    Parameters
    ----------
    capacity:
        Maximum number of tuples retained; older tuples are evicted FIFO
        when the cap is exceeded.  ``None`` means unbounded.
    region:
        When provided, an auxiliary spatial index is maintained so range
        queries do not scan the whole store.
    """

    def __init__(
        self,
        *,
        capacity: Optional[int] = None,
        region: Optional[Rectangle] = None,
    ) -> None:
        if capacity is not None and capacity <= 0:
            raise StorageError("capacity must be positive or None")
        self._capacity = capacity
        self._items: Deque[SensorTuple] = deque()
        self._inserted = 0
        self._evicted = 0
        self._index = SpatioTemporalIndex(region) if region is not None else None

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._items)

    @property
    def capacity(self) -> Optional[int]:
        """The retention cap (``None`` when unbounded)."""
        return self._capacity

    def insert(self, item: SensorTuple) -> None:
        """Store one tuple, evicting the oldest when over capacity."""
        self._items.append(item)
        self._inserted += 1
        if self._index is not None:
            self._index.insert(item)
        if self._capacity is not None and len(self._items) > self._capacity:
            evicted = self._items.popleft()
            self._evicted += 1
            if self._index is not None:
                # Rebuilding the index on eviction would be wasteful; the
                # index over-approximates and range queries re-check membership.
                del evicted

    # ------------------------------------------------------------------
    def all(self) -> List[SensorTuple]:
        """Every stored tuple, oldest first."""
        return list(self._items)

    def clear(self) -> None:
        """Drop every stored tuple (statistics are kept)."""
        self._items.clear()
        if self._index is not None:
            self._index.clear()

    def stats(self) -> StoreStats:
        """Summary statistics."""
        return StoreStats(
            stored=len(self._items),
            inserted_total=self._inserted,
            evicted_total=self._evicted,
            attributes=tuple(sorted({item.attribute for item in self._items})),
        )

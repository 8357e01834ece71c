"""A capped in-memory tuple store.

:class:`~repro.storage.discarded.DiscardedStore` keeps one per operator for
the tuples PMAT operators drop.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Optional

from ..errors import StorageError
from ..streams import SensorTuple


class TupleStore:
    """An append-only, optionally capped, in-memory tuple store.

    Parameters
    ----------
    capacity:
        Maximum number of tuples retained; older tuples are evicted FIFO
        when the cap is exceeded.  ``None`` means unbounded.
    """

    def __init__(self, *, capacity: Optional[int] = None) -> None:
        if capacity is not None and capacity <= 0:
            raise StorageError("capacity must be positive or None")
        self._capacity = capacity
        self._items: Deque[SensorTuple] = deque()

    def __len__(self) -> int:
        return len(self._items)

    def insert(self, item: SensorTuple) -> None:
        """Store one tuple, evicting the oldest when over capacity."""
        self._items.append(item)
        if self._capacity is not None and len(self._items) > self._capacity:
            self._items.popleft()

"""Storage for tuples discarded by PMAT operators.

The paper notes, for the Flatten operator, that "if necessary, the discarded
tuples can be stored separately".  :class:`DiscardedStore` is that separate
store: a capped tuple store keyed by the operator that dropped each tuple,
so later analyses (or re-planning) can recover cheaply acquired but unused
observations.
"""

from __future__ import annotations

from typing import Dict, Optional

from ..errors import StorageError
from ..streams import SensorTuple
from .tuple_store import TupleStore


class DiscardedStore:
    """Per-operator storage of discarded tuples."""

    def __init__(self, *, capacity_per_operator: Optional[int] = 10_000) -> None:
        if capacity_per_operator is not None and capacity_per_operator <= 0:
            raise StorageError("capacity_per_operator must be positive or None")
        self._capacity = capacity_per_operator
        self._stores: Dict[str, TupleStore] = {}

    def record(self, operator_name: str, item: SensorTuple) -> None:
        """Record one discarded tuple for the given operator."""
        if not operator_name:
            raise StorageError("operator_name must be non-empty")
        store = self._stores.get(operator_name)
        if store is None:
            store = TupleStore(capacity=self._capacity)
            self._stores[operator_name] = store
        store.insert(item)

    def counts(self) -> Dict[str, int]:
        """Currently retained discarded-tuple counts per operator."""
        return {name: len(store) for name, store in self._stores.items()}

"""A simple spatio-temporal grid index over stored tuples.

The index buckets tuple positions into a uniform spatial grid and keeps each
bucket's tuples sorted by insertion (which is time order for streaming
inserts).  Range queries intersect the query rectangle with the buckets and
filter within candidate buckets — the standard grid-file trade-off, entirely
adequate for the in-memory scales of the simulator.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..errors import StorageError
from ..geometry import Rectangle
from ..streams import SensorTuple


class SpatioTemporalIndex:
    """Uniform-grid spatial index with per-bucket time ordering."""

    def __init__(self, region: Rectangle, *, nx: int = 16, ny: int = 16) -> None:
        if nx <= 0 or ny <= 0:
            raise StorageError("index grid dimensions must be positive")
        self._region = region
        self._nx = nx
        self._ny = ny
        self._buckets: Dict[Tuple[int, int], List[SensorTuple]] = {}
        self._count = 0

    # ------------------------------------------------------------------
    @property
    def count(self) -> int:
        """Number of indexed tuples."""
        return self._count

    def _bucket_of(self, x: float, y: float) -> Tuple[int, int]:
        q = int((x - self._region.x_min) / self._region.width * self._nx)
        r = int((y - self._region.y_min) / self._region.height * self._ny)
        return (min(max(q, 0), self._nx - 1), min(max(r, 0), self._ny - 1))

    # ------------------------------------------------------------------
    def insert(self, item: SensorTuple) -> None:
        """Index one tuple."""
        bucket = self._bucket_of(item.x, item.y)
        self._buckets.setdefault(bucket, []).append(item)
        self._count += 1

    def query(
        self,
        rect: Rectangle,
        *,
        t_start: Optional[float] = None,
        t_end: Optional[float] = None,
        attribute: Optional[str] = None,
    ) -> List[SensorTuple]:
        """Tuples inside ``rect`` (and optionally a time window / attribute)."""
        q_min, r_min = self._bucket_of(rect.x_min, rect.y_min)
        q_max, r_max = self._bucket_of(rect.x_max, rect.y_max)
        results: List[SensorTuple] = []
        for q in range(q_min, q_max + 1):
            for r in range(r_min, r_max + 1):
                for item in self._buckets.get((q, r), []):
                    if not rect.contains(item.x, item.y, closed=True):
                        continue
                    if t_start is not None and item.t < t_start:
                        continue
                    if t_end is not None and item.t >= t_end:
                        continue
                    if attribute is not None and item.attribute != attribute:
                        continue
                    results.append(item)
        results.sort(key=lambda item: item.t)
        return results

    def clear(self) -> None:
        """Drop everything from the index."""
        self._buckets.clear()
        self._count = 0

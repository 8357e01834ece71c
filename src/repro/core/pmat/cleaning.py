"""Error-mitigation operators (Section VI extension).

Companions of :mod:`repro.sensing.errors`: stream operators that reduce the
impact of GPS errors, sensor inaccuracies and human-judgment errors on
query accuracy, so they can be placed in an execution topology in front of
the PMAT chain.

* :class:`ClampOperator` — pulls out-of-region coordinates back inside the
  deployment region (gross GPS errors would otherwise make the tuple
  unroutable or land it in the wrong grid cell).
* :class:`OutlierFilterOperator` — drops numeric readings whose value lies
  more than ``z_threshold`` standard deviations from the mean of a sliding
  window of recent readings (robust to sensor glitches).
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Optional

import numpy as np

from ...errors import StreamError
from ...geometry import Rectangle
from ...streams import SensorTuple, TupleBatch
from .base import PMATOperator


class ClampOperator(PMATOperator):
    """Clamp tuple coordinates into the deployment region."""

    symbol = "CL"

    def __init__(self, region: Rectangle, *, name: Optional[str] = None, rng=None) -> None:
        super().__init__(name, region=region, outputs=1, rng=rng)
        self._clamped = 0
        self._rect = region

    @property
    def clamped(self) -> int:
        """Number of tuples whose coordinates had to be clamped."""
        return self._clamped

    def process(self, item: SensorTuple) -> None:
        x = min(max(item.x, self._rect.x_min), self._rect.x_max)
        y = min(max(item.y, self._rect.y_min), self._rect.y_max)
        if x != item.x or y != item.y:
            self._clamped += 1
            item = SensorTuple(
                tuple_id=item.tuple_id,
                attribute=item.attribute,
                t=item.t,
                x=x,
                y=y,
                value=item.value,
                sensor_id=item.sensor_id,
                metadata=item.metadata,
            )
        self.emit(item)

    def process_batch(self, batch: TupleBatch) -> TupleBatch:
        """Vectorised clamp: clip whole coordinate columns into the region."""
        n = len(batch)
        if n == 0:
            return batch
        self._tuples_in += n
        self._tuples_out += n
        x = np.clip(batch.x, self._rect.x_min, self._rect.x_max)
        y = np.clip(batch.y, self._rect.y_min, self._rect.y_max)
        moved = (x != batch.x) | (y != batch.y)
        clamped = int(np.count_nonzero(moved))
        if clamped == 0:
            return batch
        self._clamped += clamped
        return TupleBatch(
            batch.attribute, batch.t, x, y, batch.value,
            batch.sensor_id, batch.tuple_id, meta=batch.meta, extra=batch.extra,
        )


class OutlierFilterOperator(PMATOperator):
    """Drop numeric readings far from the recent sliding window.

    Uses robust statistics (median and median absolute deviation) so that a
    gross outlier admitted early does not inflate the spread estimate and let
    later outliers through: a reading is dropped when its robust z-score
    ``0.6745 * |value - median| / MAD`` exceeds ``z_threshold``.
    """

    symbol = "OF"

    def __init__(
        self,
        *,
        window: int = 50,
        z_threshold: float = 4.0,
        min_history: int = 10,
        name: Optional[str] = None,
        rng=None,
    ) -> None:
        if window <= 1:
            raise StreamError("the outlier window must hold at least 2 readings")
        if z_threshold <= 0:
            raise StreamError("z_threshold must be positive")
        if not 2 <= min_history <= window:
            raise StreamError("min_history must be in [2, window]")
        super().__init__(name, outputs=1, rng=rng)
        self._z_threshold = z_threshold
        self._min_history = min_history
        self._history: Deque[float] = deque(maxlen=window)
        self._dropped = 0

    @property
    def dropped(self) -> int:
        """Number of readings dropped as outliers."""
        return self._dropped

    def _admit(self, value) -> bool:
        """The per-reading decision both paths share: keep or drop.

        Updates the sliding history for admitted numeric readings.
        """
        if isinstance(value, np.generic):
            value = value.item()
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            return True
        value = float(value)
        if len(self._history) >= self._min_history:
            history = np.asarray(self._history, dtype=float)
            median = float(np.median(history))
            mad = float(np.median(np.abs(history - median)))
            if mad > 1e-12:
                robust_z = 0.6745 * abs(value - median) / mad
                if robust_z > self._z_threshold:
                    self._dropped += 1
                    return False
        self._history.append(value)
        return True

    def process(self, item: SensorTuple) -> None:
        if self._admit(item.value):
            self.emit(item)

    def process_batch(self, batch: TupleBatch) -> TupleBatch:
        """Columnar outlier filter: a keep-mask built over the value column.

        The sliding-window statistics are inherently sequential, so the
        decision loop remains per value — but it runs over the raw column
        and composes one keep-mask, never materialising tuples.
        """
        n = len(batch)
        if n == 0:
            return batch
        self._tuples_in += n
        values = batch.value
        keep = np.fromiter(
            (self._admit(values[i]) for i in range(n)), dtype=bool, count=n
        )
        kept = batch.select(keep) if not keep.all() else batch
        self._tuples_out += len(kept)
        return kept

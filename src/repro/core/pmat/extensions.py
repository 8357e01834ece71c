"""Extension PMAT operators.

The paper states "We have researched many more operators than presented
below" (Section IV-B.1) without describing them.  The operators here are the
natural algebraic companions of Flatten/Thin/Partition/Union, each with a
provable effect on a Poisson process:

* :class:`ShiftOperator` — displaces every tuple by a fixed space-time
  offset; a Poisson process shifted by a constant stays Poisson with the
  shifted intensity.
* :class:`MarkOperator` — attaches an independent random mark to every
  tuple (the marking theorem: independently marked Poisson processes are
  Poisson on the product space).
* :class:`SampleOperator` — fixed-probability Bernoulli sampling; identical
  in mechanism to Thin but phrased as a probability rather than a rate pair,
  convenient for cost-capping a stream irrespective of its rate.

They are *extensions*: documented as beyond the paper's explicit content.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

import numpy as np

from ...errors import StreamError
from ...streams import SensorTuple
from .base import PMATOperator


class ShiftOperator(PMATOperator):
    """Shift every tuple by a constant space-time displacement."""

    symbol = "SH"

    def __init__(
        self,
        *,
        dt: float = 0.0,
        dx: float = 0.0,
        dy: float = 0.0,
        attribute: Optional[str] = None,
        name: Optional[str] = None,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__(name, attribute=attribute, region=None, outputs=1, rng=rng)
        self._dt = float(dt)
        self._dx = float(dx)
        self._dy = float(dy)

    def process(self, item: SensorTuple) -> None:
        self.emit(item.shifted(self._dt, self._dx, self._dy))


class MarkOperator(PMATOperator):
    """Attach an independent random mark to every tuple's metadata.

    Parameters
    ----------
    mark_fn:
        Callable ``(rng) -> mark`` drawing the mark; independent of the
        tuple by construction, as the marking theorem requires.
    mark_key:
        Metadata key the mark is stored under.
    """

    symbol = "MK"

    def __init__(
        self,
        mark_fn: Callable[[np.random.Generator], Any],
        *,
        mark_key: str = "mark",
        attribute: Optional[str] = None,
        name: Optional[str] = None,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        if not mark_key:
            raise StreamError("mark_key must be a non-empty string")
        super().__init__(name, attribute=attribute, region=None, outputs=1, rng=rng)
        self._mark_fn = mark_fn
        self._mark_key = mark_key

    @property
    def mark_key(self) -> str:
        """Metadata key the mark is stored under."""
        return self._mark_key

    def process(self, item: SensorTuple) -> None:
        metadata = dict(item.metadata)
        metadata[self._mark_key] = self._mark_fn(self.rng)
        marked = SensorTuple(
            tuple_id=item.tuple_id,
            attribute=item.attribute,
            t=item.t,
            x=item.x,
            y=item.y,
            value=item.value,
            sensor_id=item.sensor_id,
            metadata=metadata,
        )
        self.emit(marked)


class SampleOperator(PMATOperator):
    """Retain each tuple with a fixed probability (rate-agnostic thinning)."""

    symbol = "SA"

    def __init__(
        self,
        probability: float,
        *,
        attribute: Optional[str] = None,
        name: Optional[str] = None,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        if not 0 < probability <= 1:
            raise StreamError("the sampling probability must be in (0, 1]")
        super().__init__(name, attribute=attribute, region=None, outputs=1, rng=rng)
        self._probability = float(probability)
        self._dropped = 0

    @property
    def probability(self) -> float:
        """The retention probability."""
        return self._probability

    @property
    def dropped(self) -> int:
        """Number of tuples dropped so far."""
        return self._dropped

    def process(self, item: SensorTuple) -> None:
        if self.rng.random() < self._probability:
            self.emit(item)
        else:
            self._dropped += 1

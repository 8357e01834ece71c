"""The Union (``U``) operator.

Unions MDPPs of the same rate on adjacent regions into one process on the
union region (paper Section IV-B.1).  "Notice that for computing R*_1 ∪ R*_2
the rectangles should be adjacent and with a common side of equal length.
This operator can be easily extended to union multiple MDPPs at once."

The operator itself simply merges its input streams (the superposition of
the underlying processes); the geometric pre-condition is validated at
construction time when the input regions are supplied, mirroring the paper's
requirement.  The combined output region is exposed so downstream components
know the extent of the unioned process.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from ...errors import StreamError
from ...geometry import Region, as_region, union_regions
from ...streams import SensorTuple, Stream
from .base import PMATOperator


class UnionOperator(PMATOperator):
    """Union several same-rate processes on disjoint (adjacent) regions.

    Parameters
    ----------
    input_regions:
        Regions of the processes being unioned; when given they must be
        pairwise disjoint and their union is exposed as :attr:`region`.
        Pass ``None`` to skip geometric validation (e.g. when merging
        per-cell partial streams whose regions are known to tile the query
        region).
    rate:
        The common rate of the unioned processes (informational; used by
        topology descriptions and validation).
    """

    symbol = "U"

    def __init__(
        self,
        input_regions: Optional[Sequence] = None,
        *,
        rate: Optional[float] = None,
        attribute: Optional[str] = None,
        name: Optional[str] = None,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        combined: Optional[Region] = None
        if input_regions is not None:
            regions = [as_region(region) for region in input_regions]
            if not regions:
                raise StreamError("Union needs at least one input region")
            combined = union_regions(regions)
        if rate is not None and rate <= 0:
            raise StreamError("the common rate must be strictly positive")
        super().__init__(
            name, attribute=attribute, region=combined, outputs=1, rng=rng
        )
        self._rate = rate
        self._inputs_attached = 0

    # ------------------------------------------------------------------
    @property
    def rate(self) -> Optional[float]:
        """The common rate of the unioned processes, when declared."""
        return self._rate

    def set_rate(self, rate: float) -> None:
        """Declare a new common rate (used when a query is altered in-flight)."""
        if rate <= 0:
            raise StreamError("the common rate must be strictly positive")
        self._rate = float(rate)

    def attach_input(self, upstream: Stream) -> None:
        """Subscribe this union to one more upstream partial stream."""
        upstream.subscribe(self.accept)
        self._inputs_attached += 1

    # ------------------------------------------------------------------
    def process(self, item: SensorTuple) -> None:
        self.emit(item)

    def describe(self) -> str:
        attribute = self.attribute or "*"
        rate = f"@{self._rate:g}" if self._rate is not None else ""
        return f"U<{attribute}>{rate}[{self.name}] inputs={self._inputs_attached}"

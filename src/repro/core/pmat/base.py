"""Base class shared by all PMAT operators.

PMAT operators are stream operators (they plug into execution topologies)
that additionally:

* carry an explicit random generator, so whole topologies are reproducible
  from one engine seed;
* know the attribute and region of the point process flowing through them,
  which the planner uses when validating topologies;
* expose simple throughput counters used by the metrics layer.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ...geometry import Region, as_region
from ...rng import ensure_rng
from ...streams import StreamOperator, TupleBatch


class PMATOperator(StreamOperator):
    """Common behaviour of point-process transformation operators."""

    def __init__(
        self,
        name: Optional[str] = None,
        *,
        attribute: Optional[str] = None,
        region: Optional[Region] = None,
        outputs: int = 1,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__(name, outputs=outputs)
        self._attribute = attribute
        self._region = as_region(region) if region is not None else None
        self._rng = ensure_rng(rng)

    @property
    def attribute(self) -> Optional[str]:
        """Attribute of the process flowing through the operator, when known."""
        return self._attribute

    @property
    def region(self) -> Optional[Region]:
        """Spatial extent of the process flowing through the operator, when known."""
        return self._region

    @property
    def rng(self) -> np.random.Generator:
        """The operator's random generator."""
        return self._rng

    def _push_discarded(self, discarded: TupleBatch) -> None:
        """Push dropped rows to the secondary (discard) output, one tuple each.

        The discard recorder consumes objects, so this is per-row by
        nature; it lives outside the columnar kernels the hot-path lint
        gates and only runs for operators built with ``emit_discarded``.
        """
        self._tuples_out += self._outputs[1].push_many(discarded.to_tuples())

    def describe(self) -> str:
        attribute = self._attribute or "*"
        return f"{self.symbol}<{attribute}>[{self.name}]"

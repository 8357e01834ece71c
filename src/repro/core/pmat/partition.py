"""The Partition (``P``) operator.

Splits a point process ``P(lambda, R*)`` into processes of the *same* rate
on disjoint sub-regions (paper Section IV-B.1).  "This operator is
implemented by checking to which region the incoming tuple belongs, and then
transmitting it to the appropriate output branch.  This operator can be
easily extended to partition processes into multiple regions" — which is
what this implementation does: any number of pairwise-disjoint sub-regions,
each with its own output stream, plus an optional rest output for tuples
matching none of them.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from ...errors import StreamError
from ...geometry import Region
from ...streams import SensorTuple, Stream, TupleBatch
from .base import PMATOperator, coerce_region


class PartitionOperator(PMATOperator):
    """Partition a process by sub-region.

    Parameters
    ----------
    regions:
        The pairwise-disjoint sub-regions ``R*_1, ..., R*_k``.  Output stream
        ``i`` carries the tuples falling inside ``regions[i]``.
    keep_rest:
        When true an extra final output stream carries tuples that fall in
        none of the sub-regions; when false those tuples are dropped (the
        behaviour CrAQR uses to carve a query's overlap out of a grid cell).
    """

    symbol = "P"

    def __init__(
        self,
        regions: Sequence,
        *,
        attribute: Optional[str] = None,
        keep_rest: bool = False,
        name: Optional[str] = None,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        coerced: List[Region] = [coerce_region(region) for region in regions]
        if not coerced:
            raise StreamError("Partition needs at least one sub-region")
        for i, a in enumerate(coerced):
            for b in coerced[i + 1:]:
                if a.intersects(b):
                    raise StreamError(
                        "Partition sub-regions must be pairwise disjoint"
                    )
        outputs = len(coerced) + (1 if keep_rest else 0)
        super().__init__(
            name,
            attribute=attribute,
            region=None,
            outputs=outputs,
            rng=rng,
        )
        self._regions = coerced
        self._keep_rest = bool(keep_rest)
        self._dropped = 0

    # ------------------------------------------------------------------
    @property
    def regions(self) -> Sequence[Region]:
        """The sub-regions, in output order."""
        return tuple(self._regions)

    @property
    def keep_rest(self) -> bool:
        """Whether unmatched tuples are forwarded to a rest output."""
        return self._keep_rest

    @property
    def dropped(self) -> int:
        """Number of unmatched tuples dropped (0 when ``keep_rest``)."""
        return self._dropped

    def output_for(self, index: int) -> Stream:
        """The output stream of sub-region ``index``."""
        if not 0 <= index < len(self._regions):
            raise StreamError(
                f"Partition has {len(self._regions)} sub-regions; index {index} is invalid"
            )
        return self.outputs[index]

    # ------------------------------------------------------------------
    def process(self, item: SensorTuple) -> None:
        for index, region in enumerate(self._regions):
            if region.contains(item.x, item.y):
                self.emit(item, output_index=index)
                return
        if self._keep_rest:
            self.emit(item, output_index=len(self._regions))
        else:
            self._dropped += 1

    def process_batch_multi(self, batch: TupleBatch) -> List[TupleBatch]:
        """Vectorised partition: one containment mask per sub-region.

        Returns one batch per output stream (sub-regions in order, then the
        rest output when ``keep_rest``).  The sub-regions are pairwise
        disjoint, so composing first-match semantics reduces to independent
        masks with unmatched points tracked separately.
        """
        n = len(batch)
        outputs = len(self._regions) + (1 if self._keep_rest else 0)
        if n == 0:
            return [batch] * outputs
        self._tuples_in += n
        unmatched = np.ones(n, dtype=bool)
        batches: List[TupleBatch] = []
        for region in self._regions:
            mask = region.contains_many(batch.x, batch.y) & unmatched
            unmatched &= ~mask
            part = batch.select(mask)
            self._tuples_out += len(part)
            batches.append(part)
        rest = int(np.count_nonzero(unmatched))
        if self._keep_rest:
            rest_batch = batch.select(unmatched)
            self._tuples_out += len(rest_batch)
            batches.append(rest_batch)
        else:
            self._dropped += rest
        return batches

    def primary_mask(self, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        """Compiled-path kernel: containment mask of the primary sub-region.

        The planner's query taps carve exactly one overlap region with
        ``keep_rest=False``, so the compiled chain only needs the primary
        mask.  Pure function of the coordinates — the caller pairs it with
        :meth:`account_mask` so identical-region taps can share one
        containment evaluation while each operator still records its own
        traffic.
        """
        if len(self._regions) != 1 or self._keep_rest:
            raise StreamError(
                "the compiled partition kernel serves single-region "
                "drop-rest taps only"
            )
        return self._regions[0].contains_many(xs, ys)

    def account_mask(self, total: int, matched: int) -> None:
        """Record one compiled-path pass: ``total`` in, ``matched`` forwarded.

        Mirrors :meth:`process_batch_multi` accounting for the
        single-region drop-rest configuration (unmatched tuples count as
        dropped).  An operator that receives no tuple touches no counter,
        so the caller must skip this call when ``total`` is 0.
        """
        self._tuples_in += total
        self._tuples_out += matched
        self._dropped += total - matched

    def mask_signature(self) -> tuple:
        """Hashable identity of the primary containment predicate.

        Two taps with equal signatures accept exactly the same points, so
        the compiled program evaluates the containment mask once per level
        for all of them (and ``EXPLAIN`` marks them as sharing it).
        """
        return tuple(
            (rect.x_min, rect.y_min, rect.x_max, rect.y_max)
            for rect in self._regions[0].rectangles
        )

    def process_batch(self, batch: TupleBatch) -> TupleBatch:
        """Vectorised partition returning the first sub-region's batch.

        The planner's query taps carve one overlap region per Partition, so
        the primary output is all the columnar chain needs; use
        :meth:`process_batch_multi` when the caller consumes every split.
        Non-primary splits are pushed to their output streams here (like
        the other operators' side outputs), so subscribers of
        ``output_for(1)`` / the rest output never lose tuples when the
        operator is driven through the single-output contract.
        """
        batches = self.process_batch_multi(batch)
        for index, side_batch in enumerate(batches[1:], start=1):
            if len(side_batch):
                stream = self.outputs[index]
                for item in side_batch.to_tuples():
                    stream.push(item)
        return batches[0]

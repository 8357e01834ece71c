"""Numpy executor for compiled per-cell chain programs.

A :class:`ChainProgram` is the executable twin of one
:class:`~repro.core.topology.AttributeChain`: the same operators, the same
RNG streams, the same counters and reports — but the flatten/thin/partition
decisions compose as *row indices* instead of materialised column copies,
and each delivered stream is gathered exactly once.

Byte-identity with the per-tuple object walk (the operators'
``process`` / ``flush`` reference, which materialises every intermediate
stream) rests on three facts:

* chained boolean selects and a composed fancy-index gather pick the same
  rows with the same values (``col[mask1][mask2] == col[idx1][keep2]``);
* every RNG draw keeps its size and order: flatten draws ``random(n)``
  over the full batch, each thin level draws ``random(m)`` over the
  current survivor count (the object walk draws one scalar per tuple
  reaching the operator, exactly ``m`` of them), partitions draw nothing;
* containment masks commute with gathering
  (``region.contains_many(x[idx]) == region.contains_many(x)[idx]``), so
  evaluating a tap's predicate on the survivor coordinates equals
  evaluating it on each materialised survivor — and two taps with
  identical predicates can share one evaluation (the CSE pass) while each
  partition operator still records its own traffic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..errors import PlanningError
from ..streams import TupleBatch


@dataclass
class TapStep:
    """One query tap of a compiled level."""

    query_id: int
    partition: Optional[object]  # PartitionOperator or None (full overlap)
    #: hashable containment-predicate identity; equal signatures on the
    #: same level share one mask evaluation
    signature: Optional[tuple]


@dataclass
class LevelStep:
    """One thin stage of a compiled chain and the taps reading it."""

    thin: object  # ThinOperator
    taps: List[TapStep]


class ChainProgram:
    """Fused execution of one (cell, attribute) chain for one batch."""

    def __init__(self, chain) -> None:
        if chain.flatten is None:  # pragma: no cover - flatten raises first
            raise PlanningError("cannot compile an unbuilt chain")
        self._chain = chain
        self._attribute = chain.attribute
        self._router = chain.router
        self._flatten = chain.flatten
        self._levels: List[LevelStep] = []
        for level in chain.levels:
            taps = []
            for tap in level.taps:
                signature = None
                if tap.partition is not None:
                    signature = tap.partition.mask_signature()
                taps.append(
                    TapStep(
                        query_id=tap.query_id,
                        partition=tap.partition,
                        signature=signature,
                    )
                )
            self._levels.append(LevelStep(thin=level.thin, taps=taps))

    # ------------------------------------------------------------------
    @property
    def chain(self):
        """The chain this program was compiled from (identity-checked by
        the plan cache to detect rebuilds)."""
        return self._chain

    @property
    def attribute(self) -> str:
        """The attribute the program serves."""
        return self._attribute

    @property
    def levels(self) -> List[LevelStep]:
        """The compiled thin levels."""
        return list(self._levels)

    # ------------------------------------------------------------------
    def run(
        self,
        batch: Optional[TupleBatch],
        deliver_batch,
        *,
        router_tuples_in: Optional[int] = None,
    ) -> None:
        """Run one batch window through the fused kernels.

        Router accounting first, flatten (report + RNG draw, discards to
        the recorder when the chain has one) even for empty batches, then
        the thin cascade and the per-tap deliveries in declaration order.
        ``router_tuples_in`` is the total the cell saw this window across
        all attributes (what the router counts on the object path, where
        it subscribes to the shared entry stream); defaults to the batch's
        own size.
        """
        if batch is None:
            batch = TupleBatch.empty(self._attribute)
        n = len(batch)
        if self._router is not None:
            self._router.account_batch(
                n if router_tuples_in is None else router_tuples_in, n
            )
        keep = self._flatten.process_batch_mask(batch)
        indices = np.flatnonzero(keep)
        xs = batch.x
        ys = batch.y
        for level in self._levels:
            indices = level.thin.thin_indices(indices)
            survivors = int(indices.shape[0])
            level_x: Optional[np.ndarray] = None
            level_y: Optional[np.ndarray] = None
            masks: Dict[tuple, np.ndarray] = {}
            for tap in level.taps:
                if tap.partition is None:
                    tap_indices = indices
                else:
                    if survivors == 0:
                        # A partition that receives no tuple touches
                        # no counter on the object path either.
                        continue
                    if level_x is None:
                        level_x = xs[indices]
                        level_y = ys[indices]
                    mask = masks.get(tap.signature)
                    if mask is None:
                        mask = tap.partition.primary_mask(level_x, level_y)
                        masks[tap.signature] = mask
                    matched = int(np.count_nonzero(mask))
                    tap.partition.account_mask(survivors, matched)
                    if matched == 0:
                        continue
                    tap_indices = indices[mask]
                if tap_indices.shape[0]:
                    deliver_batch(tap.query_id, batch.select(tap_indices))


def compile_chain_program(chain) -> ChainProgram:
    """Compile one attribute chain into its fused program."""
    return ChainProgram(chain)

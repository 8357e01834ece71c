"""Numpy executor for compiled attribute programs.

A :class:`ChainSteps` is the compiled step structure of one
:class:`~repro.core.topology.AttributeChain` — the same operators, the same
RNG streams, the same counters and reports as the per-tuple walk.  A
:class:`ChainProgram` runs *all* of one attribute's chains for one batch
over that attribute's rows, which the map phase put in (cell, time) order
and described with a segment table: the work that is elementwise runs once
over every row, only what has to be per chain stays per chain, and the
flatten/thin/partition decisions compose as *row indices* instead of
materialised column copies, so each query's deliveries are gathered once.

Byte-identity with the per-tuple object walk (the operators'
``process`` / ``flush`` reference, which materialises every intermediate
stream) rests on five facts:

* every chain's intensity is chosen before the programs run, by one
  :func:`~repro.core.pmat.flatten.estimate_segments` call over every
  chain with rows of every attribute (:meth:`ChainProgram.segments`), and
  each chain's intensity, estimator name and estimator state are bit for
  bit what its batch alone gets; a program only flattens with them;
* the segmented flatten kernel
  (:func:`~repro.pointprocess.flatten_segments`) gives each chain's rows
  exactly what a batch of only those rows gets: elementwise arithmetic is
  the same IEEE operations with per-row parameters, per-chain float sums
  are slice ``.sum()``s (never a sequential ``reduceat``) and every draw
  fills the chain's slice of one buffer from the chain's own generator;
* every RNG draw keeps its size and order: flatten draws ``random(n)``
  over the chain's rows, each thin level draws ``random(m)`` over the
  current survivor count (the object walk draws one scalar per tuple
  reaching the operator, exactly ``m`` of them), partitions draw nothing;
* chained boolean selects and a composed fancy-index gather pick the same
  rows with the same values (``col[mask1][mask2] == col[idx1][keep2]``),
  and containment masks commute with gathering
  (``region.contains_many(x[idx]) == region.contains_many(x)[idx]``), so
  taps on one level with an equal ``TapStep.signature`` share one
  evaluation while each partition operator still records its own traffic;
* deliveries and discards are not emitted by the program: they come back
  tagged with their position in the object walk's order (chain position,
  step within the chain) and the planner emits them in that order.  A
  query's deliveries are one batch, placed at its first tap: the object
  walk's per-cell chunks of that query, concatenated in emission order,
  are exactly its gathered rows, so buffers, cursors and digests read the
  same rows in the same order.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import PlanningError
from ..pointprocess import flatten_segments
from ..streams import TupleBatch

CellKey = Tuple[int, int]

#: ``(chain position, step within the chain, emit, arguments)``: one delivery
#: or discard push, to be called as ``emit(*arguments)`` in sorted order.
Emission = Tuple[int, int, Callable, tuple]


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


class ChainSteps:
    """The compiled steps of one (cell, attribute) chain.

    What the plan cache compiles and keeps per chain; a batch's
    :class:`ChainProgram` is assembled from these.
    """

    def __init__(self, chain) -> None:
        if chain.flatten is None:  # pragma: no cover - flatten raises first
            raise PlanningError("cannot compile an unbuilt chain")
        self.cell_key: CellKey = chain.cell.key
        self.router = chain.router
        self.flatten = chain.flatten
        self.levels: List[LevelStep] = []
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
            self.levels.append(LevelStep(thin=level.thin, taps=taps))


class ChainProgram:
    """One batch's program for one attribute: all its chains as segments.

    ``chains`` pairs each chain's position in the object walk's order
    (cells in planner order, a cell's chains in attribute order) with its
    compiled :class:`ChainSteps`, in that order.
    """

    def __init__(self, attribute: str, chains: Sequence[Tuple[int, ChainSteps]]) -> None:
        self._attribute = attribute
        self._chains = list(chains)

    @property
    def attribute(self) -> str:
        """The attribute the program serves."""
        return self._attribute

    @property
    def chains(self) -> List[ChainSteps]:
        """The compiled chains, in execution order."""
        return [steps for _position, steps in self._chains]

    # ------------------------------------------------------------------
    def segments(self, mapped) -> List[tuple]:
        """``(flatten, start, stop)`` of every chain with rows in ``mapped``.

        In chain order, ``mapped`` as for :meth:`run`, each chain's rows
        ``[start, stop)`` of the attribute's batch: the chains whose
        intensities the batch's estimate chooses, whose results :meth:`run`
        takes in this order.
        """
        if mapped is None:
            return []
        _batch, table = mapped
        rows = {key: (start, stop) for key, start, stop in table}
        return [(steps.flatten, *piece)
                for _position, steps in self._chains
                if (piece := rows.get(steps.cell_key)) is not None]

    def run(
        self,
        mapped,
        estimates: Sequence[tuple],
        deliver_batch,
        rows_per_cell: Dict[CellKey, int],
    ) -> List[Emission]:
        """Run one batch window of the attribute through its chains.

        ``mapped`` is the attribute's
        :data:`~repro.core.fabricator.MappedAttribute` (``None`` when no
        row arrived); ``estimates`` the ``(intensity, estimator name)`` of
        each of :meth:`segments`' chains, in that order; ``rows_per_cell``
        the rows every cell received across all attributes, which is what a
        chain's router counts in.  Every chain runs — router accounting,
        then flatten (report, counters and RNG draw) even when it got no
        rows, then the thin cascade and its taps.  Returns the discard
        pushes and the ``deliver_batch`` calls, tagged with their place in
        the object walk's order, for the caller to emit.
        """
        if mapped is None:
            batch, segments = TupleBatch.empty(self._attribute), []
        else:
            batch, segments = mapped
        t, x, y = batch.t, batch.x, batch.y
        segment_of = {
            key: (index, start, stop)
            for index, (key, start, stop) in enumerate(segments)
        }

        # Per chain: router accounting, and the chain's estimate.
        chosen = iter(estimates)
        flattened: Dict[CellKey, tuple] = {}
        for _position, steps in self._chains:
            index, start, stop = segment_of.get(steps.cell_key, (None, 0, 0))
            if steps.router is not None:
                steps.router.account_batch(
                    rows_per_cell.get(steps.cell_key, 0), stop - start
                )
            if index is None:
                steps.flatten.record_batch(0)
            else:
                flattened[steps.cell_key] = (steps.flatten, *next(chosen))

        # Once over all rows: Eq. (1) rates, Eq. (3) probabilities, keep
        # compare and counts; rows of cells without a chain are inert.
        starts, intensities, targets, rngs = [], [], [], []
        for key, start, _stop in segments:
            starts.append(start)
            entry = flattened.get(key)
            if entry is None:
                intensities.append(None)
                targets.append(0.0)
                rngs.append(None)
            else:
                flatten, intensity, _estimator = entry
                intensities.append(intensity)
                targets.append(flatten.target_expected)
                rngs.append(flatten.rng)
        result = flatten_segments(t, x, y, starts, intensities, targets, rngs)
        keep = result.keep_mask
        survivors = np.flatnonzero(keep)
        first_survivor = list(accumulate(result.retained, initial=0))

        # Per chain: report, discards, thin cascade and taps.
        emissions: List[Emission] = []
        picks: Dict[int, List[Tuple[int, int, np.ndarray]]] = {}
        for position, steps in self._chains:
            entry = flattened.get(steps.cell_key)
            if entry is None:
                continue
            flatten, _intensity, estimator = entry
            index, start, stop = segment_of[steps.cell_key]
            flatten.record_batch(
                stop - start,
                result.retained[index],
                result.violation_percent[index],
                result.shortfall_percent[index],
                estimator,
            )
            if flatten.emits_discarded:
                dropped = np.flatnonzero(~keep[start:stop]) + start
                emissions.append(
                    (position, 0, flatten._push_discarded, (batch.select(dropped),))
                )
            indices = survivors[first_survivor[index]:first_survivor[index + 1]]
            step = 0
            for level in steps.levels:
                indices = level.thin.thin_indices(indices)
                count = int(indices.shape[0])
                level_x: Optional[np.ndarray] = None
                level_y: Optional[np.ndarray] = None
                masks: Dict[tuple, np.ndarray] = {}
                for tap in level.taps:
                    step += 1
                    if tap.partition is None:
                        tap_indices = indices
                    else:
                        if count == 0:
                            # A partition that receives no tuple touches
                            # no counter on the object path either.
                            continue
                        if level_x is None:
                            level_x = x[indices]
                            level_y = y[indices]
                        mask = masks.get(tap.signature)
                        if mask is None:
                            mask = tap.partition.primary_mask(level_x, level_y)
                            masks[tap.signature] = mask
                        matched = int(np.count_nonzero(mask))
                        tap.partition.account_mask(count, matched)
                        if matched == 0:
                            continue
                        tap_indices = indices[mask]
                    if tap_indices.shape[0]:
                        picks.setdefault(tap.query_id, []).append(
                            (position, step, tap_indices)
                        )

        # Merge stage: one gather per query, delivered whole at its first tap.
        for query_id, taps in picks.items():
            gathered = batch.select(np.concatenate([rows for _p, _s, rows in taps]))
            position, step, _rows = taps[0]
            emissions.append((position, step, deliver_batch, (query_id, gathered)))
        return emissions

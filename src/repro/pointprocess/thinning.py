"""Independent thinning and rate flattening of event batches.

These are the mathematical kernels behind the Thin and Flatten PMAT
operators (paper Section IV-B.1):

* :func:`thin_events` — Bernoulli(p) retention of each event; thinning a
  Poisson process with a fixed probability yields another Poisson process
  whose rate is scaled by ``p``.
* :func:`thin_to_rate` — computes ``p = lambda2 / lambda1`` and applies
  :func:`thin_events` (the paper's Thin recipe).
* :func:`flatten_events` — location-dependent retention following Eq. (3):
  events in high-intensity areas are kept with lower probability so the
  surviving process is approximately homogeneous at the target rate.  The
  function reports the *percent rate violation* ``N_v``: the share of events
  whose retaining probability had to be clipped to 1, meaning the batch does
  not contain enough mass there to reach the target rate.
* :func:`flatten_segments` — the one Eq. (3) kernel: many batches (row
  segments, one intensity, target and generator each) in one pass.
  :func:`flatten_keep_mask` and :func:`flatten_events` are its one-segment
  case; the engine's compiled programs run it once per attribute over every
  cell's rows.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import numpy as np

from ..errors import PointProcessError
from ..rng import ensure_rng
from .events import EventBatch
from .intensity import IntensityModel, LinearIntensity


@dataclass(frozen=True)
class ThinningResult:
    """Outcome of a thinning or flattening pass over one batch.

    Attributes
    ----------
    retained:
        Events that survived.
    discarded:
        Events that were dropped (the paper notes they "can be stored
        separately").
    retain_probability:
        Per-event retaining probability actually used (after clipping).
    violation_percent:
        Percent of events whose raw retaining probability exceeded 1 — the
        paper's ``N_v``.  Zero for plain thinning.
    shortfall_percent:
        Percent of the requested retention target that the batch cannot
        supply: ``100 * max(0, target - sum(min(p_i, 1))) / target``.  Zero
        when the target is reachable.  This complements ``N_v``: when the
        estimated intensity is very uneven a single clipped event keeps
        ``N_v`` small even though the batch falls far short of the target,
        whereas the shortfall directly measures the missing mass.
    keep_mask:
        Boolean array aligned with the *input* batch marking which events
        survived; lets callers that carry richer tuples (values, sensor ids)
        apply the same decision to their own records.
    """

    retained: EventBatch
    discarded: EventBatch
    retain_probability: np.ndarray = field(default_factory=lambda: np.empty(0))
    violation_percent: float = 0.0
    shortfall_percent: float = 0.0
    keep_mask: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=bool))

    @property
    def retained_count(self) -> int:
        """Number of surviving events."""
        return len(self.retained)

    @property
    def discarded_count(self) -> int:
        """Number of dropped events."""
        return len(self.discarded)

    @property
    def input_count(self) -> int:
        """Number of events that entered the pass."""
        return self.retained_count + self.discarded_count


def thin_events(
    batch: EventBatch,
    probability: float,
    *,
    rng: Optional[np.random.Generator] = None,
) -> ThinningResult:
    """Retain each event independently with the given probability.

    Parameters
    ----------
    batch:
        Input events.
    probability:
        Retention probability ``p`` in ``(0, 1]``.
    rng:
        Random generator; a fresh default generator when omitted.
    """
    if not 0 < probability <= 1:
        raise PointProcessError(f"retention probability must be in (0, 1]; got {probability}")
    rng = ensure_rng(rng)
    if batch.is_empty:
        return ThinningResult(
            retained=batch,
            discarded=EventBatch.empty(),
            retain_probability=np.empty(0),
            keep_mask=np.empty(0, dtype=bool),
        )
    keep = rng.random(len(batch)) < probability
    probabilities = np.full(len(batch), probability)
    return ThinningResult(
        retained=batch.select(keep),
        discarded=batch.select(~keep),
        retain_probability=probabilities,
        keep_mask=keep,
    )


def thin_to_rate(
    batch: EventBatch,
    rate_in: float,
    rate_out: float,
    *,
    rng: Optional[np.random.Generator] = None,
) -> ThinningResult:
    """Thin a homogeneous batch from ``rate_in`` down to ``rate_out``.

    Implements the paper's Thin operator: ``p = rate_out / rate_in`` followed
    by Bernoulli retention.  ``rate_out`` must be strictly smaller than
    ``rate_in`` (the paper requires a strictly lower output rate).
    """
    if rate_in <= 0:
        raise PointProcessError("input rate must be strictly positive")
    if not 0 < rate_out < rate_in:
        raise PointProcessError(
            f"output rate must be in (0, rate_in) = (0, {rate_in}); got {rate_out}"
        )
    return thin_events(batch, rate_out / rate_in, rng=rng)


def _compensate_clipping(raw_probability: np.ndarray, target: float) -> np.ndarray:
    """Rescale capped retention probabilities so their sum reaches the target.

    Eq. (3) can assign probabilities above 1; clipping them loses retention
    mass and the surviving process under-shoots the requested rate even when
    the batch holds enough events.  This helper finds the scale factor
    ``c >= 1`` such that ``sum(min(c * p_i, 1)) = min(target, n)``, which
    preserves the inverse-intensity shape of Eq. (3) on the unclipped events
    while restoring the expected count whenever it is physically reachable.

    The left side is piecewise linear in ``c``: with the ``k`` largest
    probabilities clipped, the rest must supply ``target - k``, so
    ``c_k = (target - k) / tail_k`` where ``tail_k`` is the mass outside the
    ``k`` largest.  The answer is the first ``k`` whose next-largest
    probability stays unclipped, ``c_k * p_(k+1) <= 1`` (``k = n - 1``
    always qualifies) — one sort and one cumulative sum.
    """
    n = raw_probability.shape[0]
    reachable_target = min(target, float(n))
    capped = np.clip(raw_probability, 0.0, 1.0)
    if capped.sum() >= reachable_target - 1e-12:
        return capped
    ascending = np.sort(raw_probability)
    descending = ascending[::-1]
    tail = np.cumsum(ascending)[::-1]
    k = int(np.argmax((reachable_target - np.arange(n)) * descending <= tail))
    if tail[k] == 0.0:
        # Every positive probability is clipped and only zeros are left.
        return (raw_probability > 0.0).astype(float)
    return np.minimum((reachable_target - k) / tail[k] * raw_probability, 1.0)


#: Eq. (1) parameters ``(theta0..theta3, floor)`` of a segment the gather
#: does not evaluate; its rows are overwritten before they are used.
_UNGATHERED = (1.0, 0.0, 0.0, 0.0, 1.0)


def _segment_counts(flags: np.ndarray, bounds: np.ndarray) -> np.ndarray:
    """True-counts of ``flags`` per segment (exact: integers, empty segments 0)."""
    running = np.concatenate(([0], np.cumsum(flags)))
    return running[bounds[1:]] - running[bounds[:-1]]


@dataclass(frozen=True)
class SegmentedFlatten:
    """Outcome of :func:`flatten_segments`: row arrays plus per-segment metrics.

    The per-segment lists hold ``0`` / ``0.0`` for empty and inert segments.
    """

    keep_mask: np.ndarray
    retain_probability: np.ndarray
    retained: List[int]
    violation_percent: List[float]
    shortfall_percent: List[float]


def flatten_segments(
    t: np.ndarray,
    x: np.ndarray,
    y: np.ndarray,
    starts: Sequence[int],
    intensities: Sequence[Optional[IntensityModel]],
    targets: Sequence[float],
    rngs: Sequence[Optional[np.random.Generator]],
    *,
    compensate_clipping: bool = True,
) -> SegmentedFlatten:
    """Eq. (3) over consecutive row segments, each with its own intensity.

    Segment ``i`` is rows ``[starts[i], starts[i + 1])`` (the last one ends
    at ``len(t)``; ``starts[0]`` is 0) and is flattened to ``targets[i]``
    with ``intensities[i]``, drawing ``rngs[i].random(len)`` — exactly what
    a batch of only those rows gets from :func:`flatten_keep_mask`, which
    is this kernel with one segment.  An ``intensities[i]`` of ``None``
    marks an inert segment: its rows are carried, never kept, and draw
    nothing.

    Everything elementwise runs once over all rows: the Eq. (1) rate with
    theta gathered per row (other intensity models evaluate their own
    segment), the Eq. (3) probabilities and clip, the keep compare and the
    integer violation / kept counts.  What stays per segment is what must:
    the float sums (``lambda_c`` and the retained mass are slice
    ``.sum()``s — pairwise, like the one-segment sum; a sequential
    ``reduceat`` rounds differently), the clipping compensation of a
    segment whose capped mass falls short, and each segment's draw into its
    slice of one buffer (``random(out=)`` is the same stream as
    ``random(n)``).
    """
    edges = list(starts) + [t.shape[0]]
    bounds = np.array(edges, dtype=np.int64)
    lengths = np.diff(bounds)
    segments = list(zip(edges, edges[1:], intensities, targets, rngs))
    params = []
    ungathered = []
    for start, stop, intensity, _target, _rng in segments:
        if type(intensity) is LinearIntensity:
            params.append(
                (
                    intensity.theta0,
                    intensity.theta1,
                    intensity.theta2,
                    intensity.theta3,
                    intensity.min_rate,
                )
            )
        else:
            params.append(_UNGATHERED)
            if stop > start:
                ungathered.append((start, stop, intensity))
    theta0, theta1, theta2, theta3, floor = np.array(params, dtype=float).reshape(-1, 5).T
    # LinearIntensity.rate, ``max(((θ0 + θ1·t) + θ2·x) + θ3·y, floor)``, with
    # per-row theta: the same operations (additions commute exactly), in
    # place so the rows need two buffers, not one per term.
    rate = np.repeat(theta1, lengths)
    rate *= t
    rate += np.repeat(theta0, lengths)
    term = np.repeat(theta2, lengths)
    term *= x
    rate += term
    term = np.repeat(theta3, lengths)
    term *= y
    rate += term
    np.maximum(rate, np.repeat(floor, lengths), out=rate)
    for start, stop, intensity in ungathered:
        if intensity is None:
            rate[start:stop] = 1.0
        else:
            rate[start:stop] = intensity.rate(t[start:stop], x[start:stop], y[start:stop])
    if not np.all((rate > 0.0) & (rate < np.inf)):
        raise PointProcessError(
            "intensity must be finite and strictly positive at every event"
        )
    inverse = np.divide(1.0, rate, out=term)
    lambdas = []
    scaled_targets = []
    for start, stop, intensity, target, _rng in segments:
        if intensity is None:
            lambdas.append(1.0)
            scaled_targets.append(0.0)
        else:
            lambdas.append(float(inverse[start:stop].sum()))
            scaled_targets.append(target)
    # target / (rate · lambda_c), per row
    rate *= np.repeat(np.array(lambdas), lengths)
    raw_probability = np.repeat(np.array(scaled_targets, dtype=float), lengths)
    raw_probability /= rate
    violations = _segment_counts(raw_probability > 1.0, bounds)
    probability = np.clip(raw_probability, 0.0, 1.0)
    draws = np.empty(t.shape[0])
    violation_percent = []
    shortfall_percent = []
    for index, (start, stop, intensity, target, rng) in enumerate(segments):
        if intensity is None or stop == start:
            draws[start:stop] = 1.0
            violation_percent.append(0.0)
            shortfall_percent.append(0.0)
            continue
        expected_retained = float(probability[start:stop].sum())
        if compensate_clipping and expected_retained < min(target, float(stop - start)) - 1e-12:
            compensated = _compensate_clipping(raw_probability[start:stop], target)
            probability[start:stop] = compensated
            expected_retained = float(compensated.sum())
        violation_percent.append(100.0 * float(violations[index]) / (stop - start))
        shortfall_percent.append(
            100.0 * max(0.0, target - expected_retained) / target
        )
        rng.random(out=draws[start:stop])
    keep = draws < probability
    return SegmentedFlatten(
        keep_mask=keep,
        retain_probability=probability,
        retained=_segment_counts(keep, bounds).tolist(),  # craqr: ignore[CRQ401] - per segment, never per row
        violation_percent=violation_percent,
        shortfall_percent=shortfall_percent,
    )


@dataclass(frozen=True)
class ThinningMask:
    """Mask-only outcome of a flattening pass (no event materialisation).

    The compiled execution path composes keep-decisions as row indices and
    gathers tuple columns once at delivery, so it never needs the
    :class:`EventBatch` copies that :class:`ThinningResult` carries.
    """

    keep_mask: np.ndarray
    retain_probability: np.ndarray
    violation_percent: float = 0.0
    shortfall_percent: float = 0.0

    @property
    def retained_count(self) -> int:
        """Number of surviving events."""
        return int(np.count_nonzero(self.keep_mask))


def flatten_keep_mask(
    batch: EventBatch,
    intensity: IntensityModel,
    target_rate: float,
    *,
    compensate_clipping: bool = True,
    rng: Optional[np.random.Generator] = None,
) -> ThinningMask:
    """Mask-only variant of :func:`flatten_events`: one-segment :func:`flatten_segments`.

    Computes the same Eq. (3) probabilities, draws the same single
    ``rng.random(len(batch))`` vector (so a shared generator advances
    identically in both variants), and reports the same violation and
    shortfall metrics — but skips building the retained/discarded
    :class:`EventBatch` copies.
    """
    if target_rate <= 0:
        raise PointProcessError("target rate must be strictly positive")
    rng = ensure_rng(rng)
    if batch.is_empty:
        return ThinningMask(
            keep_mask=np.empty(0, dtype=bool),
            retain_probability=np.empty(0),
        )
    result = flatten_segments(
        batch.t,
        batch.x,
        batch.y,
        [0],
        [intensity],
        [target_rate],
        [rng],
        compensate_clipping=compensate_clipping,
    )
    return ThinningMask(
        keep_mask=result.keep_mask,
        retain_probability=result.retain_probability,
        violation_percent=result.violation_percent[0],
        shortfall_percent=result.shortfall_percent[0],
    )


def flatten_events(
    batch: EventBatch,
    intensity: IntensityModel,
    target_rate: float,
    *,
    compensate_clipping: bool = True,
    rng: Optional[np.random.Generator] = None,
) -> ThinningResult:
    """Flatten an inhomogeneous batch to an approximately homogeneous one.

    Implements Eq. (3) of the paper.  For each event ``i`` the retaining
    probability is::

        p_i = target_rate / (lambda~(t_i, x_i, y_i; theta) * lambda_c)

    where ``lambda_c = sum_i 1 / lambda~(t_i, x_i, y_i; theta)`` is constant
    over the batch.  Probabilities above 1 are *rate violations*: the batch
    does not carry enough events in that neighbourhood to reach the target
    rate.  They are clipped to 1 and the percentage of clipped events is
    reported as ``violation_percent`` (the paper's ``N_v``), which the budget
    tuner consumes.

    Notes
    -----
    With Eq. (3)'s normalisation ``sum_i p_i = target_rate`` (before any
    clipping), so ``target_rate`` plays the role of the *expected number of
    retained events in the batch*.  Callers that think in events per unit
    area and time should pass ``rate * area * duration``.  The retained
    events are distributed (approximately) uniformly over the batch's
    spatial extent because the retention probability is inversely
    proportional to the local intensity.

    When ``compensate_clipping`` is true (the default) the probabilities of
    unclipped events are rescaled so the expected retained count still
    reaches the target whenever the batch holds enough events; the paper's
    ``N_v`` is always computed from the raw, uncompensated Eq. (3)
    probabilities.
    """
    if target_rate <= 0:
        raise PointProcessError("target rate must be strictly positive")
    rng = ensure_rng(rng)
    if batch.is_empty:
        return ThinningResult(
            retained=batch,
            discarded=EventBatch.empty(),
            retain_probability=np.empty(0),
            violation_percent=0.0,
            keep_mask=np.empty(0, dtype=bool),
        )
    mask = flatten_keep_mask(
        batch, intensity, target_rate, compensate_clipping=compensate_clipping, rng=rng
    )
    keep = mask.keep_mask
    return ThinningResult(
        retained=batch.select(keep),
        discarded=batch.select(~keep),
        retain_probability=mask.retain_probability,
        violation_percent=mask.violation_percent,
        shortfall_percent=mask.shortfall_percent,
        keep_mask=keep,
    )

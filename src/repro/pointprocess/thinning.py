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
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from ..errors import PointProcessError
from ..rng import ensure_rng
from .events import EventBatch
from .intensity import IntensityModel


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


def _flatten_probabilities(
    batch: EventBatch,
    intensity: IntensityModel,
    target_rate: float,
    compensate_clipping: bool,
) -> "tuple[np.ndarray, float, float]":
    """Eq. (3) retention probabilities plus the violation/shortfall metrics.

    Shared by :func:`flatten_events` (which materialises the retained and
    discarded event batches) and :func:`flatten_keep_mask` (which returns
    only the Bernoulli decision).  The batch must be non-empty.
    """
    local_rate = np.asarray(intensity.rate(batch.t, batch.x, batch.y), dtype=float)
    if np.any(local_rate <= 0):
        raise PointProcessError("intensity must be strictly positive at every event")
    lambda_c = float(np.sum(1.0 / local_rate))
    raw_probability = target_rate / (local_rate * lambda_c)
    violations = raw_probability > 1.0
    violation_percent = 100.0 * float(np.count_nonzero(violations)) / len(batch)
    if compensate_clipping:
        probability = _compensate_clipping(raw_probability, target_rate)
    else:
        probability = np.clip(raw_probability, 0.0, 1.0)
    expected_retained = float(probability.sum())
    shortfall_percent = 100.0 * max(0.0, target_rate - expected_retained) / target_rate
    return probability, violation_percent, shortfall_percent


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
    """Mask-only variant of :func:`flatten_events`.

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
    probability, violation_percent, shortfall_percent = _flatten_probabilities(
        batch, intensity, target_rate, compensate_clipping
    )
    keep = rng.random(len(batch)) < probability
    return ThinningMask(
        keep_mask=keep,
        retain_probability=probability,
        violation_percent=violation_percent,
        shortfall_percent=shortfall_percent,
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
    probability, violation_percent, shortfall_percent = _flatten_probabilities(
        batch, intensity, target_rate, compensate_clipping
    )
    keep = rng.random(len(batch)) < probability
    return ThinningResult(
        retained=batch.select(keep),
        discarded=batch.select(~keep),
        retain_probability=probability,
        violation_percent=violation_percent,
        shortfall_percent=shortfall_percent,
        keep_mask=keep,
    )

"""Parameter estimation for the conditional intensity of Eq. (1).

The paper relies on two estimation modes (Section III-A and the Flatten
operator description):

* **Batch maximum likelihood** — given a batch of events observed on a
  known spatio-temporal window, fit the parameters ``theta`` of the linear
  conditional intensity by maximising the inhomogeneous-Poisson
  log-likelihood::

      l(theta) = sum_i log lambda~(t_i, x_i, y_i; theta)
                 - integral over window of lambda~(.; theta)

  The problem is four-dimensional and concave wherever the rate is
  positive at every event (gradient ``sum_i f_i / lambda_i - integral f``,
  Hessian ``-sum_i f_i f_i^T / lambda_i^2`` with ``f = (1, t, x, y)``), so
  :func:`fit_linear_intensity_mle` is a damped Newton iteration written
  here: features centred on the window, a flat feasible start, ten column
  sums and a spelled-out 4x4 solve per step, a fraction-to-the-boundary
  step rule that keeps every event's rate above a small floor, Armijo
  backtracking.  A feasible theta with a Newton decrement of at most
  ``1e-9`` is the global maximum; anything else is returned with
  ``converged=False`` and callers fall back to a constant rate — the
  likelihood is unbounded when the events leave enough of the window
  empty.  No BLAS or LAPACK call is involved, so a seeded fit is the same
  bits on every numpy build (``tests/property/test_estimation_kernels.py``
  pins one, and holds SciPy's L-BFGS-B as the oracle).
  :func:`fit_linear_intensity_mle_segments` runs that iteration over many
  batches at once, a block of rows at a time and one Newton step of every
  unfinished fit of the block per pass, each fit bit-identical to the fit
  alone; :func:`fit_linear_intensity_mle` is its one-batch case.  Both
  kernels take their segments as ``(batch, start, stop)`` rows of
  batches, read where they lie.

* **Online stochastic gradient descent** — the paper suggests maintaining
  the estimate over sliding windows with SGD (citing Bottou 2010).
  :class:`OnlineIntensityEstimator` performs per-event gradient steps on the
  same likelihood, so a Flatten operator can track a drifting intensity.
  The steps are sequential within one estimator's batch only:
  :func:`observe_segments` steps many estimators' batches at once, one
  event of each per pass, each bit-identical to its batch alone.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate, pairwise
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..errors import EstimationError
from ..geometry import Region, as_region
from .events import EventBatch
from .intensity import LinearIntensity

#: Positivity floor used inside likelihood evaluations.
_RATE_FLOOR = 1e-8


@dataclass(frozen=True)
class EstimationResult:
    """Result of fitting a linear conditional intensity.

    Attributes
    ----------
    intensity:
        The fitted :class:`LinearIntensity`.
    theta:
        The fitted parameter vector ``(theta0, theta1, theta2, theta3)``.
    log_likelihood:
        Log-likelihood of the data under the fitted model.
    converged:
        Whether the fit is what its name says.  For the MLE: theta is
        feasible (positive rate at every event) and the Newton decrement is
        within tolerance, which certifies the global maximum; a caller must
        not use the intensity of a fit that is not converged.
    iterations:
        Number of optimiser iterations (0 for closed-form fits).
    """

    intensity: LinearIntensity
    theta: Tuple[float, float, float, float]
    log_likelihood: float
    converged: bool
    iterations: int = 0


def _linear_rate(theta0, theta1, theta2, theta3, t, x, y):
    """The linear rate of Eq. (1) in the one evaluation order the SGD uses.

    Four separately rounded products summed left to right.  A dot product
    (``features @ theta``) is *not* equivalent: BLAS kernels fuse the
    multiply-adds and round differently from machine to machine, which
    made seeded online estimates depend on the BLAS build.
    """
    return ((theta0 + t * theta1) + x * theta2) + y * theta3


def _window_centroid(
    region: Region, t_start: float, t_end: float
) -> Tuple[float, float, float, float]:
    """``(volume, t_mid, cx, cy)`` of the window.

    ``(cx, cy)`` is the area-weighted centroid of the (possibly composite)
    region.
    """
    area, cx, cy = _region_moments(region)
    volume = area * (t_end - t_start)
    t_mid = 0.5 * (t_start + t_end)
    return float(volume), float(t_mid), float(cx), float(cy)


@lru_cache(maxsize=1024)
def _region_moments(region: Region) -> Tuple[float, float, float]:
    """``(area, cx, cy)`` of a region, memoised per (frozen) region.

    A chain's online estimator asks for its region's moments every batch;
    walking the rectangles each time cost more than the window arithmetic.
    """
    area = region.area
    cx = sum(r.center.x * r.area for r in region.rectangles) / area
    cy = sum(r.center.y * r.area for r in region.rectangles) / area
    return area, cx, cy


def _integral_of_basis(region: Region, t_start: float, t_end: float) -> np.ndarray:
    """Integral over the window of each basis function ``(1, t, x, y)``.

    For an affine basis these integrate exactly: the integral of a coordinate
    over a box equals its centroid value times the volume.
    """
    volume, t_mid, cx, cy = _window_centroid(region, t_start, t_end)
    return np.array([volume, t_mid * volume, cx * volume, cy * volume])


def _solve_spd_4x4(h, g):
    """Solve ``H d = g`` for a symmetric positive-definite 4x4 ``H``.

    ``h`` is the upper triangle ``(h00, h01, h02, h03, h11, h12, h13, h22,
    h23, h33)`` and ``g`` the right-hand side, all Python floats.  An
    ``L D L^T`` factorisation spelled out entry by entry: LAPACK would
    pivot and round per build, and the fitted theta is pinned to the bit.
    Returns ``None`` when a pivot is not positive (singular or indefinite
    to working precision).
    """
    h00, h01, h02, h03, h11, h12, h13, h22, h23, h33 = h
    g0, g1, g2, g3 = g
    if not h00 > 0.0:
        return None
    l10 = h01 / h00
    l20 = h02 / h00
    l30 = h03 / h00
    p1 = h11 - l10 * h01
    if not p1 > 0.0:
        return None
    l21 = (h12 - l20 * h01) / p1
    l31 = (h13 - l30 * h01) / p1
    p2 = (h22 - l20 * h02) - l21 * l21 * p1
    if not p2 > 0.0:
        return None
    l32 = ((h23 - l30 * h02) - l31 * l21 * p1) / p2
    p3 = ((h33 - l30 * h03) - l31 * l31 * p1) - l32 * l32 * p2
    if not p3 > 0.0:
        return None
    z1 = g1 - l10 * g0
    z2 = (g2 - l20 * g0) - l21 * z1
    z3 = ((g3 - l30 * g0) - l31 * z1) - l32 * z2
    d3 = z3 / p3
    d2 = z2 / p2 - l32 * d3
    d1 = (z1 / p1 - l21 * d2) - l31 * d3
    d0 = ((g0 / h00 - l10 * d1) - l20 * d2) - l30 * d3
    return d0, d1, d2, d3


def _runs(positions):
    """``(first, last)`` of each run of consecutive ints in ``positions`` (ascending)."""
    runs = []
    for position in positions:
        if runs and runs[-1][1] == position - 1:
            runs[-1][1] = position
        else:
            runs.append([position, position])
    return runs


def _close_up(rows, lengths, kept):
    """Close a Newton block's rows up over the segments not at positions ``kept``.

    ``rows`` holds the block's segments of ``lengths`` laid out in order;
    the rows of the kept segments (positions in ascending order) move down
    in place, in order, one slice per run of consecutive kept segments.
    Returns the kept segments' lengths.
    """
    bounds = list(accumulate(lengths, initial=0))
    width = 0
    for first, last in _runs(kept):
        a, b = bounds[first], bounds[last + 1]
        if a != width:
            rows[:, width:width + b - a] = rows[:, a:b]
        width += b - a
    return [lengths[position] for position in kept]


def _segment_rates(thetas, lengths, features, out):
    """:func:`_linear_rate` at each segment's rows of that segment's theta, into ``out``.

    ``thetas`` holds one theta per segment and ``lengths`` their row
    counts; ``features`` is the segments' ``(u, v, w)`` rows.  The thetas
    are spread over the rows by one ``np.repeat`` (as wide as the rows,
    never wider than a Newton block, and freed on return), whose rows then
    hold the four terms, summed in :func:`_linear_rate`'s order, each
    operand where it is there.
    """
    spread = np.repeat(np.array(thetas).T, lengths, axis=1)
    np.multiply(features, spread[1:], out=spread[1:])
    p0, p1, p2, p3 = spread
    np.add(p0, p1, out=p0)
    np.add(p0, p2, out=p0)
    return np.add(p0, p3, out=out)


#: Passes of the lockstep SGD laid out at once (:func:`observe_segments`).
_SGD_BLOCK = 32
#: Rows of consecutive segments the lockstep Newton solve works on at once
#: (:func:`fit_linear_intensity_mle_segments`; a longer segment is a block
#: alone).  Its scratch is 18 rows this wide, 0.6 MB.
_NEWTON_BLOCK = 4096
#: Newton decrement ``g . H^-1 g`` at or below which the fit has converged.
_NEWTON_TOLERANCE = 1e-9
#: Cap on Newton steps.  Captured engine fits (seed 42) take a median of 5.5
#: (``crowd_strict``), 6 (``flaky_ckpt``), 7 (``crowd_fast``) and 8
#: (``served``) steps, at most 10.
_NEWTON_MAX_ITERATIONS = 25
#: Fraction of the distance to the positivity boundary one step may cover.
_BOUNDARY_FRACTION = 0.95
#: Armijo sufficient-increase constant and cap on step halvings.
_ARMIJO = 1e-4
_MAX_HALVINGS = 30


def fit_linear_intensity_mle(
    batch: EventBatch,
    region,
    t_start: float,
    t_end: float,
    *,
    initial_theta: Optional[Sequence[float]] = None,
) -> EstimationResult:
    """Maximum-likelihood fit of the paper's linear conditional intensity.

    A damped Newton iteration on the four parameters, in features centred
    on the window (``u = t - t_mid``, ``v = x - cx``, ``w = y - cy``), where
    the compensator is exactly ``volume * phi0`` and the fit does not
    depend on where the window sits in time or space.  Every iterate keeps
    the rate above the floor at every event; on that (convex) set the
    likelihood is concave, so ``converged`` — a Newton decrement of at most
    ``1e-9`` at a feasible theta — certifies the global maximum.

    ``converged=False`` (a singular or non-ascent Newton system, a failed
    line search, or the iteration cap) comes back as a result, never as an
    exception: the likelihood is unbounded when the window's centroid lies
    outside the convex hull of the events, and callers must then not use
    the fit (``FlattenOperator`` takes its constant-rate fallback).  The
    returned theta is then the last iterate: finite, but possibly so large
    (1e9 and up) that evaluating it uncentred cancels to nothing.

    This is the one-segment case of
    :func:`fit_linear_intensity_mle_segments`, where the iteration is
    written out.

    Parameters
    ----------
    batch:
        Observed events.
    region, t_start, t_end:
        The observation window (needed for the compensator term).
    initial_theta:
        Optional starting point, used when its rate is above the floor at
        every event; the default start — and the fallback for an
        infeasible one — is the flat intensity at the empirical mean rate,
        which is always feasible.
    """
    return fit_linear_intensity_mle_segments(
        [batch], [(0, 0, len(batch))], [(region, t_start, t_end)], initial_thetas=[initial_theta]
    )[0]


def fit_linear_intensity_mle_segments(
    batches: Sequence,
    segments: Sequence[Tuple[int, int, int]],
    windows: Sequence[Tuple[object, float, float]],
    *,
    initial_thetas: Optional[Sequence[Optional[Sequence[float]]]] = None,
) -> List[EstimationResult]:
    """:func:`fit_linear_intensity_mle` over many row segments, in lockstep.

    Segment ``i``, ``segments[i] = (b, start, stop)``, is rows ``[start,
    stop)`` of ``batches[b]`` (anything with ``t``, ``x`` and ``y``
    columns: an :class:`EventBatch`, a ``TupleBatch``); segments may share
    a batch and need not cover it.  It is observed on ``windows[i] =
    (region, t_start, t_end)`` and started from ``initial_thetas[i]`` when
    given.  Result ``i`` is bit for bit the fit of a batch of only those
    rows — theta, log-likelihood, ``converged`` and ``iterations`` —
    whatever the other segments are; :func:`fit_linear_intensity_mle` is
    this function with one segment.

    The segments are solved a block at a time: consecutive segments of at
    most :data:`_NEWTON_BLOCK` rows together, a longer segment alone.  A
    block's rows are read where they lie, window-centred (one subtraction
    per run of segments adjacent in one batch), into one scratch buffer of
    18 rows, allocated once per call and as wide as the widest block, and
    the block iterates to the end before the next one starts: the call's
    working memory is bounded by the block, not the batch.  The block's
    segments run the same damped Newton iteration, one step at a time side
    by side.  What is elementwise runs once over the rows of the block's
    segments still iterating: ``1 / rate``, the fourteen gradient and
    Hessian products, the slope, the trial rates and their ``log``, each
    segment's direction or trial theta spread over its rows by one
    ``np.repeat`` no wider than the block.  What stays per segment is what must: the
    fourteen sums (one ``products[:, a:b].sum(axis=1)``: each row of the
    slice is summed pairwise, like a 1-D ``.sum()``; ``np.add.reduceat``
    sums sequentially and rounds differently), the 4x4 solve, the
    decrement, the step rule and the Armijo test on Python floats.  The
    feasibility and boundary tests take each segment's minimum / maximum
    with ``reduceat``, which is exact.  A segment that stops (converged or
    not) leaves the block, whose rows close up over it in place; a halving
    after a step's first trial runs over the rows from the first to the
    last segment still searching, and the sums read only those segments.

    Raises :class:`EstimationError` when a segment is empty or its window
    has no positive length (before any segment is fitted).
    """
    columns = [
        tuple(np.asarray(column, dtype=float) for column in (batch.t, batch.x, batch.y))
        for batch in batches
    ]
    count = len(windows)
    if len(segments) != count:
        raise EstimationError("need exactly one window per segment")
    if initial_thetas is None:
        initial_thetas = [None] * count
    elif len(initial_thetas) != count:
        raise EstimationError("need one initial theta (or None) per segment")
    lengths = [stop - start for _batch, start, stop in segments]
    regions = [as_region(region) for region, _t_start, _t_end in windows]
    if any(length <= 0 for length in lengths):
        raise EstimationError("cannot estimate an intensity from an empty batch")
    if any(t_end <= t_start for _region, t_start, t_end in windows):
        raise EstimationError("time window must have positive length")
    givens = [
        None if theta is None else np.asarray(theta, dtype=float)
        for theta in initial_thetas
    ]
    if any(given is not None and given.shape != (4,) for given in givens):
        raise EstimationError("initial theta must have four components")
    centres = [
        _window_centroid(region, t_start, t_end)
        for region, (_region, t_start, t_end) in zip(regions, windows)
    ]
    volumes = [volume for volume, _t_mid, _cx, _cy in centres]
    phis = [(n / volume, 0.0, 0.0, 0.0) for n, volume in zip(lengths, volumes)]
    likelihoods = [0.0] * count
    converged = [False] * count
    iterations = [0] * count

    blocks = []
    first = rows = 0
    for index, length in enumerate(lengths):
        if rows and rows + length > _NEWTON_BLOCK:
            blocks.append((first, index))
            first, rows = index, 0
        rows += length
    if count:
        blocks.append((first, count))
    # Per block row: the centred features u, v, w and the rate, then the
    # fourteen products (later the slope's ratio, the trial rates' logs).
    width = max((sum(lengths[first:last]) for first, last in blocks), default=0)
    scratch = np.empty((18, width))
    u, v, w, rate = features = scratch[:4]
    products = scratch[4:]
    _volume, t_mids, cxs, cys = np.array(centres, dtype=float).reshape(-1, 4).T
    for first, last in blocks:
        # The block's rows, centred on their windows (one subtraction per
        # run of segments adjacent in one batch), at the flat start n / V
        # or a given start that is feasible at every event.
        active = list(range(first, last))
        active_lengths = lengths[first:last]
        bounds = list(accumulate(active_lengths, initial=0))
        runs = []  # [first segment, last segment + 1, batch, start row, stop row]
        for index in active:
            source, start, stop = segments[index]
            if runs and runs[-1][2] == source and runs[-1][4] == start:
                runs[-1][1], runs[-1][4] = index + 1, stop
            else:
                runs.append([index, index + 1, source, start, stop])
        for run_first, run_last, source, start, stop in runs:
            a, b = bounds[run_first - first], bounds[run_last - first]
            for column, centre, out in zip(columns[source], (t_mids, cxs, cys), (u, v, w)):  # craqr: ignore[CRQ402] - three coordinates per run of segments, never per row
                spread = np.repeat(centre[run_first:run_last], lengths[run_first:run_last])
                np.subtract(column[start:stop], spread, out=out[a:b])
        rate[:bounds[-1]] = np.repeat([phis[index][0] for index in active], active_lengths)
        for index, a, b in zip(active, bounds, bounds[1:]):  # craqr: ignore[CRQ401,CRQ402] - one start per segment, never per row
            given = givens[index]
            if given is not None:
                _volume, t_mid, cx, cy = centres[index]
                s0, s1, s2, s3 = map(float, given)
                start_theta = (((s0 + t_mid * s1) + cx * s2) + cy * s3, s1, s2, s3)
                start_rate = _linear_rate(*start_theta, u[a:b], v[a:b], w[a:b])
                if start_rate.min() > _RATE_FLOOR:
                    phis[index] = start_theta
                    rate[a:b] = start_rate
            log_rate = np.log(rate[a:b], out=products[0, a:b])
            likelihoods[index] = float(log_rate.sum()) - volumes[index] * phis[index][0]

        while active:
            n = bounds[-1]
            # Gradient sum(f_i / rate_i) - integral(f) and the ten entries of
            # sum(f_i f_i^T / rate_i^2), f = (1, u, v, w): plain sums of 1-D
            # products, never a BLAS call (its rounding is build-dependent).
            # (r, ur, vr, wr) times r, ur times (ur, vr, wr), vr times (vr,
            # wr) and wr times wr: each product the same IEEE operation, rows
            # at a time.
            block = products[:, :n]
            r = np.divide(1.0, rate[:n], out=block[0])
            np.multiply(features[:3, :n], r, out=block[1:4])
            np.multiply(block[0:4], r, out=block[4:8])
            np.multiply(block[1], block[1:4], out=block[8:11])
            np.multiply(block[2], block[2:4], out=block[11:13])
            np.multiply(block[3], block[3], out=block[13])
            stepping = []
            directions = []
            decrements = []
            for position, index in enumerate(active):
                sums = block[:, bounds[position]:bounds[position + 1]].sum(axis=1).tolist()  # craqr: ignore[CRQ401] - fourteen sums per segment per Newton step, never per row
                gradient = (sums[0] - volumes[index], sums[1], sums[2], sums[3])
                direction = _solve_spd_4x4(sums[4:], gradient)
                if direction is None:
                    continue
                g0, g1, g2, g3 = gradient
                d0, d1, d2, d3 = direction
                decrement = ((g0 * d0 + g1 * d1) + g2 * d2) + g3 * d3
                if not decrement >= 0.0:
                    continue
                if decrement <= _NEWTON_TOLERANCE:
                    converged[index] = True
                    continue
                if iterations[index] == _NEWTON_MAX_ITERATIONS:
                    continue
                stepping.append(position)
                directions.append(direction)
                decrements.append(decrement)
            if len(stepping) < len(active):
                active_lengths = _close_up(features, active_lengths, stepping)
                active = [active[position] for position in stepping]
                bounds = list(accumulate(active_lengths, initial=0))
            if not active:
                break
            n = bounds[-1]

            # Fraction-to-the-boundary rule: event i reaches the floor at step
            # 1 / shrink_i, and a step covers at most 0.95 of the nearest such
            # distance; then Armijo backtracking on the log-likelihood.
            ratio = _segment_rates(directions, active_lengths, features[:3, :n], products[0, :n])
            np.negative(ratio, out=ratio)
            np.divide(ratio, np.subtract(rate[:n], _RATE_FLOOR, out=products[1, :n]), out=ratio)
            shrinks = np.maximum.reduceat(ratio, bounds[:-1])
            steps = [
                1.0 if shrink <= _BOUNDARY_FRACTION else _BOUNDARY_FRACTION / shrink
                for shrink in shrinks.tolist()  # craqr: ignore[CRQ401] - one boundary distance per segment per Newton step
            ]
            # Line search, the segments still searching side by side;
            # ``search`` holds their positions in ``active``.  A halving
            # evaluates the rows from the first to the last of them: a
            # segment accepted in between recomputes its accepted trial,
            # which nothing reads.
            search = list(range(len(active)))
            trials = [None] * len(active)
            for _ in range(_MAX_HALVINGS):
                for position in search:
                    phi, step = phis[active[position]], steps[position]
                    d0, d1, d2, d3 = directions[position]
                    trials[position] = (
                        phi[0] + step * d0, phi[1] + step * d1, phi[2] + step * d2, phi[3] + step * d3
                    )
                low, high = bounds[search[0]], bounds[search[-1] + 1]
                span = slice(search[0], search[-1] + 1)
                trial_rate = _segment_rates(
                    trials[span], active_lengths[span], features[:3, low:high], products[1, :high - low]
                )
                feasible = (
                    np.minimum.reduceat(trial_rate, [a - low for a in bounds[span]]) > _RATE_FLOOR
                )
                # Rows of an infeasible trial take the log of non-positive
                # rates; their sums are never used.
                with np.errstate(divide="ignore", invalid="ignore"):
                    log_trial = np.log(trial_rate, out=products[0, :high - low])
                unaccepted = []
                for position in search:  # craqr: ignore[CRQ401] - one Armijo test per segment per halving, never per row
                    index = active[position]
                    a, b = bounds[position] - low, bounds[position + 1] - low
                    if feasible[position - search[0]]:
                        trial = trials[position]
                        trial_likelihood = float(log_trial[a:b].sum()) - volumes[index] * trial[0]
                        if trial_likelihood >= (
                            likelihoods[index] + _ARMIJO * steps[position] * decrements[position]
                        ):
                            phis[index] = trial
                            likelihoods[index] = trial_likelihood
                            iterations[index] += 1
                            rate[low + a:low + b] = trial_rate[a:b]
                            continue
                    steps[position] *= 0.5
                    unaccepted.append(position)
                search = unaccepted
                if not search:
                    break
            # A segment whose line search failed stops here, unconverged.
            if search:
                failed = set(search)
                alive = [position for position in range(len(active)) if position not in failed]
                active_lengths = _close_up(features, active_lengths, alive)
                active = [active[position] for position in alive]
                bounds = list(accumulate(active_lengths, initial=0))

    results = []
    for index, (_volume, t_mid, cx, cy) in enumerate(centres):
        p0, p1, p2, p3 = phis[index]
        theta = (((p0 - p1 * t_mid) - p2 * cx) - p3 * cy, p1, p2, p3)
        results.append(
            EstimationResult(  # craqr: ignore[CRQ403] - one result per segment, never per row
                intensity=LinearIntensity.from_theta(theta),
                theta=theta,
                log_likelihood=likelihoods[index],
                converged=converged[index],
                iterations=iterations[index],
            )
        )
    return results



class OnlineIntensityEstimator:
    """Online SGD estimator of the linear conditional intensity.

    The paper proposes estimating ``theta`` over sliding windows with
    stochastic gradient descent so the Flatten operator can track drift.
    Each observed event contributes a stochastic gradient of the
    log-likelihood; the compensator term is approximated by spreading the
    window integral uniformly over the events observed in that window.

    Parameters
    ----------
    region, window_duration:
        The observation window geometry; needed for the compensator.
    learning_rate:
        Base SGD step size.  The effective step decays as ``1 / sqrt(k)``
        with the update count ``k`` (Bottou's schedule).
    initial_theta:
        Starting parameters; defaults to a small flat intensity.
    expected_events_per_window:
        Rough prior for how many events arrive per window; used to scale the
        per-event compensator share before any data has been seen.
    """

    def __init__(
        self,
        region,
        window_duration: float,
        *,
        learning_rate: float = 0.05,
        initial_theta: Optional[Sequence[float]] = None,
        expected_events_per_window: float = 50.0,
    ) -> None:
        if not 0 < window_duration < np.inf:
            raise EstimationError("window duration must be positive and finite")
        if not 0 < learning_rate < np.inf:
            raise EstimationError("learning rate must be positive and finite")
        if not 0 < expected_events_per_window < np.inf:
            raise EstimationError("expected events per window must be positive and finite")
        self._region = as_region(region)
        self._window_duration = float(window_duration)
        self._learning_rate = float(learning_rate)
        self._updates = 0
        self._events_in_window = expected_events_per_window
        if initial_theta is None:
            initial_theta = (1.0, 0.0, 0.0, 0.0)
        self._theta = np.asarray(initial_theta, dtype=float)
        if self._theta.shape != (4,):
            raise EstimationError("initial theta must have four components")

    # ------------------------------------------------------------------
    @property
    def theta(self) -> Tuple[float, float, float, float]:
        """The current parameter estimate."""
        return tuple(float(v) for v in self._theta)

    @property
    def intensity(self) -> LinearIntensity:
        """The current estimate as an intensity model."""
        return LinearIntensity.from_theta(self._theta)

    @property
    def updates(self) -> int:
        """Number of SGD updates applied so far."""
        return self._updates

    # ------------------------------------------------------------------
    def _per_event_compensator(self, t_window_start: float) -> np.ndarray:
        t_end = t_window_start + self._window_duration
        basis_integrals = _integral_of_basis(self._region, t_window_start, t_end)
        return basis_integrals / max(self._events_in_window, 1.0)

    def observe_event(self, t: float, x: float, y: float, *, window_start: Optional[float] = None) -> None:
        """Apply one SGD step for a single observed event."""
        window_start = window_start if window_start is not None else max(t - self._window_duration, 0.0)
        features = np.array([1.0, t, x, y])
        rate = max(float(_linear_rate(*self._theta.tolist(), t, x, y)), _RATE_FLOOR)
        gradient = features / rate - self._per_event_compensator(window_start)
        self._updates += 1
        step = self._learning_rate / np.sqrt(self._updates)
        self._theta = self._theta + step * gradient

    def observe_batch(
        self, batch: EventBatch, *, window_start: Optional[float] = None
    ) -> None:
        """Apply SGD steps for every event in a batch (in time order).

        This is n x :meth:`observe_event`, the reference the tests hold
        :meth:`observe_batch_fused` to; the engine runs the kernel.

        ``window_start`` anchors the compensator's observation window; it
        defaults to the batch's own earliest event time, so that batches
        starting at large simulation times integrate the basis over the
        window they were actually observed on (a fixed ``0.0`` anchor would
        bias the time-slope gradient more and more as time advances).
        """
        if batch.is_empty:
            return
        if window_start is None:
            window_start = float(np.min(batch.t))
        # Track the running average of events per window for the compensator.
        self._events_in_window = 0.7 * self._events_in_window + 0.3 * len(batch)
        ordered = batch.sorted_by_time()
        for t, x, y in zip(ordered.t, ordered.x, ordered.y):
            self.observe_event(float(t), float(x), float(y), window_start=window_start)

    def observe_batch_fused(
        self, batch: EventBatch, *, window_start: Optional[float] = None
    ) -> None:
        """The SGD kernel: :meth:`observe_batch`, bit for bit, in far fewer operations.

        The one-segment case of :func:`observe_segments`, where the kernel
        is written out; the engine steps every online chain's batch in one
        such call.
        """
        observe_segments([self], [batch], [(0, 0, len(batch))], [window_start])

    def result(self) -> EstimationResult:
        """Snapshot the current estimate as an :class:`EstimationResult`."""
        return EstimationResult(
            intensity=self.intensity,
            theta=self.theta,
            log_likelihood=float("nan"),
            converged=self._updates > 0,
            iterations=self._updates,
        )


def observe_segments(
    estimators: Sequence[OnlineIntensityEstimator],
    batches: Sequence,
    segments: Sequence[Tuple[int, int, int]],
    window_starts,
) -> None:
    """:meth:`OnlineIntensityEstimator.observe_batch` over row segments, in lockstep.

    Estimator ``i`` observes rows ``[start, stop)`` of ``batches[b]`` for
    ``segments[i] = (b, start, stop)`` (anything with ``t``, ``x`` and
    ``y`` columns; segments may share a batch and need not cover it), with
    its compensator anchored at ``window_starts[i]`` (``None``: the
    segment's earliest time).  Each
    estimator ends bit for bit where observing only its rows leaves it —
    theta (NaN and overflow included), update count and events-in-window
    average — whatever the other segments are; an empty segment leaves
    its estimator as it is.  The estimators must be distinct.

    The recurrence is sequential within a segment only.  The batch's
    set-up is the one-batch step's, computed as columns over the
    estimators with the same IEEE operations in the same order: the
    events-in-window average (updated once per batch, so the compensator
    is constant across its events; written back as Python floats), the
    compensator, the ``lr / sqrt(k)`` step schedule, and a stable time
    sort of each segment whose rows are not in time order already (the
    map phase sorts them).  Then pass ``k`` steps the ``k``-th event of
    every segment at once.  The segments are ranked longest first, so the
    ones still stepping are a prefix of the ``(4, segments)`` theta block,
    and their events one contiguous slice of the pass-major feature block
    ``(1, t, x, y)``, laid out :data:`_SGD_BLOCK` passes at a time: no
    padding, and the layout's memory is bounded by the block.  The block
    reads each event where it lies, a gather from each batch the segments
    use (a later batch's gather overwrites the events at or past its
    offset in the batches' order), never a copy of the batches.  A pass is
    seven ufuncs on those views, each the IEEE operation
    :meth:`~OnlineIntensityEstimator.observe_event` performs, operands in
    the same order — the rate ``((θ0 + t·θ1) + x·θ2) + y·θ3`` as four
    products (``1.0 * θ0`` is ``θ0``) summed by an axis-0
    ``np.add.reduce``, which adds the four rows in order, elementwise,
    starting from ``+0.0`` (so an all ``-0.0`` sum comes out ``+0.0``,
    and the floor takes both), never ``@`` or a reduction along a row,
    which round differently; floored by ``np.maximum`` (which keeps a
    NaN, as ``max`` does), and ``θ + step·(f / rate - c)``.
    Floating-point warnings are off: a diverging theta overflows to
    ``inf`` and ``nan`` silently, as Python floats do.  Each estimator gets
    back a ``(4,)`` theta of its own, never a view into the block.
    """
    if len(segments) != len(estimators) or len(window_starts) != len(estimators):
        raise EstimationError("need exactly one segment and one window start per estimator")
    sizes = [stop - start for _batch, start, stop in segments]
    ranked = sorted((index for index, size in enumerate(sizes) if size), key=lambda index: -sizes[index])
    if not ranked:
        return
    lengths = [sizes[index] for index in ranked]

    # The batches the segments use, in order, and each one's offset in
    # their row numbering; a segment's rows are numbered from its batch's.
    used = sorted({segments[index][0] for index in ranked})
    sources = [
        tuple(np.asarray(column, dtype=float) for column in (batches[b].t, batches[b].x, batches[b].y))
        for b in used
    ]
    bases = dict(zip(used, accumulate((t.shape[0] for t, _x, _y in sources), initial=0)))
    t_of = dict(zip(used, (t for t, _x, _y in sources)))
    firsts = list(accumulate(lengths, initial=0))
    origins = [bases[segments[index][0]] + segments[index][1] for index in ranked]
    rows = np.arange(firsts[-1]) + np.repeat(np.array(origins) - firsts[:-1], lengths)

    # Each segment's rows in time order, segment after segment: the map
    # phase hands over sorted rows, and a row before its predecessor in
    # time (or with a NaN time) puts its segment out of order unless it
    # starts the segment.
    unsorted = np.zeros(len(ranked), dtype=bool)
    for b in used:  # craqr: ignore[CRQ401] - one descent scan per batch, never per row
        t = t_of[b]
        positions = [position for position, index in enumerate(ranked) if segments[index][0] == b]
        descents = np.flatnonzero(~(t[1:] >= t[:-1])) + 1
        starts = [segments[ranked[position]][1] for position in positions]
        stops = [segments[ranked[position]][2] for position in positions]
        unsorted[positions] = (
            np.searchsorted(descents, stops) > np.searchsorted(descents, starts, side="right")
        )

    # The batch's set-up, as columns over the ranked estimators: the IEEE
    # operations of ``observe_batch`` and ``_per_event_compensator``, in
    # their order.
    chosen = [estimators[index] for index in ranked]
    window_start = np.array(
        [
            float(np.min(t_of[segments[index][0]][segments[index][1]:segments[index][2]]))
            if window_starts[index] is None else window_starts[index]
            for index in ranked
        ],
        dtype=float,
    )
    events = np.array([estimator._events_in_window for estimator in chosen], dtype=float)
    events = 0.7 * events + 0.3 * np.array(lengths)
    area, cx, cy = np.array([_region_moments(estimator._region) for estimator in chosen]).T
    t_end = window_start + np.array([estimator._window_duration for estimator in chosen])
    volume = area * (t_end - window_start)
    t_mid = 0.5 * (window_start + t_end)
    compensators = np.stack((volume, t_mid * volume, cx * volume, cy * volume))
    compensators /= np.maximum(events, 1.0)
    for position in np.flatnonzero(unsorted):
        batch, start, stop = segments[ranked[position]]
        rows[firsts[position]:firsts[position + 1]] = (
            origins[position] + np.argsort(t_of[batch][start:stop], kind="stable")
        )
    thetas = np.array([estimator._theta for estimator in chosen]).T.copy()
    updates = np.array([estimator._updates for estimator in chosen], dtype=np.int64)
    learning_rates = np.array([estimator._learning_rate for estimator in chosen])

    # Pass k steps the segments longer than k, ranks [0, widths[k]); a
    # block of passes is laid out pass-major, pass k's events one slice of
    # the block's (1, t, x, y) features.
    negated = [-length for length in lengths]
    widths = [bisect_left(negated, -k) for k in range(lengths[0])]
    scratch = np.empty((5, len(ranked)))  # the four terms (then the gradient), the rate
    with np.errstate(all="ignore"):
        for first_pass in range(0, lengths[0], _SGD_BLOCK):
            block = widths[first_pass:first_pass + _SGD_BLOCK]
            offsets = list(accumulate(block, initial=0))
            rank = np.arange(offsets[-1]) - np.repeat(offsets[:-1], block)
            event = np.repeat(np.arange(first_pass, first_pass + len(block)), block)
            order = rows[np.asarray(firsts[:-1])[rank] + event]
            steps = learning_rates[rank] / np.sqrt(updates[rank] + event + 1)
            features = np.empty((4, order.shape[0]))
            features[0] = 1.0
            for row, column in zip(features[1:], sources[0]):  # craqr: ignore[CRQ402] - the three feature rows, never per row
                column.take(order, out=row, mode="clip")
            for base, source in zip(list(bases.values())[1:], sources[1:]):  # craqr: ignore[CRQ402] - one gather per further batch, never per row
                local = order - base
                past = local >= 0
                for row, column in zip(features[1:], source):  # craqr: ignore[CRQ402] - the three feature rows, never per row
                    np.copyto(row, column.take(local, mode="clip"), where=past)
            for start, stop in pairwise(offsets):
                width = stop - start
                f = features[:, start:stop]
                theta = thetas[:, :width]
                g = np.multiply(f, theta, out=scratch[:4, :width])
                r = np.add.reduce(g, axis=0, out=scratch[4, :width])
                np.maximum(r, _RATE_FLOOR, out=r)
                np.divide(f, r, out=g)
                np.subtract(g, compensators[:, :width], out=g)
                np.multiply(steps[start:stop], g, out=g)
                np.add(theta, g, out=theta)

    # A checkpoint admits no numpy scalar: the averages go back as floats.
    for position, (estimator, average) in enumerate(zip(chosen, events.tolist())):  # craqr: ignore[CRQ401] - one average per estimator, never per row
        estimator._events_in_window = average
        estimator._updates += lengths[position]
        estimator._theta = thetas[:, position].copy()

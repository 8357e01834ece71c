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
  batches at once, one Newton step of every unfinished fit per pass, each
  fit bit-identical to the fit alone; :func:`fit_linear_intensity_mle` is
  its one-batch case.

* **Online stochastic gradient descent** — the paper suggests maintaining
  the estimate over sliding windows with SGD (citing Bottou 2010).
  :class:`OnlineIntensityEstimator` performs per-event gradient steps on the
  same likelihood, so a Flatten operator can track a drifting intensity.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..errors import EstimationError, PointProcessError
from ..geometry import Rectangle, RectRegion, Region
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


def _window_volume(region: Region, t_start: float, t_end: float) -> float:
    return region.area * (t_end - t_start)


def _coerce_region(region) -> Region:
    if isinstance(region, Rectangle):
        return RectRegion(region)
    if isinstance(region, Region):
        return region
    raise PointProcessError(f"expected Region or Rectangle, got {type(region)!r}")


def _window_centroid(
    region: Region, t_start: float, t_end: float
) -> Tuple[float, float, float, float]:
    """``(volume, t_mid, cx, cy)`` of the window.

    ``(cx, cy)`` is the area-weighted centroid of the (possibly composite)
    region.
    """
    volume = _window_volume(region, t_start, t_end)
    t_mid = 0.5 * (t_start + t_end)
    total_area = region.area
    cx = sum(r.center.x * r.area for r in region.rectangles) / total_area
    cy = sum(r.center.y * r.area for r in region.rectangles) / total_area
    return float(volume), float(t_mid), float(cx), float(cy)


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


def _segment_rows(positions, arrays, lengths):
    """The rows of the consecutive segments at ``positions``, per array.

    ``lengths`` are the lengths of the segments the arrays hold, in order.
    """
    flags = np.zeros(len(lengths), dtype=bool)
    flags[positions] = True
    rows = np.repeat(flags, lengths)
    return [array[rows] for array in arrays]


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
        batch.t,
        batch.x,
        batch.y,
        [0],
        [(region, t_start, t_end)],
        initial_thetas=[initial_theta],
    )[0]


def fit_linear_intensity_mle_segments(
    t: np.ndarray,
    x: np.ndarray,
    y: np.ndarray,
    starts: Sequence[int],
    windows: Sequence[Tuple[object, float, float]],
    *,
    initial_thetas: Optional[Sequence[Optional[Sequence[float]]]] = None,
) -> List[EstimationResult]:
    """:func:`fit_linear_intensity_mle` over consecutive row segments, in lockstep.

    Segment ``i`` is rows ``[starts[i], starts[i + 1])`` (the last one ends
    at ``len(t)``; ``starts[0]`` is 0), observed on ``windows[i] = (region,
    t_start, t_end)`` and started from ``initial_thetas[i]`` when given.
    Result ``i`` is bit for bit the fit of a batch of only those rows —
    theta, log-likelihood, ``converged`` and ``iterations`` — whatever the
    other segments are; :func:`fit_linear_intensity_mle` is this function
    with one segment.

    Every segment runs the same damped Newton iteration, one step at a
    time side by side.  What is elementwise runs once over the rows of the
    segments still iterating: ``1 / rate``, the fourteen gradient and
    Hessian products, the slope, the trial rates and their ``log``.  What
    stays per segment is what must: the fourteen sums (one
    ``products[:, a:b].sum(axis=1)``: each row of the slice is summed
    pairwise, like a 1-D ``.sum()``; ``np.add.reduceat`` sums sequentially
    and rounds differently), the 4x4 solve, the decrement, the step rule
    and the Armijo test on Python floats.  The feasibility and boundary
    tests take each segment's minimum / maximum with ``reduceat``, which is
    exact.  A segment that stops (converged or not) leaves the row arrays;
    so does, within one step's line search, a segment whose trial was
    accepted.

    Raises :class:`EstimationError` when a segment is empty or its window
    has no positive length (before any segment is fitted).
    """
    t = np.asarray(t, dtype=float)
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    edges = [int(start) for start in starts] + [t.shape[0]]
    count = len(windows)
    if len(edges) != count + 1:
        raise EstimationError("need exactly one window per segment")
    if initial_thetas is None:
        initial_thetas = [None] * count
    elif len(initial_thetas) != count:
        raise EstimationError("need one initial theta (or None) per segment")
    lengths = [stop - start for start, stop in zip(edges, edges[1:])]
    regions = [_coerce_region(region) for region, _t_start, _t_end in windows]
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

    # Window-centred features: per-row centres, the same subtraction.
    _volume, t_mids, cxs, cys = np.array(centres, dtype=float).reshape(-1, 4).T
    u = t - np.repeat(t_mids, lengths)
    v = x - np.repeat(cxs, lengths)
    w = y - np.repeat(cys, lengths)

    # The flat start n / V, or a given start that is feasible at every event.
    phis = [(n / volume, 0.0, 0.0, 0.0) for n, volume in zip(lengths, volumes)]
    rate = np.repeat(np.array([phi[0] for phi in phis]), lengths)
    for index, given in enumerate(givens):
        if given is None:
            continue
        _volume, t_mid, cx, cy = centres[index]
        s0, s1, s2, s3 = map(float, given)
        start = (((s0 + t_mid * s1) + cx * s2) + cy * s3, s1, s2, s3)
        a, b = edges[index], edges[index + 1]
        start_rate = _linear_rate(*start, u[a:b], v[a:b], w[a:b])
        if start_rate.min() > _RATE_FLOOR:
            phis[index] = start
            rate[a:b] = start_rate
    log_rate = np.log(rate)
    likelihoods = [
        float(log_rate[a:b].sum()) - volume * phi[0]
        for a, b, volume, phi in zip(edges, edges[1:], volumes, phis)
    ]
    converged = [False] * count
    iterations = [0] * count

    # The segments still iterating, in row order; u, v, w and rate hold
    # only their rows.
    active = list(range(count))
    active_lengths = lengths
    while active:
        bounds = list(accumulate(active_lengths, initial=0))
        # Gradient sum(f_i / rate_i) - integral(f) and the ten entries of
        # sum(f_i f_i^T / rate_i^2), f = (1, u, v, w): plain sums of 1-D
        # products, never a BLAS call (its rounding is build-dependent).
        products = np.empty((14, rate.shape[0]))
        r = np.divide(1.0, rate, out=products[0])
        ur = np.multiply(u, r, out=products[1])
        vr = np.multiply(v, r, out=products[2])
        wr = np.multiply(w, r, out=products[3])
        np.multiply(r, r, out=products[4])
        np.multiply(ur, r, out=products[5])
        np.multiply(vr, r, out=products[6])
        np.multiply(wr, r, out=products[7])
        np.multiply(ur, ur, out=products[8])
        np.multiply(ur, vr, out=products[9])
        np.multiply(ur, wr, out=products[10])
        np.multiply(vr, vr, out=products[11])
        np.multiply(vr, wr, out=products[12])
        np.multiply(wr, wr, out=products[13])
        stepping = []
        directions = []
        decrements = []
        for position, index in enumerate(active):
            sums = products[:, bounds[position]:bounds[position + 1]].sum(axis=1).tolist()  # craqr: ignore[CRQ401] - fourteen sums per segment per Newton step, never per row
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
            u, v, w, rate = _segment_rows(stepping, (u, v, w, rate), active_lengths)
            active = [active[position] for position in stepping]
            active_lengths = [active_lengths[position] for position in stepping]
            bounds = list(accumulate(active_lengths, initial=0))
        if not active:
            break

        # Fraction-to-the-boundary rule: event i reaches the floor at step
        # 1 / shrink_i, and a step covers at most 0.95 of the nearest such
        # distance; then Armijo backtracking on the log-likelihood.
        slope = _linear_rate(
            *np.repeat(np.array(directions).T, active_lengths, axis=1), u, v, w
        )
        shrinks = np.maximum.reduceat(-slope / (rate - _RATE_FLOOR), bounds[:-1])
        steps = [
            1.0 if shrink <= _BOUNDARY_FRACTION else _BOUNDARY_FRACTION / shrink
            for shrink in shrinks.tolist()  # craqr: ignore[CRQ401] - one boundary distance per segment per Newton step
        ]
        # Line search, the segments still searching side by side; ``search``
        # holds their positions in ``active`` and ``su, sv, sw`` their rows.
        search = list(range(len(active)))
        su, sv, sw = u, v, w
        search_lengths = active_lengths
        next_rate = rate
        for _ in range(_MAX_HALVINGS):
            trials = []
            for position in search:
                phi, step = phis[active[position]], steps[position]
                d0, d1, d2, d3 = directions[position]
                trials.append(
                    (phi[0] + step * d0, phi[1] + step * d1, phi[2] + step * d2, phi[3] + step * d3)
                )
            trial_rate = _linear_rate(
                *np.repeat(np.array(trials).T, search_lengths, axis=1), su, sv, sw
            )
            search_bounds = list(accumulate(search_lengths, initial=0))
            feasible = np.minimum.reduceat(trial_rate, search_bounds[:-1]) > _RATE_FLOOR
            # Rows of an infeasible trial take the log of non-positive
            # rates; their sums are never used.
            with np.errstate(divide="ignore", invalid="ignore"):
                log_trial = np.log(trial_rate)
            if next_rate is rate:
                # The first trial covers every active row: accepted
                # segments' rows are already in place.
                next_rate = trial_rate
            unaccepted = []
            for slot, position in enumerate(search):
                index = active[position]
                a, b = search_bounds[slot], search_bounds[slot + 1]
                if feasible[slot]:
                    trial = trials[slot]
                    trial_likelihood = float(log_trial[a:b].sum()) - volumes[index] * trial[0]
                    if trial_likelihood >= (
                        likelihoods[index] + _ARMIJO * steps[position] * decrements[position]
                    ):
                        phis[index] = trial
                        likelihoods[index] = trial_likelihood
                        iterations[index] += 1
                        if next_rate is not trial_rate:
                            next_rate[bounds[position]:bounds[position + 1]] = trial_rate[a:b]
                        continue
                steps[position] *= 0.5
                unaccepted.append(slot)
            if len(unaccepted) < len(search):
                su, sv, sw = _segment_rows(unaccepted, (su, sv, sw), search_lengths)
                search = [search[slot] for slot in unaccepted]
                search_lengths = [search_lengths[slot] for slot in unaccepted]
            if not search:
                break
        # A segment whose line search failed stops here, unconverged.
        rate = next_rate
        if search:
            failed = set(search)
            alive = [position for position in range(len(active)) if position not in failed]
            u, v, w, rate = _segment_rows(alive, (u, v, w, rate), active_lengths)
            active = [active[position] for position in alive]
            active_lengths = [active_lengths[position] for position in alive]

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
        if window_duration <= 0:
            raise EstimationError("window duration must be positive")
        if learning_rate <= 0:
            raise EstimationError("learning rate must be positive")
        if expected_events_per_window <= 0:
            raise EstimationError("expected events per window must be positive")
        self._region = _coerce_region(region)
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
        """The SGD kernel the engine runs: :meth:`observe_batch` in plain floats.

        Bit-identical to the reference loop.  The recurrence is inherently
        sequential (each step's rate depends on the previous theta), so
        the kernel is a per-event Python loop by nature; what it removes
        is the interpreter work around the arithmetic.  Everything
        loop-invariant within one batch is hoisted (``_events_in_window``
        is updated once per batch, so the compensator is constant across
        its events; the ``1/sqrt(k)`` step schedule is one array op), the
        sorted columns are unboxed once with ``.tolist()``, and theta and
        the compensator live in eight float locals: every step is the same
        IEEE operations :meth:`observe_event` performs on 4-element
        arrays, without the arrays.
        """
        if batch.is_empty:
            return
        if window_start is None:
            window_start = float(np.min(batch.t))
        self._events_in_window = 0.7 * self._events_in_window + 0.3 * len(batch)
        ordered = batch.sorted_by_time()
        n = len(ordered)
        c0, c1, c2, c3 = self._per_event_compensator(window_start).tolist()
        steps = self._learning_rate / np.sqrt(
            np.arange(self._updates + 1, self._updates + n + 1, dtype=np.int64)
        )
        theta0, theta1, theta2, theta3 = self._theta.tolist()
        for t, x, y, step in zip(
            ordered.t.tolist(), ordered.x.tolist(), ordered.y.tolist(), steps.tolist()
        ):
            # _linear_rate, written out: same operands, same order.
            rate = ((theta0 + t * theta1) + x * theta2) + y * theta3
            if rate < _RATE_FLOOR:  # a NaN rate stays NaN, as max(rate, floor) keeps it
                rate = _RATE_FLOOR
            theta0 = theta0 + step * (1.0 / rate - c0)
            theta1 = theta1 + step * (t / rate - c1)
            theta2 = theta2 + step * (x / rate - c2)
            theta3 = theta3 + step * (y / rate - c3)
        self._updates += n
        self._theta = np.array([theta0, theta1, theta2, theta3])

    def result(self) -> EstimationResult:
        """Snapshot the current estimate as an :class:`EstimationResult`."""
        return EstimationResult(
            intensity=self.intensity,
            theta=self.theta,
            log_likelihood=float("nan"),
            converged=self._updates > 0,
            iterations=self._updates,
        )

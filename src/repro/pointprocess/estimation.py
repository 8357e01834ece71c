"""Parameter estimation for the conditional intensity of Eq. (1).

The paper relies on two estimation modes (Section III-A and the Flatten
operator description):

* **Batch maximum likelihood** — given a batch of events observed on a
  known spatio-temporal window, fit the parameters ``theta`` of the linear
  conditional intensity by maximising the inhomogeneous-Poisson
  log-likelihood::

      l(theta) = sum_i log lambda~(t_i, x_i, y_i; theta)
                 - integral over window of lambda~(.; theta)

  We optimise with SciPy's L-BFGS-B using a softplus-free positivity guard
  (the linear rate is clamped at a small floor inside the likelihood).

* **Online stochastic gradient descent** — the paper suggests maintaining
  the estimate over sliding windows with SGD (citing Bottou 2010).
  :class:`OnlineIntensityEstimator` performs per-event gradient steps on the
  same likelihood, so a Flatten operator can track a drifting intensity.

A cheap method-of-moments / least-squares initialiser based on quadrat
counts is also provided; it is used to seed the MLE and as a fallback when
the optimiser fails.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np
from scipy import optimize

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
        Whether the optimiser reported convergence.
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


def _design_matrix(batch: EventBatch) -> np.ndarray:
    """Design matrix with columns ``(1, t, x, y)``."""
    return np.column_stack(
        [np.ones(len(batch)), batch.t, batch.x, batch.y]
    )


def _integral_of_basis(region: Region, t_start: float, t_end: float) -> np.ndarray:
    """Integral over the window of each basis function ``(1, t, x, y)``.

    For an affine basis these integrate exactly: the integral of a coordinate
    over a box equals its midpoint value times the volume.
    """
    volume = _window_volume(region, t_start, t_end)
    t_mid = 0.5 * (t_start + t_end)
    # Area-weighted centroid of the (possibly composite) region.
    total_area = region.area
    cx = sum(r.center.x * r.area for r in region.rectangles) / total_area
    cy = sum(r.center.y * r.area for r in region.rectangles) / total_area
    return np.array([volume, t_mid * volume, cx * volume, cy * volume])


def _least_squares_theta(
    batch: EventBatch, region: Region, t_start: float, t_end: float, bins: int = 4
) -> np.ndarray:
    """``theta`` of the quadrat-count least-squares fit (validated inputs).

    Events are assigned to the ``bins x bins x bins`` boxes with one
    ``searchsorted`` per axis and one ``bincount``: index ``k`` of an axis
    means ``edges[k - 1] <= v < edges[k]``, so the outer slots ``0`` and
    ``bins + 1`` of the padded histogram collect the events outside the
    window and are cut off.  Rows keep the ``(t, x, y)`` box order and
    every floating-point expression of the per-box loop this replaces
    (``tests/property/test_estimation_kernels.py`` holds that loop as the
    oracle), so fits are bit-identical to it.
    """
    bbox = region.bounding_box
    t_edges = np.linspace(t_start, t_end, bins + 1)
    x_edges = np.linspace(bbox.x_min, bbox.x_max, bins + 1)
    y_edges = np.linspace(bbox.y_min, bbox.y_max, bins + 1)

    # The region's overlap with a box depends on its spatial footprint
    # only: bins^2 areas serve all bins^3 boxes.
    areas = np.empty((bins, bins))
    for xi in range(bins):
        for yi in range(bins):
            cell = RectRegion(Rectangle(  # craqr: ignore[CRQ403] - per spatial quadrat (bins^2 of them), never per event
                x_edges[xi], y_edges[yi], x_edges[xi + 1], y_edges[yi + 1]
            ))
            areas[xi, yi] = region.overlap_area(cell)

    padded = bins + 2
    box = (
        np.searchsorted(t_edges, batch.t, side="right") * padded
        + np.searchsorted(x_edges, batch.x, side="right")
    ) * padded + np.searchsorted(y_edges, batch.y, side="right")
    counts = np.bincount(box, minlength=padded**3).reshape(padded, padded, padded)[
        1:-1, 1:-1, 1:-1
    ]

    occupied = np.broadcast_to(areas > 0, counts.shape)
    if np.count_nonzero(occupied) < 4:
        raise EstimationError("not enough occupied quadrats to fit four parameters")
    volumes = areas * np.diff(t_edges)[:, None, None]
    target = counts[occupied] / volumes[occupied]
    design = np.empty(counts.shape + (4,))
    design[..., 0] = 1.0
    design[..., 1] = (0.5 * (t_edges[:-1] + t_edges[1:]))[:, None, None]
    design[..., 2] = (0.5 * (x_edges[:-1] + x_edges[1:]))[:, None]
    design[..., 3] = 0.5 * (y_edges[:-1] + y_edges[1:])
    theta, *_ = np.linalg.lstsq(design[occupied], target, rcond=None)
    return theta


def fit_linear_intensity_least_squares(
    batch: EventBatch,
    region,
    t_start: float,
    t_end: float,
    *,
    bins: int = 4,
) -> EstimationResult:
    """Quadrat-count least-squares fit of the linear intensity.

    The window is split into ``bins x bins x bins`` spatio-temporal boxes,
    the empirical rate of each box is computed, and ``theta`` is obtained by
    ordinary least squares of the box rates against the box centroids.  This
    is a method-of-moments style estimator: cheap, closed form, and a good
    initialiser for the MLE.
    """
    region = _coerce_region(region)
    if t_end <= t_start:
        raise EstimationError("time window must have positive length")
    if bins <= 0:
        raise EstimationError("bins must be positive")
    if batch.is_empty:
        raise EstimationError("cannot estimate an intensity from an empty batch")
    theta = _least_squares_theta(batch, region, t_start, t_end, bins)
    return EstimationResult(
        intensity=LinearIntensity.from_theta(theta),
        theta=tuple(float(v) for v in theta),
        log_likelihood=_log_likelihood(theta, batch, region, t_start, t_end),
        converged=True,
        iterations=0,
    )


def _log_likelihood(
    theta: Sequence[float],
    batch: EventBatch,
    region: Region,
    t_start: float,
    t_end: float,
) -> float:
    """Inhomogeneous-Poisson log-likelihood of the linear model."""
    design = _design_matrix(batch)
    rates = design @ np.asarray(theta, dtype=float)
    rates = np.maximum(rates, _RATE_FLOOR)
    basis_integrals = _integral_of_basis(region, t_start, t_end)
    compensator = float(np.dot(basis_integrals, theta))
    return float(np.sum(np.log(rates)) - compensator)


def fit_linear_intensity_mle(
    batch: EventBatch,
    region,
    t_start: float,
    t_end: float,
    *,
    initial_theta: Optional[Sequence[float]] = None,
    max_iterations: int = 200,
) -> EstimationResult:
    """Maximum-likelihood fit of the paper's linear conditional intensity.

    Parameters
    ----------
    batch:
        Observed events.
    region, t_start, t_end:
        The observation window (needed for the compensator term).
    initial_theta:
        Optional starting point; defaults to the least-squares fit, falling
        back to a flat intensity at the empirical mean rate.
    """
    region = _coerce_region(region)
    if batch.is_empty:
        raise EstimationError("cannot estimate an intensity from an empty batch")
    if t_end <= t_start:
        raise EstimationError("time window must have positive length")

    if initial_theta is None:
        try:
            initial_theta = _least_squares_theta(batch, region, t_start, t_end)
        except EstimationError:
            mean_rate = len(batch) / _window_volume(region, t_start, t_end)
            initial_theta = (mean_rate, 0.0, 0.0, 0.0)
    theta0 = np.asarray(initial_theta, dtype=float)
    if theta0.shape != (4,):
        raise EstimationError("initial theta must have four components")

    design = _design_matrix(batch)
    basis_integrals = _integral_of_basis(region, t_start, t_end)

    def negative_log_likelihood(theta: np.ndarray) -> float:
        rates = design @ theta
        rates = np.maximum(rates, _RATE_FLOOR)
        return float(np.dot(basis_integrals, theta) - np.sum(np.log(rates)))

    def gradient(theta: np.ndarray) -> np.ndarray:
        rates = design @ theta
        rates = np.maximum(rates, _RATE_FLOOR)
        return basis_integrals - design.T @ (1.0 / rates)

    result = optimize.minimize(
        negative_log_likelihood,
        theta0,
        jac=gradient,
        method="L-BFGS-B",
        options={"maxiter": max_iterations},
    )
    theta_hat = result.x
    intensity = LinearIntensity.from_theta(theta_hat)
    return EstimationResult(
        intensity=intensity,
        theta=tuple(float(v) for v in theta_hat),
        log_likelihood=float(-result.fun),
        converged=bool(result.success),
        iterations=int(result.nit),
    )


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
            rate = _linear_rate(theta0, theta1, theta2, theta3, t, x, y)
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

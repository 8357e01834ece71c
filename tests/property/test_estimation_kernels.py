"""Property tests pinning the estimation kernels to their references.

``OnlineIntensityEstimator.observe_batch_fused`` (the plain-float SGD
kernel the engine runs) must land on exactly the bits of
``observe_batch`` (n x ``observe_event``).  ``fit_linear_intensity_mle``
(damped Newton) is held to its own certificate — a feasible theta with a
Newton decrement within tolerance is the global maximum — and to SciPy's
L-BFGS-B, the solver it replaced, kept here, under ``tests/``, as an
oracle started from the quadrat least-squares theta.  The engine runs it as
``fit_linear_intensity_mle_segments``, many fits in lockstep; the per-fit
Newton body that preceded it is kept here too, and every segment must
land on its bits.
"""

import pathlib
import subprocess
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import optimize

from repro.core.pmat import FlattenOperator
from repro.errors import EstimationError
from repro.geometry import CompositeRegion, Rectangle, RectRegion
from repro.pointprocess import (
    EstimationResult,
    EventBatch,
    LinearIntensity,
    OnlineIntensityEstimator,
    fit_linear_intensity_mle,
    fit_linear_intensity_mle_segments,
)
from repro.pointprocess import estimation
from repro.pointprocess.estimation import (
    _ARMIJO,
    _BOUNDARY_FRACTION,
    _MAX_HALVINGS,
    _NEWTON_MAX_ITERATIONS,
    _NEWTON_TOLERANCE,
    _RATE_FLOOR,
    _coerce_region,
    _linear_rate,
    _solve_spd_4x4,
    _window_centroid,
)
from repro.streams import SensorTuple, TupleBatch

UNIT = Rectangle(0.0, 0.0, 1.0, 1.0)


def bits(values) -> bytes:
    """Exact float64 identity (NaN == NaN, -0.0 != 0.0)."""
    return np.asarray(values, dtype=float).tobytes()


# ----------------------------------------------------------------------------
# SGD kernel == n x observe_event
# ----------------------------------------------------------------------------

#: Quarter-step times tie often (the stable sort must keep arrival order);
#: free floats cover the rest.
event_times = st.one_of(
    st.integers(min_value=0, max_value=8).map(lambda k: k / 4.0),
    st.floats(min_value=0.0, max_value=2.0),
)
unit_coordinates = st.floats(min_value=0.0, max_value=1.0)


@st.composite
def sgd_batches(draw):
    """One batch plus how to present it: dtype, slicing, window anchor."""
    rows = draw(
        st.lists(st.tuples(event_times, unit_coordinates, unit_coordinates), max_size=25)
    )
    offset = draw(st.sampled_from([0.0, 10.0, 1000.0]))
    dtype = draw(st.sampled_from([np.float64, np.float32]))
    t, x, y = (
        np.array([row[axis] for row in rows], dtype=dtype) for axis in range(3)
    )
    t += offset
    if draw(st.booleans()):
        # Non-contiguous views: every other element of a doubled column.
        t, x, y = (np.repeat(column, 2)[::2] for column in (t, x, y))
    batch = EventBatch(t, x, y)
    window_start = draw(st.sampled_from([None, offset, offset - 0.5]))
    return batch, window_start


@st.composite
def initial_thetas(draw):
    """Ordinary starts, and starts that sit on (or below) the rate floor."""
    if draw(st.booleans()):
        return (1.0, 0.0, 0.0, 0.0)
    return (
        draw(st.sampled_from([-5.0, 0.0, 1e-9])),
        draw(st.sampled_from([0.0, -1.0])),
        0.0,
        draw(st.sampled_from([0.0, -2.0])),
    )


#: ``float.hex`` of theta after the three seeded batches below.
PINNED_THETA = [
    "0x1.352e2cb4d6acep+1",
    "0x1.137f38693b753p+0",
    "0x1.83b4c05651bc6p+0",
    "0x1.bb203ec98f4dbp-2",
]


class TestSgdKernel:
    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(sgd_batches(), min_size=1, max_size=4),
        initial_thetas(),
        st.sampled_from([0.05, 0.3, 2.0]),
    )
    def test_kernel_is_the_per_event_reference_exactly(
        self, batches, initial_theta, learning_rate
    ):
        def estimator():
            return OnlineIntensityEstimator(
                UNIT, 1.0, learning_rate=learning_rate, initial_theta=initial_theta
            )

        reference, kernel = estimator(), estimator()
        for batch, window_start in batches:
            reference.observe_batch(batch, window_start=window_start)
            kernel.observe_batch_fused(batch, window_start=window_start)
            assert bits(kernel._theta) == bits(reference._theta)
            assert kernel.updates == reference.updates
            assert kernel._events_in_window == reference._events_in_window
            assert kernel._theta.dtype == np.float64
            assert kernel._theta.shape == (4,)

    def test_single_event_on_the_rate_floor(self):
        # theta (0, 0, 0, 0) puts the rate exactly on the floor: one step of
        # size lr * (features / 1e-8 - compensator).
        reference = OnlineIntensityEstimator(UNIT, 1.0, initial_theta=(0.0,) * 4)
        kernel = OnlineIntensityEstimator(UNIT, 1.0, initial_theta=(0.0,) * 4)
        batch = EventBatch.from_rows([(0.25, 0.5, 0.75)])
        reference.observe_batch(batch)
        kernel.observe_batch_fused(batch)
        assert kernel.updates == 1
        assert kernel.theta[0] > 1e5
        assert bits(kernel._theta) == bits(reference._theta)

    def test_nan_rate_is_not_floored(self):
        # max(nan, floor) keeps the NaN; the kernel's comparison must too.
        start = (float("nan"), 0.0, 0.0, 0.0)
        reference = OnlineIntensityEstimator(UNIT, 1.0, initial_theta=start)
        kernel = OnlineIntensityEstimator(UNIT, 1.0, initial_theta=start)
        batch = EventBatch.from_rows([(0.1, 0.2, 0.3), (0.4, 0.5, 0.6)])
        reference.observe_batch(batch)
        kernel.observe_batch_fused(batch)
        assert np.isnan(kernel._theta).all()
        assert bits(kernel._theta) == bits(reference._theta)

    def test_pinned_theta_after_three_seeded_batches(self):
        # The online path's golden: full-precision theta, so a numpy/BLAS
        # build (or an edit) that changes one rounding anywhere in the
        # recurrence fails here on every CI python.
        rng = np.random.default_rng(20150413)
        estimator = OnlineIntensityEstimator(
            Rectangle(0.0, 0.0, 2.0, 1.0), 1.0, learning_rate=0.2
        )
        for k in range(3):
            n = 40 + 15 * k
            batch = EventBatch(
                k + rng.random(n), 2.0 * rng.random(n), rng.random(n) ** 2
            )
            estimator.observe_batch_fused(batch, window_start=float(k))
        assert estimator.updates == 165
        assert [v.hex() for v in estimator.theta] == PINNED_THETA


# ----------------------------------------------------------------------------
# Where the L-BFGS-B oracle starts: the quadrat least-squares theta
# ----------------------------------------------------------------------------


def least_squares_by_box_loop(batch, region, t_start, t_end, bins=4):
    """Quadrat-count least-squares theta: where :func:`mle_by_lbfgsb` starts.

    The window is cut into ``bins`` boxes per axis, and theta is the ordinary
    least-squares fit of each box's empirical rate against its centre.  One
    pass over every ``(t, x, y)`` box, six full-length comparisons and one
    overlap computation each.
    """
    bbox = region.bounding_box
    t_edges = np.linspace(t_start, t_end, bins + 1)
    x_edges = np.linspace(bbox.x_min, bbox.x_max, bins + 1)
    y_edges = np.linspace(bbox.y_min, bbox.y_max, bins + 1)
    rows, targets = [], []
    for ti in range(bins):
        for xi in range(bins):
            for yi in range(bins):
                cell = Rectangle(x_edges[xi], y_edges[yi], x_edges[xi + 1], y_edges[yi + 1])
                cell_area = region.overlap_area(RectRegion(cell))
                if cell_area <= 0:
                    continue
                duration = t_edges[ti + 1] - t_edges[ti]
                in_cell = (
                    (batch.t >= t_edges[ti])
                    & (batch.t < t_edges[ti + 1])
                    & (batch.x >= x_edges[xi])
                    & (batch.x < x_edges[xi + 1])
                    & (batch.y >= y_edges[yi])
                    & (batch.y < y_edges[yi + 1])
                )
                count = int(np.count_nonzero(in_cell))
                rows.append(
                    [
                        1.0,
                        0.5 * (t_edges[ti] + t_edges[ti + 1]),
                        0.5 * (x_edges[xi] + x_edges[xi + 1]),
                        0.5 * (y_edges[yi] + y_edges[yi + 1]),
                    ]
                )
                targets.append(count / (cell_area * duration))
    if len(rows) < 4:
        raise EstimationError("not enough occupied quadrats to fit four parameters")
    theta, *_ = np.linalg.lstsq(np.asarray(rows), np.asarray(targets), rcond=None)
    return theta


#: A rectangle, an L whose bounding box has an empty corner, and two
#: diagonal squares whose bounding box is half empty.
REGIONS = [
    RectRegion(Rectangle(0.0, 0.0, 1.0, 1.0)),
    RectRegion(Rectangle(-3.0, 2.0, 0.5, 2.7)),
    CompositeRegion((Rectangle(0.0, 0.0, 2.0, 1.0), Rectangle(0.0, 1.0, 1.0, 2.0))),
    CompositeRegion((Rectangle(0.0, 0.0, 1.0, 1.0), Rectangle(1.0, 1.0, 2.0, 2.0))),
]


# ----------------------------------------------------------------------------
# Newton MLE: its certificate, its oracle, its bytes
# ----------------------------------------------------------------------------


def window_centre(region, t_start, t_end):
    """``(volume, (t_mid, cx, cy))`` of the window, computed independently."""
    area = sum(r.area for r in region.rectangles)
    cx = sum(0.5 * (r.x_min + r.x_max) * r.area for r in region.rectangles) / area
    cy = sum(0.5 * (r.y_min + r.y_max) * r.area for r in region.rectangles) / area
    return area * (t_end - t_start), (0.5 * (t_start + t_end), cx, cy)


def certificate(theta, batch, region, t_start, t_end):
    """``(min rate, Newton decrement, log-likelihood)`` of ``theta``.

    Recomputed with numpy's linear algebra on window-centred features; the
    log-likelihood is the unclamped one, ``-inf`` at an infeasible theta.
    """
    volume, (t_mid, cx, cy) = window_centre(region, t_start, t_end)
    features = np.column_stack(
        [np.ones(len(batch)), batch.t - t_mid, batch.x - cx, batch.y - cy]
    )
    phi = np.array(
        [theta[0] + theta[1] * t_mid + theta[2] * cx + theta[3] * cy, *theta[1:]]
    )
    rate = features @ phi
    if rate.min() <= 0:
        return rate.min(), np.inf, -np.inf
    scaled = features / rate[:, None]
    gradient = scaled.sum(axis=0) - np.array([volume, 0.0, 0.0, 0.0])
    decrement = gradient @ np.linalg.solve(scaled.T @ scaled, gradient)
    return rate.min(), decrement, float(np.log(rate).sum() - volume * phi[0])


def mle_by_lbfgsb(batch, region, t_start, t_end):
    """The fit as it was before the Newton solver: the oracle.

    SciPy's L-BFGS-B on the floor-clamped likelihood, started from
    :func:`least_squares_by_box_loop` (the flat rate when that fails).  Returns
    ``(theta, success)``; ``success`` is false whenever the start has a
    non-positive rate at some event (the clamp breaks the line search).
    """
    volume, centre = window_centre(region, t_start, t_end)
    try:
        start = least_squares_by_box_loop(batch, region, t_start, t_end)
    except EstimationError:
        start = np.array([len(batch) / volume, 0.0, 0.0, 0.0])
    design = np.column_stack([np.ones(len(batch)), batch.t, batch.x, batch.y])
    basis_integrals = volume * np.array([1.0, *centre])

    def negative_log_likelihood(theta):
        rates = np.maximum(design @ theta, _RATE_FLOOR)
        return float(basis_integrals @ theta - np.log(rates).sum())

    def gradient(theta):
        rates = np.maximum(design @ theta, _RATE_FLOOR)
        return basis_integrals - design.T @ (1.0 / rates)

    result = optimize.minimize(
        negative_log_likelihood, start, jac=gradient, method="L-BFGS-B",
        options={"maxiter": 200},
    )
    return result.x, bool(result.success)


@st.composite
def mle_fits(draw):
    """A window and 20-80 events in its bounding box, skewed per axis."""
    region = draw(st.sampled_from(REGIONS))
    t_start = draw(st.sampled_from([0.0, 7.25, 1000.0]))
    t_end = t_start + draw(st.sampled_from([0.5, 1.0, 3.0]))
    bbox = region.bounding_box
    powers = [draw(st.sampled_from([0.4, 1.0, 2.5])) for _ in range(3)]
    rows = draw(
        st.lists(
            st.tuples(*[st.floats(min_value=0.0, max_value=1.0)] * 3),
            min_size=20,
            max_size=80,
        )
    )
    unit = np.array(rows) ** powers
    batch = EventBatch(
        t_start + (t_end - t_start) * unit[:, 0],
        bbox.x_min + bbox.width * unit[:, 1],
        bbox.y_min + bbox.height * unit[:, 2],
    )
    return batch, region, t_start, t_end


def seeded_batch(seed, n=120, *, t_start=0.0, x_min=0.0, y_min=0.0):
    """A skewed batch on the unit window, moved to ``(t_start, x_min, y_min)``."""
    rng = np.random.default_rng(seed)
    return EventBatch(
        t_start + rng.random(n),
        x_min + rng.random(n) ** 0.6,
        y_min + rng.random(n) ** 1.7,
    )


#: ``float.hex`` of theta fitted to ``seeded_batch(20150413)`` moved to the
#: cell [6, 7] x [2, 3] at t = 1000 (6 Newton steps from the flat start).
PINNED_MLE_THETA = [
    "-0x1.2a4726b7ac6f9p+15",
    "0x1.2bb11a551616ap+5",
    "0x1.503698cd8efe1p+7",
    "-0x1.b5519cbe6db90p+6",
]


class TestNewtonMle:
    @settings(max_examples=150, deadline=None)
    @given(mle_fits())
    def test_converged_means_feasible_stationary_and_no_worse_than_lbfgsb(self, fit):
        batch, region, t_start, t_end = fit
        result = fit_linear_intensity_mle(batch, region, t_start, t_end)
        assert result.iterations <= 25
        assert np.all(np.isfinite(result.theta))
        if not result.converged:
            return
        min_rate, decrement, log_likelihood = certificate(
            result.theta, batch, region, t_start, t_end
        )
        assert min_rate > 0
        assert decrement <= 1e-8
        assert result.log_likelihood == pytest.approx(log_likelihood, rel=1e-9, abs=1e-9)
        theta, success = mle_by_lbfgsb(batch, region, t_start, t_end)
        # Only a feasible theta has a likelihood: the oracle's clamped
        # objective scores a negative-rate event at log(floor) while the
        # negative region still subtracts from the compensator.
        oracle = certificate(theta, batch, region, t_start, t_end)[2]
        if success and np.isfinite(oracle):
            assert log_likelihood >= oracle - 1e-9 * max(1.0, abs(oracle))

    def test_seeded_skewed_batches_all_converge(self):
        # The certificate test is vacuous on fits that do not converge;
        # ordinary batches (events all over the window) always must.
        for seed in range(40):
            batch = seeded_batch(seed, n=30 + 5 * seed)
            result = fit_linear_intensity_mle(batch, UNIT, 0.0, 1.0)
            assert result.converged, seed
            assert result.iterations <= 12, seed
            assert result.intensity.theta == result.theta

    @pytest.mark.parametrize(
        "shift", [(1e3, 0.0, 0.0), (1e6, 0.0, 0.0), (0.0, 250.0, -4000.0), (1e6, -30.5, 7e3)]
    )
    def test_fitted_rates_do_not_depend_on_where_the_window_sits(self, shift):
        dt, dx, dy = shift
        for seed in range(5):
            base = seeded_batch(seed)
            moved = seeded_batch(seed, t_start=dt, x_min=dx, y_min=dy)
            here = fit_linear_intensity_mle(base, UNIT, 0.0, 1.0)
            there = fit_linear_intensity_mle(
                moved, Rectangle(dx, dy, dx + 1.0, dy + 1.0), dt, dt + 1.0
            )
            assert here.converged and there.converged
            assert there.iterations == here.iterations
            # 1e-9 of the batch's largest rate: handing theta back uncentred
            # costs an ulp of slope x 1e6 (~1e-8 absolute) at t = 1e6.
            rates = here.intensity.rate(base.t, base.x, base.y)
            assert there.intensity.rate(moved.t, moved.x, moved.y) == pytest.approx(
                rates, rel=0.0, abs=1e-9 * rates.max()
            )
            assert there.log_likelihood == pytest.approx(here.log_likelihood, rel=1e-9)

    def test_infeasible_start_falls_back_to_the_flat_rate(self):
        batch = seeded_batch(3)
        default = fit_linear_intensity_mle(batch, UNIT, 0.0, 1.0)
        for start in [(-5.0, 0.0, 0.0, 0.0), (10.0, 0.0, -400.0, 0.0), (0.0,) * 4]:
            result = fit_linear_intensity_mle(batch, UNIT, 0.0, 1.0, initial_theta=start)
            assert bits(result.theta) == bits(default.theta)
            assert result.iterations == default.iterations

    def test_feasible_start_is_used(self):
        batch = seeded_batch(3)
        default = fit_linear_intensity_mle(batch, UNIT, 0.0, 1.0)
        assert default.iterations > 2
        # Restarted at the maximum there is nothing left to do ...
        warm = fit_linear_intensity_mle(
            batch, UNIT, 0.0, 1.0, initial_theta=default.theta
        )
        assert warm.converged and warm.iterations == 0
        assert warm.theta == pytest.approx(default.theta, rel=1e-12)
        # ... and from any other feasible point it ends at the same maximum.
        other = fit_linear_intensity_mle(
            batch, UNIT, 0.0, 1.0, initial_theta=(300.0, 10.0, -20.0, 5.0)
        )
        assert other.converged
        assert other.theta == pytest.approx(default.theta, rel=1e-6)
        assert other.log_likelihood == pytest.approx(default.log_likelihood, abs=1e-8)

    def test_degenerate_batches_are_results_not_exceptions(self):
        rng = np.random.default_rng(8)
        for batch in [
            EventBatch.from_rows([(0.5, 0.5, 0.5)]),
            EventBatch.from_rows([(0.1, 0.2, 0.3), (0.5, 0.5, 0.9), (0.9, 0.1, 0.4)]),
            EventBatch(rng.random(30), np.full(30, 0.3), np.full(30, 0.7)),
            EventBatch(rng.random(40), np.linspace(0, 1, 40), np.linspace(0, 1, 40)),
        ]:
            result = fit_linear_intensity_mle(batch, UNIT, 0.0, 1.0)
            assert not result.converged
            assert result.iterations <= 25
            assert np.all(np.isfinite(result.theta))

    def test_pinned_theta_of_one_seeded_fit(self):
        # The MLE path's golden: no BLAS or LAPACK call sits between the
        # columns and theta, so every CI python must print these bits.
        batch = seeded_batch(20150413, t_start=1000.0, x_min=6.0, y_min=2.0)
        result = fit_linear_intensity_mle(
            batch, Rectangle(6.0, 2.0, 7.0, 3.0), 1000.0, 1001.0
        )
        assert result.converged
        assert result.iterations == 6
        assert [v.hex() for v in result.theta] == PINNED_MLE_THETA


class TestUnboundedLikelihood:
    """Events confined to one half of a cell: no maximum, no MLE, no silence."""

    CELL = Rectangle(6.0, 6.0, 8.0, 8.0)

    def half_cell_batch(self):
        # The window's centroid (y = 7) lies outside the events' convex
        # hull (y < 6.84): raising theta along -y grows the likelihood
        # without bound.
        rng = np.random.default_rng(91)
        return EventBatch(
            40.0 + rng.random(91), 6.0 + 2.0 * rng.random(91), 6.0 + 0.84 * rng.random(91)
        )

    def test_fit_reports_non_convergence(self):
        result = fit_linear_intensity_mle(self.half_cell_batch(), self.CELL, 40.0, 41.0)
        assert not result.converged
        assert result.iterations <= 25
        assert np.all(np.isfinite(result.theta))
        assert np.isfinite(result.log_likelihood)

    def test_flatten_falls_back_to_the_constant_rate_on_both_walks(self):
        events = self.half_cell_batch()
        items = [
            SensorTuple(
                tuple_id=i, attribute="rain", t=float(t), x=float(x), y=float(y),
                value=True, sensor_id=i,
            )
            for i, (t, x, y) in enumerate(zip(events.t, events.x, events.y))
        ]
        walk, kernel = (
            FlattenOperator(5.0, region=self.CELL, rng=np.random.default_rng(4))
            for _ in range(2)
        )
        for item in items:
            walk.accept(item)
        walk.flush()
        mask = kernel.process_batch_mask(TupleBatch.from_tuples(items))
        assert [r.estimator for r in walk.reports] == ["constant"]
        assert walk.reports == kernel.reports
        assert int(np.count_nonzero(mask)) == walk.reports[0].retained
        # A batch that does cover the cell is flattened by its fit.
        spread = TupleBatch.from_tuples(
            [
                SensorTuple(
                    tuple_id=i, attribute="rain", t=40.0 + u, x=6.0 + 2.0 * v,
                    y=6.0 + 2.0 * w, value=True, sensor_id=i,
                )
                for i, (u, v, w) in enumerate(np.random.default_rng(5).random((91, 3)).tolist())
            ]
        )
        kernel.process_batch_mask(spread)
        assert kernel.reports[-1].estimator == "mle"


# ----------------------------------------------------------------------------
# Lockstep Newton over segments == each fit alone
# ----------------------------------------------------------------------------


def newton_fit_alone(batch, region, t_start, t_end, *, initial_theta=None):
    """The Newton fit of one batch as it was written before the lockstep
    solve: the oracle.

    The per-fit body, verbatim, that ``fit_linear_intensity_mle_segments``
    runs in lockstep; its constants are this module's names, so a test
    can lower the caps on both sides.
    """
    region = _coerce_region(region)
    if batch.is_empty:
        raise EstimationError("cannot estimate an intensity from an empty batch")
    if t_end <= t_start:
        raise EstimationError("time window must have positive length")

    volume, t_mid, cx, cy = _window_centroid(region, t_start, t_end)
    u = batch.t - t_mid
    v = batch.x - cx
    w = batch.y - cy

    phi = (len(batch) / volume, 0.0, 0.0, 0.0)
    rate = np.full(len(batch), phi[0])
    if initial_theta is not None:
        given = np.asarray(initial_theta, dtype=float)
        if given.shape != (4,):
            raise EstimationError("initial theta must have four components")
        s0, s1, s2, s3 = map(float, given)
        start = (((s0 + t_mid * s1) + cx * s2) + cy * s3, s1, s2, s3)
        start_rate = _linear_rate(*start, u, v, w)
        if start_rate.min() > _RATE_FLOOR:
            phi, rate = start, start_rate
    log_likelihood = float(np.log(rate).sum()) - volume * phi[0]

    converged = False
    iterations = 0
    while True:
        # Gradient sum(f_i / rate_i) - integral(f) and the ten entries of
        # sum(f_i f_i^T / rate_i^2), f = (1, u, v, w): plain sums of 1-D
        # products, never a BLAS call (its rounding is build-dependent).
        r = 1.0 / rate
        ur = u * r
        vr = v * r
        wr = w * r
        gradient = (
            float(r.sum()) - volume,
            float(ur.sum()),
            float(vr.sum()),
            float(wr.sum()),
        )
        hessian = (
            float((r * r).sum()),
            float((ur * r).sum()),
            float((vr * r).sum()),
            float((wr * r).sum()),
            float((ur * ur).sum()),
            float((ur * vr).sum()),
            float((ur * wr).sum()),
            float((vr * vr).sum()),
            float((vr * wr).sum()),
            float((wr * wr).sum()),
        )
        direction = _solve_spd_4x4(hessian, gradient)
        if direction is None:
            break
        g0, g1, g2, g3 = gradient
        d0, d1, d2, d3 = direction
        decrement = ((g0 * d0 + g1 * d1) + g2 * d2) + g3 * d3
        if not decrement >= 0.0:
            break
        if decrement <= _NEWTON_TOLERANCE:
            converged = True
            break
        if iterations == _NEWTON_MAX_ITERATIONS:
            break

        # Fraction-to-the-boundary rule: event i reaches the floor at step
        # 1 / shrink_i, and a step covers at most 0.95 of the nearest such
        # distance; then Armijo backtracking on the log-likelihood.
        slope = _linear_rate(*direction, u, v, w)
        shrink = float((-slope / (rate - _RATE_FLOOR)).max())
        step = 1.0 if shrink <= _BOUNDARY_FRACTION else _BOUNDARY_FRACTION / shrink
        for _ in range(_MAX_HALVINGS):
            trial = (
                phi[0] + step * d0,
                phi[1] + step * d1,
                phi[2] + step * d2,
                phi[3] + step * d3,
            )
            trial_rate = _linear_rate(*trial, u, v, w)
            if trial_rate.min() > _RATE_FLOOR:
                trial_likelihood = float(np.log(trial_rate).sum()) - volume * trial[0]
                if trial_likelihood >= log_likelihood + _ARMIJO * step * decrement:
                    break
            step *= 0.5
        else:
            break
        phi, rate, log_likelihood = trial, trial_rate, trial_likelihood
        iterations += 1

    theta = (((phi[0] - phi[1] * t_mid) - phi[2] * cx) - phi[3] * cy, phi[1], phi[2], phi[3])
    return EstimationResult(
        intensity=LinearIntensity.from_theta(theta),
        theta=theta,
        log_likelihood=log_likelihood,
        converged=converged,
        iterations=iterations,
    )


def fit_bits(result):
    """Everything a fit reports, exactly: theta and log-likelihood as hex."""
    return (
        [value.hex() for value in result.theta],
        result.log_likelihood.hex(),
        result.converged,
        result.iterations,
    )


def cap_batch():
    """60 events on the unit window left of its centroid, x < 0.5, whose
    Newton iterates run into the 25-step cap (found by a seed search)."""
    rng = np.random.default_rng(2361)
    return EventBatch(rng.random(60) ** 0.5, 0.5 * rng.random(60), rng.random(60) ** 0.5)


#: numpy's pairwise sum works in blocks of 8 inside blocks of 128: the edges
newton_lengths = st.one_of(
    st.sampled_from([4, 7, 8, 9, 127, 128, 129, 255, 256, 257]), st.integers(4, 400)
)


@st.composite
def newton_segments(draw):
    """One segment: its events and its window.

    ``spread`` and ``skewed`` events cover the window and converge;
    ``corner`` events leave the window's centroid outside their hull (no
    maximum); ``same_time`` events share one timestamp and ``nan`` events
    carry one NaN coordinate (both singular); ``cap`` is :func:`cap_batch`.
    """
    kind = draw(st.sampled_from(["spread", "skewed", "corner", "same_time", "nan", "cap"]))
    if kind == "cap":
        return cap_batch(), (UNIT, 0.0, 1.0)
    length = draw(newton_lengths)
    region = draw(st.sampled_from(REGIONS))
    t_start = draw(st.sampled_from([0.0, 7.25, 1000.0]))
    t_end = t_start + draw(st.sampled_from([0.5, 1.0, 3.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    unit = rng.random((length, 3))
    if kind == "skewed":
        unit **= rng.choice([0.4, 1.0, 2.5], 3)
    elif kind == "corner":
        unit[:, 1:] *= 0.3
    elif kind == "same_time":
        unit[:, 0] = 0.5
    bbox = region.bounding_box
    t = t_start + (t_end - t_start) * unit[:, 0]
    x = bbox.x_min + bbox.width * unit[:, 1]
    y = bbox.y_min + bbox.height * unit[:, 2]
    if kind == "nan":
        (x, y)[int(rng.integers(2))][rng.integers(length)] = np.nan
    return EventBatch(t, x, y), (region, t_start, t_end)


def lockstep(segments):
    """:func:`fit_linear_intensity_mle_segments` over ``(batch, window)`` pairs."""
    lengths = [len(batch) for batch, _window in segments]
    return fit_linear_intensity_mle_segments(
        np.concatenate([batch.t for batch, _window in segments]),
        np.concatenate([batch.x for batch, _window in segments]),
        np.concatenate([batch.y for batch, _window in segments]),
        np.cumsum([0] + lengths[:-1]),
        [window for _batch, window in segments],
    )


class TestLockstepNewton:
    @settings(max_examples=50, deadline=None)
    @given(
        st.integers(1, 40).flatmap(
            lambda count: st.lists(newton_segments(), min_size=count, max_size=count)
        ),
        st.sampled_from([(25, 30), (25, 30), (3, 30), (25, 1), (25, 0)]),
        st.randoms(use_true_random=False),
    )
    def test_every_segment_is_its_fit_alone(self, segments, caps, shuffler):
        # Lowered caps put segments that stop at the step cap, or fail the
        # line search, next to segments still iterating.
        max_iterations, max_halvings = caps
        with mock.patch.multiple(
            estimation, _NEWTON_MAX_ITERATIONS=max_iterations, _MAX_HALVINGS=max_halvings
        ), mock.patch.multiple(
            sys.modules[__name__],
            _NEWTON_MAX_ITERATIONS=max_iterations,
            _MAX_HALVINGS=max_halvings,
        ):
            alone = [fit_bits(newton_fit_alone(batch, *window)) for batch, window in segments]
            together = [fit_bits(result) for result in lockstep(segments)]
            assert together == alone
            # Neither the other segments nor their order matter.
            order = list(range(len(segments)))
            shuffler.shuffle(order)
            permuted = lockstep([segments[i] for i in order])
            assert [fit_bits(result) for result in permuted] == [alone[i] for i in order]
            kept = order[: max(1, len(order) // 2)]
            reduced = lockstep([segments[i] for i in sorted(kept)])
            assert [fit_bits(result) for result in reduced] == [alone[i] for i in sorted(kept)]

    def test_the_layout_covers_every_outcome(self):
        # The strategy's kinds end in all four ways a fit ends.
        rng = np.random.default_rng(0)
        unit = rng.random((100, 3))
        spread = EventBatch(unit[:, 0], unit[:, 1], unit[:, 2])
        corner = EventBatch(unit[:, 0], 0.3 * unit[:, 1], 0.3 * unit[:, 2])
        segments = [(spread, (UNIT, 0.0, 1.0)), (corner, (UNIT, 0.0, 1.0)), (cap_batch(), (UNIT, 0.0, 1.0))]
        converged, unbounded, capped = lockstep(segments)
        assert converged.converged
        assert not unbounded.converged and unbounded.iterations < 25
        assert not capped.converged and capped.iterations == 25
        with mock.patch.object(estimation, "_MAX_HALVINGS", 0):
            failed = lockstep(segments)
        assert [(r.converged, r.iterations) for r in failed] == [(False, 0)] * 3

    def test_one_segment_is_the_public_fit(self):
        batch = seeded_batch(20150413, t_start=1000.0, x_min=6.0, y_min=2.0)
        window = (Rectangle(6.0, 2.0, 7.0, 3.0), 1000.0, 1001.0)
        (result,) = lockstep([(batch, window)])
        assert [v.hex() for v in result.theta] == PINNED_MLE_THETA
        assert fit_bits(result) == fit_bits(fit_linear_intensity_mle(batch, *window))
        assert fit_bits(result) == fit_bits(newton_fit_alone(batch, *window))

    def test_initial_thetas_are_per_segment(self):
        batch = seeded_batch(3)
        default = fit_linear_intensity_mle(batch, UNIT, 0.0, 1.0)
        starts = [None, default.theta, (-5.0, 0.0, 0.0, 0.0)]
        results = fit_linear_intensity_mle_segments(
            np.tile(batch.t, 3), np.tile(batch.x, 3), np.tile(batch.y, 3),
            [0, len(batch), 2 * len(batch)], [(UNIT, 0.0, 1.0)] * 3,
            initial_thetas=starts,
        )
        for result, start in zip(results, starts):
            expected = newton_fit_alone(batch, UNIT, 0.0, 1.0, initial_theta=start)
            assert fit_bits(result) == fit_bits(expected)
        assert results[1].iterations == 0

    @pytest.mark.parametrize(
        "starts, windows, initial_thetas, message",
        [
            ([0, 5], [(UNIT, 0.0, 1.0)], None, "one window per segment"),
            ([0, 5, 5], [(UNIT, 0.0, 1.0)] * 3, None, "empty batch"),
            ([0, 5], [(UNIT, 0.0, 1.0), (UNIT, 1.0, 1.0)], None, "positive length"),
            ([0, 5], [(UNIT, 0.0, 1.0)] * 2, [None], "one initial theta"),
            ([0, 5], [(UNIT, 0.0, 1.0)] * 2, [None, (1.0, 2.0)], "four components"),
        ],
    )
    def test_invalid_layouts_raise_before_any_fit(self, starts, windows, initial_thetas, message):
        batch = seeded_batch(1, n=10)
        with pytest.raises(EstimationError, match=message):
            fit_linear_intensity_mle_segments(
                batch.t, batch.x, batch.y, starts, windows, initial_thetas=initial_thetas
            )


class TestScipyStaysOut:
    def test_no_engine_entry_point_imports_scipy(self):
        # scipy.optimize + scipy.stats are ~75 MiB of RSS and ~1.2 s of
        # import; only the paper-facing homogeneity tests may pay that.
        src = pathlib.Path(__file__).resolve().parents[2] / "src"
        done = subprocess.run(
            [
                sys.executable,
                "-c",
                "import sys, repro, repro.core, repro.serve, repro.cli; "
                "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))",
            ],
            capture_output=True, text=True, timeout=120,
            env={"PYTHONPATH": str(src), "PATH": "/usr/bin:/bin"},
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "[]"

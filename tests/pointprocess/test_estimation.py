"""Unit tests for intensity parameter estimation (MLE, SGD)."""

import numpy as np
import pytest

from repro.errors import EstimationError
from repro.geometry import Rectangle
from repro.pointprocess import (
    EventBatch,
    HomogeneousMDPP,
    InhomogeneousMDPP,
    LinearIntensity,
    OnlineIntensityEstimator,
    fit_linear_intensity_mle,
)

REGION = Rectangle(0.0, 0.0, 1.0, 1.0)
DURATION = 4.0


def simulate(theta, seed=0, duration=DURATION):
    intensity = LinearIntensity.from_theta(theta).validated_on(REGION, 0.0, duration)
    process = InhomogeneousMDPP(intensity, REGION)
    return process.sample(duration, rng=np.random.default_rng(seed)), intensity


class TestMLE:
    def test_recovers_constant_rate(self):
        batch = HomogeneousMDPP(60.0, REGION).sample(
            DURATION, rng=np.random.default_rng(4)
        )
        result = fit_linear_intensity_mle(batch, REGION, 0.0, DURATION)
        mean_rate = result.intensity.mean_rate(REGION, 0.0, DURATION)
        assert mean_rate == pytest.approx(60.0, rel=0.2)

    def test_recovers_gradient_parameters(self):
        true_theta = (20.0, 0.0, 40.0, -10.0)
        batch, _ = simulate(true_theta, seed=5)
        result = fit_linear_intensity_mle(batch, REGION, 0.0, DURATION)
        # The x slope should clearly dominate the y slope and point upward.
        assert result.theta[2] > 15.0
        assert result.theta[2] > result.theta[3]

    def test_log_likelihood_improves_over_initial_guess(self):
        batch, intensity = simulate((15.0, 0.0, 30.0, 20.0), seed=6)
        flat_start = (len(batch) / (REGION.area * DURATION), 0.0, 0.0, 0.0)
        fitted = fit_linear_intensity_mle(
            batch, REGION, 0.0, DURATION, initial_theta=flat_start
        )
        start = LinearIntensity.from_theta(flat_start)
        start_log_likelihood = float(
            np.log(start.rate(batch.t, batch.x, batch.y)).sum()
            - start.integral(REGION, 0.0, DURATION)
        )
        assert fitted.log_likelihood >= start_log_likelihood - 1e-6

    def test_expected_count_preserved(self):
        # MLE of a Poisson intensity matches the observed count in expectation;
        # check the fitted integral is close to the actual number of events.
        batch, _ = simulate((25.0, 0.0, 20.0, 10.0), seed=7)
        result = fit_linear_intensity_mle(batch, REGION, 0.0, DURATION)
        fitted_count = result.intensity.integral(REGION, 0.0, DURATION)
        assert fitted_count == pytest.approx(len(batch), rel=0.15)

    def test_empty_batch_raises(self):
        with pytest.raises(EstimationError):
            fit_linear_intensity_mle(EventBatch.empty(), REGION, 0.0, 1.0)

    def test_bad_initial_theta_raises(self):
        batch, _ = simulate((25.0, 0.0, 20.0, 10.0), seed=8)
        with pytest.raises(EstimationError):
            fit_linear_intensity_mle(batch, REGION, 0.0, DURATION, initial_theta=(1.0, 2.0))

    def test_invalid_window_raises(self):
        batch = EventBatch.from_rows([(0.1, 0.1, 0.1)] * 5)
        with pytest.raises(EstimationError):
            fit_linear_intensity_mle(batch, REGION, 2.0, 1.0)


class TestOnlineEstimator:
    def test_rejects_bad_parameters(self):
        with pytest.raises(EstimationError):
            OnlineIntensityEstimator(REGION, 0.0)
        with pytest.raises(EstimationError):
            OnlineIntensityEstimator(REGION, 1.0, learning_rate=0.0)
        with pytest.raises(EstimationError):
            OnlineIntensityEstimator(REGION, 1.0, initial_theta=(1.0, 2.0))

    def test_updates_counter(self):
        estimator = OnlineIntensityEstimator(REGION, 1.0)
        batch = HomogeneousMDPP(30.0, REGION).sample(1.0, rng=np.random.default_rng(9))
        estimator.observe_batch(batch)
        assert estimator.updates == len(batch)

    def test_empty_batch_is_noop(self):
        estimator = OnlineIntensityEstimator(REGION, 1.0)
        estimator.observe_batch(EventBatch.empty())
        assert estimator.updates == 0

    def test_tracks_gradient_direction(self):
        # Feed several batches from a process with a strong x gradient; the
        # online estimate should end up with a clearly positive x slope.
        intensity = LinearIntensity(5.0, 0.0, 50.0, 0.0)
        process = InhomogeneousMDPP(intensity, REGION)
        estimator = OnlineIntensityEstimator(
            REGION, 1.0, learning_rate=0.5, expected_events_per_window=30.0
        )
        rng = np.random.default_rng(10)
        for _ in range(20):
            estimator.observe_batch(process.sample(1.0, rng=rng))
        assert estimator.theta[2] > estimator.theta[3]
        assert estimator.theta[2] > 0.0

    def test_stays_stable_on_stationary_process_at_large_times(self):
        # Regression: observe_batch used to anchor the compensator window at
        # t=0 forever, so batches starting at large simulation times pushed
        # an ever-growing bias into the time-slope gradient (theta_t blew up
        # to ~50 and the predicted rate to ~5e4 in this exact setup).  With
        # the window anchored at the batch's own start the estimate stays
        # pinned to the true constant rate.
        rate = 40.0
        estimator = OnlineIntensityEstimator(
            REGION, 1.0, expected_events_per_window=rate
        )
        rng = np.random.default_rng(12)
        process = HomogeneousMDPP(rate, REGION)
        offset = 1000.0
        for k in range(40):
            batch = process.sample(1.0, rng=rng)
            shifted = EventBatch(batch.t + offset + k, batch.x, batch.y)
            estimator.observe_batch(shifted)
        predicted = estimator.intensity.rate_at(offset + 40.0, 0.5, 0.5)
        assert predicted == pytest.approx(rate, rel=0.25)
        assert abs(estimator.theta[1]) < 1.0  # no runaway time slope

    def test_fused_kernel_is_bitwise_the_per_event_loop(self):
        # observe_batch is n x observe_event; the fused kernel the columnar
        # engine runs hoists the loop invariants and must land on the very
        # same bits — across consecutive batches (state carries over), an
        # empty one, and batches at growing simulation times.
        process = InhomogeneousMDPP(LinearIntensity(20.0, 0.0, 30.0, -5.0), REGION)
        rng = np.random.default_rng(13)
        reference = OnlineIntensityEstimator(REGION, 1.0, learning_rate=0.3)
        fused = OnlineIntensityEstimator(REGION, 1.0, learning_rate=0.3)
        for k in range(6):
            if k == 3:
                batch = EventBatch.empty()
            else:
                sample = process.sample(1.0, rng=rng)
                batch = EventBatch(sample.t + 10.0 * k, sample.x, sample.y)
            window_start = None if k % 2 else 10.0 * k
            reference.observe_batch(batch, window_start=window_start)
            fused.observe_batch_fused(batch, window_start=window_start)
            assert fused.updates == reference.updates
            assert (
                np.asarray(fused.theta).tobytes()
                == np.asarray(reference.theta).tobytes()
            )
        assert fused.updates > 0

    def test_result_snapshot(self):
        estimator = OnlineIntensityEstimator(REGION, 1.0)
        batch = HomogeneousMDPP(20.0, REGION).sample(1.0, rng=np.random.default_rng(11))
        estimator.observe_batch(batch)
        result = estimator.result()
        assert result.converged
        assert result.iterations == estimator.updates
        assert isinstance(result.intensity, LinearIntensity)

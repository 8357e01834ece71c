"""Unit tests for thinning and flattening (Eq. 3)."""

import numpy as np
import pytest

from repro.errors import PointProcessError
from repro.geometry import Rectangle
from repro.pointprocess import (
    ConstantIntensity,
    EventBatch,
    HomogeneousMDPP,
    InhomogeneousMDPP,
    LinearIntensity,
    flatten_events,
    thin_events,
    thin_to_rate,
)
from repro.pointprocess.thinning import _compensate_clipping

REGION = Rectangle(0.0, 0.0, 1.0, 1.0)


def make_homogeneous_batch(rate, duration, seed=0):
    return HomogeneousMDPP(rate, REGION).sample(duration, rng=np.random.default_rng(seed))


class TestThinEvents:
    def test_probability_bounds(self, rng):
        batch = make_homogeneous_batch(100.0, 1.0)
        with pytest.raises(PointProcessError):
            thin_events(batch, 0.0, rng=rng)
        with pytest.raises(PointProcessError):
            thin_events(batch, 1.5, rng=rng)

    def test_probability_one_keeps_everything(self, rng):
        batch = make_homogeneous_batch(100.0, 1.0)
        result = thin_events(batch, 1.0, rng=rng)
        assert result.retained_count == len(batch)
        assert len(result.discarded) == 0

    def test_partition_of_input(self, rng):
        batch = make_homogeneous_batch(200.0, 1.0)
        result = thin_events(batch, 0.4, rng=rng)
        assert result.retained_count + len(result.discarded) == len(batch)

    def test_retained_and_discarded_split_the_input_events(self, rng):
        batch = make_homogeneous_batch(200.0, 1.0)
        result = thin_events(batch, 0.3, rng=rng)
        assert np.array_equal(result.retained.t, batch.t[result.keep_mask])
        assert np.array_equal(result.discarded.t, batch.t[~result.keep_mask])

    def test_keep_mask_alignment(self, rng):
        batch = make_homogeneous_batch(50.0, 1.0)
        result = thin_events(batch, 0.5, rng=rng)
        assert result.keep_mask.shape == (len(batch),)
        assert int(result.keep_mask.sum()) == result.retained_count

    def test_empty_batch(self, rng):
        result = thin_events(EventBatch.empty(), 0.5, rng=rng)
        assert result.retained_count == 0
        assert len(result.discarded) == 0

    def test_expected_fraction(self):
        batch = make_homogeneous_batch(2000.0, 1.0, seed=1)
        result = thin_events(batch, 0.3, rng=np.random.default_rng(2))
        fraction = result.retained_count / len(batch)
        assert fraction == pytest.approx(0.3, abs=0.05)

    def test_no_violations_reported(self, rng):
        batch = make_homogeneous_batch(100.0, 1.0)
        assert thin_events(batch, 0.5, rng=rng).violation_percent == 0.0


class TestThinToRate:
    def test_rate_validation(self, rng):
        batch = make_homogeneous_batch(100.0, 1.0)
        with pytest.raises(PointProcessError):
            thin_to_rate(batch, 0.0, 1.0, rng=rng)
        with pytest.raises(PointProcessError):
            thin_to_rate(batch, 10.0, 10.0, rng=rng)
        with pytest.raises(PointProcessError):
            thin_to_rate(batch, 10.0, 12.0, rng=rng)

    def test_produces_desired_rate(self):
        rate_in, rate_out, duration = 1000.0, 300.0, 1.0
        batch = make_homogeneous_batch(rate_in, duration, seed=5)
        result = thin_to_rate(batch, rate_in, rate_out, rng=np.random.default_rng(6))
        achieved = result.retained_count / (REGION.area * duration)
        assert achieved == pytest.approx(rate_out, rel=0.15)

    def test_retention_probability_used(self, rng):
        batch = make_homogeneous_batch(100.0, 1.0)
        result = thin_to_rate(batch, 100.0, 25.0, rng=rng)
        assert np.allclose(result.retain_probability, 0.25)


class TestFlattenEvents:
    def test_rejects_non_positive_target(self, rng):
        batch = make_homogeneous_batch(100.0, 1.0)
        with pytest.raises(PointProcessError):
            flatten_events(batch, ConstantIntensity(100.0), 0.0, rng=rng)

    def test_empty_batch(self, rng):
        result = flatten_events(EventBatch.empty(), ConstantIntensity(1.0), 10.0, rng=rng)
        assert result.retained_count == 0
        assert result.violation_percent == 0.0

    def test_rejects_zero_intensity_at_event(self, rng):
        batch = EventBatch.from_rows([(0.5, 0.5, 0.5)])
        zero_like = LinearIntensity(0.0, 0.0, 0.0, 0.0, min_rate=0.0)
        with pytest.raises(PointProcessError):
            flatten_events(batch, zero_like, 1.0, rng=rng)

    def test_expected_retained_count_matches_target(self):
        # Eq. (3): sum of retaining probabilities equals the target count.
        intensity = LinearIntensity(5.0, 0.0, 40.0, 20.0)
        process = InhomogeneousMDPP(intensity, REGION)
        batch = process.sample(4.0, rng=np.random.default_rng(7))
        target = 60.0
        result = flatten_events(batch, intensity, target, rng=np.random.default_rng(8))
        assert result.violation_percent == 0.0
        assert result.retained_count == pytest.approx(target, rel=0.25)

    def test_violations_reported_when_target_too_high(self, rng):
        intensity = ConstantIntensity(10.0)
        batch = HomogeneousMDPP(10.0, REGION).sample(1.0, rng=np.random.default_rng(9))
        # Ask for far more events than the batch holds.
        result = flatten_events(batch, intensity, 10.0 * len(batch), rng=rng)
        assert result.violation_percent == 100.0
        assert result.retained_count == len(batch)

    def test_flattening_reduces_spatial_skew(self):
        # Strong x-gradient: before flattening the right half dominates;
        # after flattening the halves should be roughly balanced.
        intensity = LinearIntensity(2.0, 0.0, 60.0, 0.0)
        process = InhomogeneousMDPP(intensity, REGION)
        batch = process.sample(8.0, rng=np.random.default_rng(10))
        right_before = int(np.count_nonzero(batch.x > 0.5))
        left_before = len(batch) - right_before
        assert right_before > 2 * left_before
        result = flatten_events(batch, intensity, 150.0, rng=np.random.default_rng(11))
        kept = result.retained
        right_after = int(np.count_nonzero(kept.x > 0.5))
        left_after = len(kept) - right_after
        assert abs(right_after - left_after) < 0.35 * len(kept)

    def test_retain_probability_inverse_to_intensity(self, rng):
        intensity = LinearIntensity(1.0, 0.0, 10.0, 0.0)
        batch = EventBatch.from_rows([(0.0, 0.05, 0.5), (0.0, 0.95, 0.5)])
        result = flatten_events(batch, intensity, 1.0, rng=rng)
        # The low-intensity (left) event must have the higher probability.
        assert result.retain_probability[0] > result.retain_probability[1]

    def test_probabilities_clipped_to_one(self, rng):
        intensity = ConstantIntensity(5.0)
        batch = make_homogeneous_batch(5.0, 1.0, seed=12)
        result = flatten_events(batch, intensity, 10.0 * len(batch), rng=rng)
        assert np.all(result.retain_probability <= 1.0)


def compensate_by_bisection(raw_probability, target):
    """``_compensate_clipping`` as it was before the closed form: the oracle.

    A bracket-doubling loop and 60 bisection steps on the monotone
    ``c -> sum(min(c * p_i, 1))``.
    """
    n = raw_probability.shape[0]
    reachable_target = min(target, float(n))
    capped = np.clip(raw_probability, 0.0, 1.0)
    if capped.sum() >= reachable_target - 1e-12:
        return capped
    lo, hi = 1.0, 2.0
    while np.minimum(hi * raw_probability, 1.0).sum() < reachable_target and hi < 1e12:
        hi *= 2.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if np.minimum(mid * raw_probability, 1.0).sum() < reachable_target:
            lo = mid
        else:
            hi = mid
    return np.minimum(hi * raw_probability, 1.0)


class TestCompensateClipping:
    """The sort + cumulative-sum scale against the bisection it replaced."""

    @staticmethod
    def eq3(rates, target):
        """Raw Eq. (3) probabilities: they sum to ``target`` before clipping."""
        return target / (rates * np.sum(1.0 / rates))

    def test_matches_the_bisection_on_random_batches(self):
        rng = np.random.default_rng(20150413)
        compensated = 0
        for _ in range(400):
            n = int(rng.integers(1, 300))
            rates = rng.lognormal(0.0, rng.uniform(0.1, 3.0), n)
            target = float(rng.uniform(0.5, 1.5 * n))
            raw = self.eq3(rates, target)
            result = _compensate_clipping(raw, target)
            compensated += bool(np.any(raw > 1.0))
            assert np.max(np.abs(result - compensate_by_bisection(raw, target))) <= 1e-12
            assert result.sum() == pytest.approx(min(target, n), abs=1e-9)
            assert np.all((result >= 0.0) & (result <= 1.0))
            # The inverse-intensity shape survives on the unclipped events.
            open_ = result < 1.0
            if np.count_nonzero(open_) > 1:
                ratio = result[open_] / raw[open_]
                assert np.allclose(ratio, ratio[0], rtol=1e-12)
        assert compensated > 100  # the generator does exercise the scale

    def test_nothing_clipped_returns_the_raw_probabilities(self):
        raw = self.eq3(np.array([1.0, 2.0, 4.0, 8.0]), 1.5)
        assert np.array_equal(_compensate_clipping(raw, 1.5), raw)

    def test_target_beyond_the_batch_clips_everything(self):
        raw = self.eq3(np.array([1.0, 3.0, 9.0]), 7.5)
        assert _compensate_clipping(raw, 7.5) == pytest.approx(np.ones(3), abs=1e-12)
        assert compensate_by_bisection(raw, 7.5) == pytest.approx(np.ones(3), abs=1e-12)

    def test_target_of_exactly_the_batch_size(self):
        raw = self.eq3(np.array([0.5, 1.0, 2.0, 64.0]), 4.0)
        assert _compensate_clipping(raw, 4.0) == pytest.approx(np.ones(4), abs=1e-12)

    def test_single_event(self):
        assert np.array_equal(_compensate_clipping(np.array([0.25]), 0.25), [0.25])
        assert np.array_equal(_compensate_clipping(np.array([3.0]), 3.0), [1.0])

    def test_zero_tail(self):
        # Probabilities that underflowed to zero cannot be scaled up: the
        # positive ones absorb what they can, the zeros stay zero.
        raw = np.array([2.5, 0.4, 0.1, 0.0, 0.0])
        reachable = _compensate_clipping(raw, 2.0)  # the three positives suffice
        assert reachable == pytest.approx(compensate_by_bisection(raw, 2.0), abs=1e-12)
        assert reachable.sum() == pytest.approx(2.0, abs=1e-9)
        assert np.array_equal(reachable[3:], [0.0, 0.0])
        unreachable = _compensate_clipping(raw, 4.0)  # they do not
        assert np.array_equal(unreachable, [1.0, 1.0, 1.0, 0.0, 0.0])
        assert np.array_equal(compensate_by_bisection(raw, 4.0), unreachable)

"""Unit tests for point-process statistics and homogeneity diagnostics."""

import numpy as np
import pytest

from repro.errors import PointProcessError
from repro.geometry import Rectangle
from repro.pointprocess import (
    EventBatch,
    GaussianHotspotIntensity,
    HomogeneousMDPP,
    InhomogeneousMDPP,
    LinearIntensity,
    assess_homogeneity,
    coefficient_of_variation,
    empirical_rate,
    ks_uniformity_test,
    quadrat_chi_square_test,
    quadrat_counts,
    ripley_k,
)

REGION = Rectangle(0.0, 0.0, 1.0, 1.0)


def homogeneous_batch(rate=200.0, duration=1.0, seed=0):
    return HomogeneousMDPP(rate, REGION).sample(duration, rng=np.random.default_rng(seed))


def clustered_batch(duration=1.0, seed=0):
    intensity = GaussianHotspotIntensity(2.0, ((0.3, 0.3, 600.0, 0.06),))
    return InhomogeneousMDPP(intensity, REGION).sample(
        duration, rng=np.random.default_rng(seed)
    )


class TestEmpiricalRate:
    def test_counts_per_volume(self):
        batch = EventBatch.from_rows([(0.1, 0.5, 0.5)] * 10)
        assert empirical_rate(batch, REGION, 2.0) == pytest.approx(5.0)

    def test_invalid_duration(self):
        with pytest.raises(PointProcessError):
            empirical_rate(EventBatch.empty(), REGION, 0.0)

    def test_simulated_process_matches_rate(self):
        batch = homogeneous_batch(rate=300.0, duration=2.0, seed=1)
        assert empirical_rate(batch, REGION, 2.0) == pytest.approx(300.0, rel=0.1)


class TestQuadratCounts:
    def test_total_preserved(self):
        batch = homogeneous_batch(seed=2)
        counts = quadrat_counts(batch, REGION, 4, 4)
        assert counts.sum() == len(batch)
        assert counts.shape == (4, 4)

    def test_empty_batch(self):
        counts = quadrat_counts(EventBatch.empty(), REGION, 3, 3)
        assert counts.sum() == 0

    def test_invalid_grid(self):
        with pytest.raises(PointProcessError):
            quadrat_counts(EventBatch.empty(), REGION, 0, 3)

    def test_known_placement(self):
        batch = EventBatch.from_rows([(0.0, 0.1, 0.1), (0.0, 0.9, 0.9)])
        counts = quadrat_counts(batch, REGION, 2, 2)
        assert counts[0, 0] == 1
        assert counts[1, 1] == 1


class TestChiSquare:
    def test_homogeneous_not_rejected(self):
        batch = homogeneous_batch(rate=500.0, seed=3)
        result = quadrat_chi_square_test(batch, REGION, 4, 4)
        assert not result.rejects_homogeneity(alpha=0.001)

    def test_clustered_rejected(self):
        batch = clustered_batch(seed=4)
        result = quadrat_chi_square_test(batch, REGION, 4, 4)
        assert result.rejects_homogeneity(alpha=0.01)

    def test_empty_batch_gives_pvalue_one(self):
        result = quadrat_chi_square_test(EventBatch.empty(), REGION)
        assert result.p_value == 1.0

    def test_degrees_of_freedom(self):
        result = quadrat_chi_square_test(homogeneous_batch(seed=5), REGION, 3, 5)
        assert result.degrees_of_freedom == 14


class TestCoefficientOfVariation:
    def test_homogeneous_has_low_cv(self):
        assert coefficient_of_variation(homogeneous_batch(rate=800.0, seed=6), REGION) < 0.5

    def test_clustered_has_high_cv(self):
        assert coefficient_of_variation(clustered_batch(seed=7), REGION) > 1.0

    def test_empty_batch_is_zero(self):
        assert coefficient_of_variation(EventBatch.empty(), REGION) == 0.0


class TestKSUniformity:
    def test_homogeneous_passes(self):
        batch = homogeneous_batch(rate=400.0, seed=8)
        p_t, p_x, p_y = ks_uniformity_test(batch, REGION, 1.0)
        assert min(p_t, p_x, p_y) > 0.001

    def test_clustered_fails_in_space(self):
        batch = clustered_batch(seed=9)
        _, p_x, p_y = ks_uniformity_test(batch, REGION, 1.0)
        assert min(p_x, p_y) < 0.01

    def test_empty_batch_returns_ones(self):
        assert ks_uniformity_test(EventBatch.empty(), REGION, 1.0) == (1.0, 1.0, 1.0)

    def test_time_trend_fails_in_time_only(self):
        intensity = LinearIntensity(10.0, 900.0, 0.0, 0.0)  # strongly increasing in time
        batch = InhomogeneousMDPP(intensity, REGION).sample(1.0, rng=np.random.default_rng(10))
        p_t, p_x, p_y = ks_uniformity_test(batch, REGION, 1.0)
        assert p_t < 0.01
        assert min(p_x, p_y) > 0.001

    def test_t_start_offsets_the_time_window(self):
        batch = homogeneous_batch(rate=400.0, seed=11).shifted(dt=5.0)
        assert ks_uniformity_test(batch, REGION, 1.0, t_start=5.0)[0] > 0.001
        assert ks_uniformity_test(batch, REGION, 1.0)[0] < 0.01

    def test_non_positive_duration_skips_the_time_test(self):
        batch = homogeneous_batch(seed=12)
        p_t, p_x, p_y = ks_uniformity_test(batch, REGION, 0.0)
        assert p_t == 1.0
        assert (p_x, p_y) == ks_uniformity_test(batch, REGION, 1.0)[1:]


class TestRipleyK:
    def test_poisson_reference(self):
        batch = homogeneous_batch(rate=500.0, seed=10)
        radii = np.array([0.05, 0.1])
        k = ripley_k(batch, REGION, radii)
        reference = np.pi * radii ** 2
        # Without edge correction K is biased low; just require the same order.
        assert np.all(k > 0.2 * reference)
        assert np.all(k < 3.0 * reference)

    def test_clustered_exceeds_poisson(self):
        clustered = clustered_batch(seed=11)
        uniform = homogeneous_batch(rate=len(clustered), seed=12)
        radius = np.array([0.05])
        assert ripley_k(clustered, REGION, radius)[0] > ripley_k(uniform, REGION, radius)[0]

    def test_tiny_batch_returns_zeros(self):
        batch = EventBatch.from_rows([(0.0, 0.5, 0.5)])
        assert ripley_k(batch, REGION, np.array([0.1])).tolist() == [0.0]


class TestAssessHomogeneity:
    def test_report_for_homogeneous_process(self):
        batch = homogeneous_batch(rate=300.0, seed=13)
        report = assess_homogeneity(batch, REGION, 1.0, target_rate=300.0)
        assert report.is_approximately_homogeneous()
        assert report.meets_rate(tolerance=0.15)
        assert report.rate_relative_error < 0.15

    def test_report_for_clustered_process(self):
        batch = clustered_batch(seed=14)
        report = assess_homogeneity(batch, REGION, 1.0, target_rate=50.0)
        assert not report.is_approximately_homogeneous()

    def test_report_without_target(self):
        report = assess_homogeneity(homogeneous_batch(seed=15), REGION, 1.0)
        assert np.isnan(report.target_rate)
        assert not report.meets_rate()

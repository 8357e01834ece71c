"""Unit tests for homogeneous and inhomogeneous MDPP simulation."""

import numpy as np
import pytest

from repro.errors import PointProcessError
from repro.geometry import CompositeRegion, Rectangle
from repro.pointprocess import (
    ConstantIntensity,
    HomogeneousMDPP,
    InhomogeneousMDPP,
    LinearIntensity,
)
from scaffolding import HotspotIntensity

REGION = Rectangle(0.0, 0.0, 2.0, 2.0)


class TestHomogeneousMDPP:
    def test_rejects_non_positive_rate(self):
        with pytest.raises(PointProcessError):
            HomogeneousMDPP(0.0, REGION)

    def test_expected_count(self):
        process = HomogeneousMDPP(5.0, REGION)
        assert process.expected_count(3.0) == pytest.approx(5.0 * 4.0 * 3.0)

    def test_expected_count_invalid_duration(self):
        with pytest.raises(PointProcessError):
            HomogeneousMDPP(5.0, REGION).expected_count(0.0)

    def test_sample_count_close_to_expectation(self, rng):
        process = HomogeneousMDPP(20.0, REGION)
        batch = process.sample(5.0, rng=rng)
        expected = process.expected_count(5.0)
        assert abs(len(batch) - expected) < 5 * np.sqrt(expected)

    def test_sample_within_region_and_window(self, rng):
        process = HomogeneousMDPP(10.0, REGION)
        batch = process.sample(2.0, t_start=1.0, rng=rng)
        assert np.all(batch.x >= 0.0) and np.all(batch.x <= 2.0)
        assert np.all(batch.y >= 0.0) and np.all(batch.y <= 2.0)
        assert np.all(batch.t >= 1.0) and np.all(batch.t < 3.0)

    def test_sample_sorted_by_time(self, rng):
        batch = HomogeneousMDPP(30.0, REGION).sample(1.0, rng=rng)
        assert np.all(np.diff(batch.t) >= 0.0)

    def test_sample_with_fixed_count(self, rng):
        batch = HomogeneousMDPP(1.0, REGION).sample(1.0, rng=rng, count=17)
        assert len(batch) == 17

    def test_sample_with_negative_count_raises(self, rng):
        with pytest.raises(PointProcessError):
            HomogeneousMDPP(1.0, REGION).sample(1.0, rng=rng, count=-1)

    def test_sample_reproducible_with_seed(self):
        process = HomogeneousMDPP(10.0, REGION)
        a = process.sample(1.0, rng=np.random.default_rng(3))
        b = process.sample(1.0, rng=np.random.default_rng(3))
        assert np.array_equal(a.t, b.t)
        assert np.array_equal(a.x, b.x)

    def test_sample_on_composite_region(self, rng):
        region = CompositeRegion((Rectangle(0, 0, 1, 1), Rectangle(2, 0, 3, 1)))
        process = HomogeneousMDPP(50.0, region)
        batch = process.sample(1.0, rng=rng)
        assert len(batch) > 0
        for x, y in zip(batch.x, batch.y):
            assert region.contains(float(x), float(y), closed=True)

    def test_intensity_property(self):
        assert isinstance(HomogeneousMDPP(2.0, REGION).intensity, ConstantIntensity)


class TestInhomogeneousMDPP:
    def test_expected_count_linear(self):
        intensity = LinearIntensity(10.0, 0.0, 0.0, 0.0)
        process = InhomogeneousMDPP(intensity, REGION)
        assert process.expected_count(1.0) == pytest.approx(40.0)

    def test_mean_rate(self):
        intensity = LinearIntensity(10.0, 0.0, 0.0, 0.0)
        process = InhomogeneousMDPP(intensity, REGION)
        assert process.mean_rate(2.0) == pytest.approx(10.0)

    def test_sample_count_close_to_expectation(self, rng):
        intensity = LinearIntensity(5.0, 0.0, 10.0, 5.0)
        process = InhomogeneousMDPP(intensity, REGION)
        batch = process.sample(3.0, rng=rng)
        expected = process.expected_count(3.0)
        assert abs(len(batch) - expected) < 5 * np.sqrt(expected)

    def test_sample_respects_spatial_gradient(self, rng):
        # A strong x-gradient should put most events in the right half.
        intensity = LinearIntensity(1.0, 0.0, 50.0, 0.0)
        process = InhomogeneousMDPP(intensity, REGION)
        batch = process.sample(3.0, rng=rng)
        right = int(np.count_nonzero(batch.x > 1.0))
        left = len(batch) - right
        assert right > 2 * left

    def test_hotspot_concentration(self, rng):
        intensity = HotspotIntensity(1.0, ((0.5, 0.5, 200.0, 0.15),))
        process = InhomogeneousMDPP(intensity, REGION)
        batch = process.sample(2.0, rng=rng)
        near = int(
            np.count_nonzero((np.abs(batch.x - 0.5) < 0.5) & (np.abs(batch.y - 0.5) < 0.5))
        )
        assert near > len(batch) * 0.5

    def test_sample_invalid_duration(self, rng):
        process = InhomogeneousMDPP(ConstantIntensity(1.0), REGION)
        with pytest.raises(PointProcessError):
            process.sample(0.0, rng=rng)

    def test_constant_intensity_sample_rate(self, rng):
        process = InhomogeneousMDPP(ConstantIntensity(25.0), REGION)
        batch = process.sample(4.0, rng=rng)
        observed = len(batch) / (REGION.area * 4.0)
        assert observed == pytest.approx(25.0, rel=0.15)

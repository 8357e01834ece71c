"""Unit tests for point-process statistics and homogeneity diagnostics."""

import numpy as np
import pytest

from repro.errors import PointProcessError
from repro.geometry import CompositeRegion, Rectangle
from repro.pointprocess import (
    EventBatch,
    HomogeneousMDPP,
    InhomogeneousMDPP,
    LinearIntensity,
    coefficient_of_variation,
    quadrat_chi_square_test,
    quadrat_counts,
)
from repro.pointprocess.statistics import ChiSquareResult
from scaffolding import HotspotIntensity

REGION = Rectangle(0.0, 0.0, 1.0, 1.0)


def homogeneous_batch(rate=200.0, duration=1.0, seed=0):
    return HomogeneousMDPP(rate, REGION).sample(duration, rng=np.random.default_rng(seed))


def clustered_batch(duration=1.0, seed=0):
    intensity = HotspotIntensity(2.0, ((0.3, 0.3, 600.0, 0.06),))
    return InhomogeneousMDPP(intensity, REGION).sample(
        duration, rng=np.random.default_rng(seed)
    )


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

    def test_events_on_the_far_edges_land_in_the_last_quadrat(self):
        batch = EventBatch.from_rows([(0.0, 1.0, 0.2), (0.0, 0.2, 1.0), (0.0, 1.0, 1.0)])
        counts = quadrat_counts(batch, REGION, 2, 2)
        assert counts.tolist() == [[0, 1], [1, 1]]

    def test_events_outside_the_box_count_in_the_nearest_edge_quadrat(self):
        batch = EventBatch.from_rows([(0.0, -0.5, 0.1), (0.0, 1.5, 1.5)])
        counts = quadrat_counts(batch, REGION, 2, 2)
        assert counts.tolist() == [[1, 0], [0, 1]]

    def test_a_composite_region_is_gridded_over_its_bounding_box(self):
        region = CompositeRegion((Rectangle(0, 0, 1, 1), Rectangle(3, 0, 4, 1)))
        batch = EventBatch.from_rows([(0.0, 0.5, 0.5), (0.0, 3.5, 0.5)])
        assert quadrat_counts(batch, region, 4, 1).tolist() == [[1, 0, 0, 1]]

    def test_rejects_what_is_not_a_region(self):
        with pytest.raises(PointProcessError):
            quadrat_counts(EventBatch.empty(), (0.0, 0.0, 1.0, 1.0), 2, 2)


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

    def test_statistic_is_the_index_of_dispersion(self):
        # Counts 3, 1, 0, 0 in a 2x2 grid: mean 1, sum of (n - 1)^2 / 1 = 6.
        rows = [(0.0, 0.1, 0.1)] * 3 + [(0.0, 0.9, 0.1)]
        result = quadrat_chi_square_test(EventBatch.from_rows(rows), REGION, 2, 2)
        assert result.statistic == pytest.approx(6.0)
        assert result.degrees_of_freedom == 3

    def test_a_trend_in_time_alone_is_not_rejected(self):
        # The rate grows twentyfold over the window but is flat in space:
        # the quadrat test looks at space only.
        intensity = LinearIntensity(50.0, 1000.0, 0.0, 0.0)
        batch = InhomogeneousMDPP(intensity, REGION).sample(
            1.0, rng=np.random.default_rng(8)
        )
        assert not quadrat_chi_square_test(batch, REGION, 4, 4).rejects_homogeneity(
            alpha=0.001
        )

    def test_rejection_is_strictly_below_alpha(self):
        result = ChiSquareResult(statistic=1.0, p_value=0.05, degrees_of_freedom=3)
        assert not result.rejects_homogeneity(alpha=0.05)
        assert result.rejects_homogeneity(alpha=0.0501)


class TestCoefficientOfVariation:
    def test_homogeneous_has_low_cv(self):
        assert coefficient_of_variation(homogeneous_batch(rate=800.0, seed=6), REGION) < 0.5

    def test_clustered_has_high_cv(self):
        assert coefficient_of_variation(clustered_batch(seed=7), REGION) > 1.0

    def test_empty_batch_is_zero(self):
        assert coefficient_of_variation(EventBatch.empty(), REGION) == 0.0

    def test_perfectly_even_counts_give_zero(self):
        rows = [(0.0, (i + 0.5) / 4, (j + 0.5) / 4) for i in range(4) for j in range(4)]
        assert coefficient_of_variation(EventBatch.from_rows(rows * 3), REGION) == 0.0

    def test_is_the_spread_of_the_quadrat_counts(self):
        batch = clustered_batch(seed=9)
        counts = quadrat_counts(batch, REGION, 3, 2).astype(float)
        assert coefficient_of_variation(batch, REGION, 3, 2) == pytest.approx(
            counts.std() / counts.mean()
        )

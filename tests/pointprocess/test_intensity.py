"""Unit tests for conditional intensity models."""

import numpy as np
import pytest

from repro.errors import PointProcessError
from repro.geometry import CompositeRegion, Rectangle, RectRegion
from repro.pointprocess import ConstantIntensity, IntensityModel, LinearIntensity
from scaffolding import HotspotIntensity

REGION = Rectangle(0.0, 0.0, 1.0, 1.0)


class TestConstantIntensity:
    def test_rate_is_constant(self):
        model = ConstantIntensity(5.0)
        values = model.rate(np.array([0.0, 1.0]), np.array([0.0, 0.5]), np.array([0.0, 0.5]))
        assert values.tolist() == [5.0, 5.0]

    def test_rejects_non_positive(self):
        with pytest.raises(PointProcessError):
            ConstantIntensity(0.0)

    def test_integral_closed_form(self):
        model = ConstantIntensity(3.0)
        assert model.integral(REGION, 0.0, 2.0) == pytest.approx(6.0)

    def test_mean_rate(self):
        assert ConstantIntensity(3.0).mean_rate(REGION, 0.0, 2.0) == pytest.approx(3.0)

    def test_max_rate(self):
        assert ConstantIntensity(7.0).max_rate(REGION, 0.0, 1.0) == 7.0

    def test_invalid_window_raises(self):
        with pytest.raises(PointProcessError):
            ConstantIntensity(1.0).integral(REGION, 1.0, 1.0)


class TestLinearIntensity:
    def test_matches_eq1(self):
        model = LinearIntensity(1.0, 2.0, 3.0, 4.0)
        assert model.rate_at(1.0, 1.0, 1.0) == pytest.approx(10.0)

    def test_theta_property(self):
        assert LinearIntensity(1, 2, 3, 4).theta == (1, 2, 3, 4)

    def test_from_theta_roundtrip(self):
        model = LinearIntensity.from_theta([5.0, 0.1, 0.2, 0.3])
        assert model.theta == (5.0, 0.1, 0.2, 0.3)

    def test_from_theta_wrong_length(self):
        with pytest.raises(PointProcessError):
            LinearIntensity.from_theta([1.0, 2.0])

    def test_clamps_at_floor(self):
        model = LinearIntensity(-10.0, 0.0, 0.0, 0.0)
        assert model.rate_at(0.0, 0.0, 0.0) == pytest.approx(model.min_rate)

    def test_max_rate_over_corners(self):
        model = LinearIntensity(1.0, 1.0, 1.0, 1.0)
        assert model.max_rate(REGION, 0.0, 2.0) == pytest.approx(1.0 + 2.0 + 1.0 + 1.0)

    def test_min_rate_on_window(self):
        model = LinearIntensity(1.0, 1.0, 1.0, 1.0)
        assert model.min_rate_on(REGION, 0.0, 2.0) == pytest.approx(1.0)

    def test_validated_on_accepts_positive(self):
        model = LinearIntensity(1.0, 0.0, 0.5, 0.5)
        assert model.validated_on(REGION, 0.0, 1.0) is model

    def test_validated_on_rejects_non_positive(self):
        model = LinearIntensity(0.1, -1.0, 0.0, 0.0)
        with pytest.raises(PointProcessError):
            model.validated_on(REGION, 0.0, 1.0)

    def test_integral_closed_form(self):
        model = LinearIntensity(2.0, 0.5, 1.0, 1.5)
        closed = model.integral(REGION, 0.0, 1.0)
        # The affine integral equals the midpoint value times the volume:
        # theta0 + theta1*0.5 + theta2*0.5 + theta3*0.5 over a unit volume.
        expected = 2.0 + 0.25 + 0.5 + 0.75
        assert closed == pytest.approx(expected)

    def test_vectorised_rate(self):
        model = LinearIntensity(1.0, 1.0, 0.0, 0.0)
        values = model.rate(np.array([0.0, 1.0, 2.0]), np.zeros(3), np.zeros(3))
        assert values.tolist() == [1.0, 2.0, 3.0]


class AffineWithoutClosedForm(IntensityModel):
    """Eq. (1)'s rate, integrated by the base class's numeric rule."""

    def __init__(self, linear):
        self.linear = linear

    def rate(self, t, x, y):
        return self.linear.rate(t, x, y)

    def max_rate(self, region, t_start, t_end):
        return self.linear.max_rate(region, t_start, t_end)


class TestNumericIntegral:
    """``IntensityModel.integral``: what a model without a closed form gets."""

    def test_affine_rate_matches_the_closed_form(self):
        # The grid is symmetric about each rectangle's centre, so its mean
        # of an affine rate is the centroid value: exact up to rounding.
        region = CompositeRegion((Rectangle(0.0, 0.0, 2.0, 1.0), Rectangle(0.0, 1.0, 1.0, 3.0)))
        linear = LinearIntensity(3.0, 0.5, 1.5, 2.0)
        numeric = AffineWithoutClosedForm(linear).integral(region, 1.0, 4.0, resolution=7)
        assert numeric == pytest.approx(linear.integral(region, 1.0, 4.0), rel=1e-12)

    def test_hotspot_integral_approaches_the_gaussian_mass(self):
        # One hotspot well inside a large square: baseline volume plus
        # amplitude * 2 pi sigma^2 per unit time.
        model = HotspotIntensity(2.0, ((5.0, 5.0, 100.0, 0.5),))
        region = Rectangle(0.0, 0.0, 10.0, 10.0)
        expected = 2.0 * (2.0 * 100.0 + 100.0 * 2.0 * np.pi * 0.25)
        assert model.integral(region, 0.0, 2.0, resolution=81) == pytest.approx(expected, rel=0.02)
        assert model.mean_rate(region, 0.0, 2.0, resolution=81) == pytest.approx(
            expected / 200.0, rel=0.02
        )


TWO_SQUARES = CompositeRegion((Rectangle(0.0, 0.0, 1.0, 1.0), Rectangle(2.0, 0.0, 3.0, 1.0)))

MODELS = {
    "constant": lambda: ConstantIntensity(4.0),
    "linear": lambda: LinearIntensity(2.0, 0.5, 1.0, 3.0),
    "numeric": lambda: AffineWithoutClosedForm(LinearIntensity(2.0, 0.5, 1.0, 3.0)),
}


class TestIntensityWindows:
    """What every model shares: scalar evaluation, regions and windows."""

    @pytest.mark.parametrize("name", sorted(MODELS))
    def test_rate_at_is_the_vectorised_rate(self, name):
        model = MODELS[name]()
        vector = model.rate(np.array([0.3, 1.2]), np.array([0.1, 0.9]), np.array([0.7, 0.2]))
        assert [model.rate_at(0.3, 0.1, 0.7), model.rate_at(1.2, 0.9, 0.2)] == vector.tolist()

    @pytest.mark.parametrize("name", sorted(MODELS))
    def test_integral_over_a_composite_region_sums_its_parts(self, name):
        model = MODELS[name]()
        parts = sum(model.integral(rect, 0.0, 2.0) for rect in TWO_SQUARES.rectangles)
        assert model.integral(TWO_SQUARES, 0.0, 2.0) == pytest.approx(parts, rel=1e-12)

    @pytest.mark.parametrize("name", sorted(MODELS))
    def test_an_empty_window_is_refused(self, name):
        model = MODELS[name]()
        with pytest.raises(PointProcessError):
            model.integral(REGION, 1.0, 1.0)
        with pytest.raises(PointProcessError):
            model.mean_rate(REGION, 2.0, 1.0)

    @pytest.mark.parametrize("name", sorted(MODELS))
    def test_rejects_what_is_not_a_region(self, name):
        with pytest.raises(PointProcessError):
            MODELS[name]().integral((0.0, 0.0, 1.0, 1.0), 0.0, 1.0)

    def test_linear_max_rate_takes_the_best_part(self):
        model = LinearIntensity(1.0, 0.0, 2.0, 0.0)
        # The far square's right edge, x = 3: 1 + 2 * 3.
        assert model.max_rate(TWO_SQUARES, 0.0, 1.0) == pytest.approx(7.0)
        assert model.max_rate(TWO_SQUARES.rectangles[0], 0.0, 1.0) == pytest.approx(3.0)

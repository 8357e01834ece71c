"""Conditional intensity (rate) models for inhomogeneous MDPPs.

The paper parametrises the conditional rate of an inhomogeneous MDPP with the
linear form of Eq. (1)::

    lambda~(t, x, y; theta) = theta0 + theta1 * t + theta2 * x + theta3 * y

:class:`LinearIntensity` implements exactly that form.

All models expose the same small interface so PMAT operators and estimators
can treat them interchangeably:

``rate(t, x, y)``
    Vectorised evaluation of the intensity at points.
``max_rate(region, t_start, t_end)``
    An upper bound of the intensity over a spatio-temporal window, needed for
    simulation by thinning.
``integral(region, t_start, t_end)``
    The expected number of events in a window, needed for likelihoods.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

from ..errors import PointProcessError
from ..geometry import Rectangle, RectRegion, Region


def _as_region(region) -> Region:
    """Accept either a Rectangle or a Region and return a Region."""
    if isinstance(region, Rectangle):
        return RectRegion(region)
    if isinstance(region, Region):
        return region
    raise PointProcessError(f"expected a Region or Rectangle, got {type(region)!r}")


class IntensityModel(ABC):
    """Abstract conditional-intensity model ``lambda(t, x, y)``."""

    @abstractmethod
    def rate(self, t: np.ndarray, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Evaluate the intensity at the given coordinates (vectorised)."""

    @abstractmethod
    def max_rate(self, region, t_start: float, t_end: float) -> float:
        """An upper bound on the intensity over ``region x [t_start, t_end]``."""

    def rate_at(self, t: float, x: float, y: float) -> float:
        """Scalar convenience wrapper around :meth:`rate`."""
        return float(self.rate(np.array([t]), np.array([x]), np.array([y]))[0])

    def integral(self, region, t_start: float, t_end: float, *, resolution: int = 40) -> float:
        """Expected number of events in ``region x [t_start, t_end]``.

        The default implementation integrates numerically: per rectangle, the
        mean rate on a regular ``resolution``-point grid per axis times the
        volume.  Models with closed forms override it.
        """
        region = _as_region(region)
        if t_end <= t_start:
            raise PointProcessError("time window must have positive length")
        total = 0.0
        t_grid = np.linspace(t_start, t_end, resolution)
        for rect in region.rectangles:
            x_grid = np.linspace(rect.x_min, rect.x_max, resolution)
            y_grid = np.linspace(rect.y_min, rect.y_max, resolution)
            tt, xx, yy = np.meshgrid(t_grid, x_grid, y_grid, indexing="ij")
            values = self.rate(tt.ravel(), xx.ravel(), yy.ravel())
            total += float(values.mean()) * (t_end - t_start) * rect.area
        return total

    def mean_rate(self, region, t_start: float, t_end: float, *, resolution: int = 40) -> float:
        """Average intensity over the window (integral divided by volume)."""
        region = _as_region(region)
        volume = region.area * (t_end - t_start)
        if volume <= 0:
            raise PointProcessError("window must have positive volume")
        return self.integral(region, t_start, t_end, resolution=resolution) / volume


@dataclass(frozen=True)
class ConstantIntensity(IntensityModel):
    """A constant intensity ``lambda(t, x, y) = value`` (homogeneous MDPP)."""

    value: float

    def __post_init__(self) -> None:
        if self.value <= 0:
            raise PointProcessError("intensity must be strictly positive")

    def rate(self, t, x, y):
        t = np.asarray(t, dtype=float)
        return np.full(t.shape, self.value)

    def max_rate(self, region, t_start, t_end):
        return self.value

    def integral(self, region, t_start, t_end, *, resolution: int = 40):
        region = _as_region(region)
        if t_end <= t_start:
            raise PointProcessError("time window must have positive length")
        return self.value * region.area * (t_end - t_start)


@dataclass(frozen=True)
class LinearIntensity(IntensityModel):
    """The paper's Eq. (1): ``theta0 + theta1*t + theta2*x + theta3*y``.

    The linear form can go non-positive outside a carefully chosen domain, so
    evaluation clamps at ``min_rate`` (a tiny positive floor) and
    construction validates positivity on a reference window when one is
    provided via :meth:`validated_on`.
    """

    theta0: float
    theta1: float
    theta2: float
    theta3: float
    min_rate: float = 1e-9

    @property
    def theta(self) -> Tuple[float, float, float, float]:
        """The parameter vector ``(theta0, theta1, theta2, theta3)``."""
        return (self.theta0, self.theta1, self.theta2, self.theta3)

    @classmethod
    def from_theta(cls, theta: Sequence[float], *, min_rate: float = 1e-9) -> "LinearIntensity":
        """Build from a length-4 parameter sequence."""
        theta = list(theta)
        if len(theta) != 4:
            raise PointProcessError("linear intensity needs exactly 4 parameters")
        return cls(theta[0], theta[1], theta[2], theta[3], min_rate=min_rate)

    def rate(self, t, x, y):
        t = np.asarray(t, dtype=float)
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        values = self.theta0 + self.theta1 * t + self.theta2 * x + self.theta3 * y
        return np.maximum(values, self.min_rate)

    def max_rate(self, region, t_start, t_end):
        region = _as_region(region)
        best = self.min_rate
        for rect in region.rectangles:
            for t in (t_start, t_end):
                for corner in rect.corners():
                    best = max(best, self.rate_at(t, corner.x, corner.y))
        return best

    def min_rate_on(self, region, t_start: float, t_end: float) -> float:
        """Minimum of the (unclamped) linear form over the window's corners."""
        region = _as_region(region)
        best = math.inf
        for rect in region.rectangles:
            for t in (t_start, t_end):
                for corner in rect.corners():
                    value = (
                        self.theta0
                        + self.theta1 * t
                        + self.theta2 * corner.x
                        + self.theta3 * corner.y
                    )
                    best = min(best, value)
        return best

    def validated_on(self, region, t_start: float, t_end: float) -> "LinearIntensity":
        """Return self after checking positivity over the given window.

        Raises
        ------
        PointProcessError
            If the linear form is non-positive anywhere on the window (the
            corners suffice because the form is affine).
        """
        if self.min_rate_on(region, t_start, t_end) <= 0:
            raise PointProcessError(
                "linear intensity is non-positive somewhere on the window; "
                "choose parameters that keep the rate positive"
            )
        return self

    def integral(self, region, t_start, t_end, *, resolution: int = 40):
        # The affine form integrates in closed form over a box: the integral
        # equals the intensity at the centroid times the volume.
        region = _as_region(region)
        if t_end <= t_start:
            raise PointProcessError("time window must have positive length")
        t_mid = 0.5 * (t_start + t_end)
        total = 0.0
        for rect in region.rectangles:
            centroid = rect.center
            value = (
                self.theta0
                + self.theta1 * t_mid
                + self.theta2 * centroid.x
                + self.theta3 * centroid.y
            )
            total += max(value, self.min_rate) * rect.area * (t_end - t_start)
        return total

"""Synthetic phenomena fields: the quantities the crowd senses.

The paper's two running examples are *rain* (a human-sensed boolean
attribute) and *ambient temperature* (a sensor-sensed real attribute).
These fields provide ground-truth values at any space-time point so the
simulator can answer acquisition requests realistically, and so examples
can show end-to-end value streams rather than bare coordinates.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Optional, Sequence, Tuple

import numpy as np

from ..errors import CraqrError
from ..geometry import Rectangle
from ..rng import ensure_rng


class PhenomenonField(ABC):
    """A spatio-temporal field sensed over aligned ``(t, x, y)`` columns.

    A field has two bodies, one per RNG contract, and both are abstract: a
    field without either is a ``TypeError`` when it is built.
    """

    #: Name of the attribute the field backs (e.g. ``"rain"``).
    attribute: str = "value"

    @abstractmethod
    def values(
        self,
        t: np.ndarray,
        x: np.ndarray,
        y: np.ndarray,
        rng: Optional[np.random.Generator] = None,
    ) -> np.ndarray:
        """Ground-truth (possibly noisy) values at aligned coordinate arrays.

        The fast-sim round senses a whole wave with one call, drawing any
        noise from the shared stream ``rng``.
        """

    @abstractmethod
    def values_from_uniforms(
        self,
        t: np.ndarray,
        x: np.ndarray,
        y: np.ndarray,
        u0: np.ndarray,
        u1: np.ndarray,
    ) -> np.ndarray:
        """Sensed values driven by two keyed ``[0, 1)`` uniforms per request.

        The strict contract's sensing draw: request ``i``'s value is a pure
        function of ``(t[i], x[i], y[i], u0[i], u1[i])``, so one call over a
        whole wave equals one call per request.
        """


class RainField(PhenomenonField):
    """A moving rain front: boolean rain indicator over space and time.

    A rain band of width ``band_width`` sweeps across the region in the x
    direction with the given period.  Inside the band it rains with high
    probability, outside with low probability — so human responses are noisy
    but spatially coherent, as real crowd reports would be.
    """

    attribute = "rain"

    def __init__(
        self,
        region: Rectangle,
        *,
        band_width: float = 0.3,
        period: float = 60.0,
        p_rain_inside: float = 0.95,
        p_rain_outside: float = 0.02,
    ) -> None:
        if band_width <= 0 or period <= 0:
            raise CraqrError("band_width and period must be positive")
        if not (0 <= p_rain_outside <= p_rain_inside <= 1):
            raise CraqrError("need 0 <= p_rain_outside <= p_rain_inside <= 1")
        self._region = region
        self._band_width = band_width
        self._period = period
        self._p_inside = p_rain_inside
        self._p_outside = p_rain_outside

    def rain_probabilities(self, t: np.ndarray, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Probability that a responder at each ``(t, x, y)`` reports rain."""
        del y  # the band is uniform in y
        t = np.asarray(t, dtype=float)
        x = np.asarray(x, dtype=float)
        phase = np.mod(t, self._period) / self._period
        center = self._region.x_min + phase * self._region.width
        dx = np.abs(x - center)
        dx = np.minimum(dx, self._region.width - dx)
        return np.where(dx <= self._band_width / 2, self._p_inside, self._p_outside)

    def values(self, t, x, y, rng=None) -> np.ndarray:
        rng = ensure_rng(rng)
        probabilities = self.rain_probabilities(t, x, y)
        return rng.random(probabilities.shape[0]) < probabilities

    def values_from_uniforms(self, t, x, y, u0, u1) -> np.ndarray:
        del u1
        return np.asarray(u0) < self.rain_probabilities(t, x, y)


class TemperatureField(PhenomenonField):
    """Smooth temperature surface with a diurnal cycle and urban heat islands.

    ``temperature = base + diurnal(t) + sum of Gaussian heat islands + noise``
    """

    attribute = "temp"

    def __init__(
        self,
        region: Rectangle,
        *,
        base: float = 18.0,
        diurnal_amplitude: float = 6.0,
        period: float = 1440.0,
        heat_islands: Sequence[Tuple[float, float, float, float]] = (),
        noise_std: float = 0.3,
    ) -> None:
        if period <= 0:
            raise CraqrError("period must be positive")
        if noise_std < 0:
            raise CraqrError("noise_std must be non-negative")
        for island in heat_islands:
            if len(island) != 4 or island[3] <= 0:
                raise CraqrError("heat islands must be (cx, cy, amplitude, sigma>0)")
        self._region = region
        self._base = base
        self._diurnal_amplitude = diurnal_amplitude
        self._period = period
        self._heat_islands = [tuple(map(float, island)) for island in heat_islands]
        self._noise_std = noise_std

    def mean_values(self, t: np.ndarray, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Noise-free temperature at aligned coordinate arrays."""
        t = np.asarray(t, dtype=float)
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        value = self._base + self._diurnal_amplitude * np.sin(2 * np.pi * t / self._period)
        for cx, cy, amplitude, sigma in self._heat_islands:
            d2 = (x - cx) ** 2 + (y - cy) ** 2
            value = value + amplitude * np.exp(-d2 / (2 * sigma * sigma))
        return value

    def values(self, t, x, y, rng=None) -> np.ndarray:
        rng = ensure_rng(rng)
        mean = self.mean_values(t, x, y)
        if self._noise_std > 0:
            mean = mean + rng.normal(0.0, self._noise_std, mean.shape[0])
        return mean

    def values_from_uniforms(self, t, x, y, u0, u1) -> np.ndarray:
        mean = self.mean_values(t, x, y)
        if self._noise_std > 0:
            # Box-Muller: 1 - u0 is in (0, 1], so the log is finite.
            noise = np.sqrt(-2.0 * np.log1p(-np.asarray(u0))) * np.cos(
                (2.0 * np.pi) * np.asarray(u1)
            )
            mean = mean + self._noise_std * noise
        return mean

"""Synthetic phenomena fields: the quantities the crowd senses.

The paper's two running examples are *rain* (a human-sensed boolean
attribute) and *ambient temperature* (a sensor-sensed real attribute).
These fields provide ground-truth values at any space-time point so the
simulator can answer acquisition requests realistically, and so examples
can show end-to-end value streams rather than bare coordinates.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from typing import Optional, Sequence, Tuple

import numpy as np

from ..errors import CraqrError
from ..geometry import Rectangle
from ..rng import ensure_rng


class PhenomenonField(ABC):
    """A spatio-temporal field ``value(t, x, y)``."""

    #: Name of the attribute the field backs (e.g. ``"rain"``).
    attribute: str = "value"

    @abstractmethod
    def value(self, t: float, x: float, y: float, rng: Optional[np.random.Generator] = None):
        """Ground-truth (possibly noisy) value at the given point."""

    def values(
        self,
        t: np.ndarray,
        x: np.ndarray,
        y: np.ndarray,
        rng: Optional[np.random.Generator] = None,
    ) -> np.ndarray:
        """Vectorised :meth:`value` over aligned coordinate arrays.

        The fast-sim round senses a whole wave with one call, drawing from
        the shared stream.  Subclasses override this with numpy
        implementations that consume the generator's bit stream exactly as
        the equivalent sequence of scalar :meth:`value` calls would.  The
        fallback simply loops.
        """
        t = np.asarray(t, dtype=float)
        out = np.empty(t.shape[0], dtype=object)
        for i in range(t.shape[0]):
            out[i] = self.value(float(t[i]), float(x[i]), float(y[i]), rng=rng)
        return out

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
        whole wave equals one call per request.  Subclasses override this
        with numpy transforms of the uniforms.  The fallback seeds one
        generator per request from its two uniforms (each is ``k / 2**53``,
        so ``k`` is exact) and calls :meth:`value` with it.
        """
        seeds = (np.stack((u0, u1)) * 9007199254740992.0).astype(np.uint64)
        return _value_column(
            [
                self.value(ti, xi, yi, rng=np.random.default_rng(seed))
                for ti, xi, yi, seed in zip(
                    np.asarray(t, dtype=float).tolist(),
                    np.asarray(x, dtype=float).tolist(),
                    np.asarray(y, dtype=float).tolist(),
                    seeds.T.tolist(),
                )
            ]
        )


def _value_column(values: list) -> np.ndarray:
    """Sensed values as one 1-d column; object dtype when they are not scalars."""
    try:
        column = np.asarray(values)
        if column.ndim != 1:  # e.g. list/tuple values
            raise ValueError
    except ValueError:
        column = np.empty(len(values), dtype=object)
        column[:] = values
    return column


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

    def band_center(self, t: float) -> float:
        """x-coordinate of the centre of the rain band at time ``t``."""
        phase = (t % self._period) / self._period
        return self._region.x_min + phase * self._region.width

    def rain_probability(self, t: float, x: float, y: float) -> float:
        """Probability that a responder at ``(x, y)`` reports rain at time ``t``."""
        del y  # the band is uniform in y
        center = self.band_center(t)
        # Wrap-around distance along x.
        dx = abs(x - center)
        dx = min(dx, self._region.width - dx)
        if dx <= self._band_width / 2:
            return self._p_inside
        return self._p_outside

    def value(self, t, x, y, rng=None) -> bool:
        rng = ensure_rng(rng)
        return bool(rng.random() < self.rain_probability(t, x, y))

    def rain_probabilities(self, t: np.ndarray, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Vectorised :meth:`rain_probability` over aligned arrays."""
        del y
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
        # rng.random(n) consumes the same draws as n scalar rng.random()
        # calls, so this matches the scalar path bit for bit.
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

    def mean_value(self, t: float, x: float, y: float) -> float:
        """Noise-free temperature at the given point.

        Uses numpy's scalar transcendentals (not :mod:`math`) so the result
        is bit-identical to the vectorised :meth:`mean_values` — libm and
        numpy's SIMD ``exp`` can differ in the last ulp.
        """
        diurnal = self._diurnal_amplitude * float(np.sin(2 * np.pi * t / self._period))
        value = self._base + diurnal
        for cx, cy, amplitude, sigma in self._heat_islands:
            d2 = (x - cx) ** 2 + (y - cy) ** 2
            value += amplitude * float(np.exp(-d2 / (2 * sigma * sigma)))
        return value

    def value(self, t, x, y, rng=None) -> float:
        rng = ensure_rng(rng)
        noise = float(rng.normal(0.0, self._noise_std)) if self._noise_std > 0 else 0.0
        return self.mean_value(t, x, y) + noise

    def mean_values(self, t: np.ndarray, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Vectorised :meth:`mean_value` over aligned arrays."""
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

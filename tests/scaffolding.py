"""Test-only building blocks that the package itself has no use for.

pytest puts ``tests/`` on ``sys.path`` when it imports ``tests/conftest.py``
(there is no ``__init__.py``), so any test module can
``from scaffolding import ...``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

import numpy as np

from repro.plan.cache import assemble_programs
from repro.plan.executor import ChainProgram, ChainSteps
from repro.pointprocess import IntensityModel
from repro.sensing import PhenomenonField
from repro.serve.protocol import frame_head


@dataclass(frozen=True)
class HotspotIntensity(IntensityModel):
    """A baseline rate plus Gaussian spatial hotspots ``(cx, cy, amplitude, sigma)``.

    An intensity with no Eq. (1) form, so Flatten has to evaluate it.
    """

    baseline: float
    hotspots: Tuple[Tuple[float, float, float, float], ...]

    def rate(self, t, x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        values = np.full(x.shape, float(self.baseline))
        for cx, cy, amplitude, sigma in self.hotspots:
            d2 = (x - cx) ** 2 + (y - cy) ** 2
            values = values + amplitude * np.exp(-d2 / (2.0 * sigma * sigma))
        return values

    def max_rate(self, region, t_start, t_end):
        return self.baseline + sum(spot[2] for spot in self.hotspots)


@dataclass
class ConstantField(PhenomenonField):
    """A field that always returns the same value."""

    constant: object = 0.0
    attribute: str = "value"

    def value(self, t, x, y, rng=None):
        return self.constant

    def values(self, t, x, y, rng=None):
        n = np.asarray(t).shape[0]
        if isinstance(self.constant, (bool, int, float)):
            return np.full(n, self.constant)
        out = np.empty(n, dtype=object)
        out[:] = [self.constant] * n
        return out

    def values_from_uniforms(self, t, x, y, u0, u1):
        return self.values(t, x, y)


def frame_message(body: bytes) -> bytes:
    """Length-prefix one message body for the raw-TCP transport."""
    return frame_head(len(body)) + body


def compile_programs(planner) -> Dict[str, ChainProgram]:
    """Compile every materialised chain into its attribute's program."""
    return assemble_programs(
        planner, lambda key, topology, attribute: ChainSteps(topology.chain(attribute))
    )

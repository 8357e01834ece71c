"""Residual analysis for fitted conditional intensities.

The time-rescaling theorem states that if events are generated by a point
process with (ground-truth) intensity ``lambda``, then transforming event
times by the cumulative intensity turns the process into a unit-rate Poisson
process.  For spatio-temporal processes we rescale the temporal margin using
the spatially integrated intensity; the resulting inter-arrival residuals
should be i.i.d. Exp(1) if the fitted model is correct.  This gives an
independent goodness-of-fit check for the estimators in
:mod:`repro.pointprocess.estimation`.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from ..errors import PointProcessError
from ..geometry import Rectangle, RectRegion, Region
from .events import EventBatch
from .intensity import IntensityModel


def _coerce_region(region) -> Region:
    if isinstance(region, Rectangle):
        return RectRegion(region)
    if isinstance(region, Region):
        return region
    raise PointProcessError(f"expected Region or Rectangle, got {type(region)!r}")


def rescaled_time_residuals(
    batch: EventBatch,
    intensity: IntensityModel,
    region,
    *,
    t_start: float = 0.0,
    steps: int = 200,
) -> np.ndarray:
    """Inter-arrival residuals after time rescaling by the fitted intensity.

    The cumulative spatially-integrated intensity ``Lambda(t)`` is computed
    on a regular time grid by integrating the model over the region for each
    small time slab; event times are mapped through ``Lambda`` and the
    differences of the transformed times are returned.  Under a correct model
    those differences are approximately Exp(1).
    """
    region = _coerce_region(region)
    if batch.is_empty:
        return np.empty(0)
    if steps <= 1:
        raise PointProcessError("steps must be at least 2")
    ordered = batch.sorted_by_time()
    t_end = float(ordered.t.max())
    if t_end <= t_start:
        t_end = t_start + 1e-9
    grid = np.linspace(t_start, t_end, steps)
    slab = np.diff(grid)
    # Spatially integrated rate for each slab midpoint.
    slab_rates = np.empty(len(slab))
    for i in range(len(slab)):
        slab_rates[i] = intensity.integral(region, grid[i], grid[i + 1]) / slab[i]
    cumulative = np.concatenate([[0.0], np.cumsum(slab_rates * slab)])
    transformed = np.interp(ordered.t, grid, cumulative)
    return np.diff(np.concatenate([[0.0], transformed]))


def residual_ks_statistic(residuals: np.ndarray) -> Tuple[float, float]:
    """KS statistic and p-value of the residuals against Exp(1)."""
    from scipy import stats  # function-level: no engine process imports scipy

    residuals = np.asarray(residuals, dtype=float)
    if residuals.size == 0:
        return (0.0, 1.0)
    result = stats.kstest(residuals, "expon")
    return (float(result.statistic), float(result.pvalue))

"""Statistical diagnostics for point-process batches.

The paper's central claim for the Flatten operator is that the retained
events form an *approximately homogeneous* process at the requested rate.
The routines here quantify that claim and are used throughout the test suite
and the benchmark harness:

* :func:`quadrat_counts` / :func:`quadrat_chi_square_test` — the classical
  quadrat test of complete spatial randomness (CSR): under homogeneity the
  counts in equal-area cells are i.i.d. Poisson, so the index-of-dispersion
  statistic follows a chi-square distribution.
* :func:`coefficient_of_variation` — dispersion of per-cell rates; a simple,
  threshold-friendly skew measure.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import GeometryError, PointProcessError
from ..geometry import Region, as_region
from .events import EventBatch


def quadrat_counts(batch: EventBatch, region, nx: int, ny: int) -> np.ndarray:
    """Counts of events in an ``ny x nx`` spatial grid over the region's bounding box."""
    try:
        region = as_region(region)
    except GeometryError as exc:
        raise PointProcessError(str(exc)) from None
    if nx <= 0 or ny <= 0:
        raise PointProcessError("quadrat counts need positive grid dimensions")
    bbox = region.bounding_box
    counts = np.zeros((ny, nx), dtype=int)
    if batch.is_empty:
        return counts
    qx = np.clip(((batch.x - bbox.x_min) / bbox.width * nx).astype(int), 0, nx - 1)
    ry = np.clip(((batch.y - bbox.y_min) / bbox.height * ny).astype(int), 0, ny - 1)
    for q, r in zip(qx, ry):
        counts[r, q] += 1
    return counts


@dataclass(frozen=True)
class ChiSquareResult:
    """Outcome of the quadrat chi-square test of homogeneity."""

    statistic: float
    p_value: float
    degrees_of_freedom: int


def quadrat_chi_square_test(
    batch: EventBatch, region, nx: int = 4, ny: int = 4
) -> ChiSquareResult:
    """Quadrat (index-of-dispersion) chi-square test of spatial homogeneity.

    Under CSR the statistic ``sum (n_i - n_bar)^2 / n_bar`` is approximately
    chi-square with ``nx*ny - 1`` degrees of freedom.
    """
    from scipy import stats  # function-level: no engine process imports scipy

    counts = quadrat_counts(batch, region, nx, ny).ravel().astype(float)
    if counts.sum() == 0:
        return ChiSquareResult(statistic=0.0, p_value=1.0, degrees_of_freedom=nx * ny - 1)
    mean = counts.mean()
    statistic = float(np.sum((counts - mean) ** 2 / mean))
    dof = counts.size - 1
    p_value = float(stats.chi2.sf(statistic, dof))
    return ChiSquareResult(statistic=statistic, p_value=p_value, degrees_of_freedom=dof)


def coefficient_of_variation(batch: EventBatch, region, nx: int = 4, ny: int = 4) -> float:
    """Coefficient of variation of quadrat counts (0 for perfectly even)."""
    counts = quadrat_counts(batch, region, nx, ny).ravel().astype(float)
    mean = counts.mean()
    if mean == 0:
        return 0.0
    return float(counts.std() / mean)

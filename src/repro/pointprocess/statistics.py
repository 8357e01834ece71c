"""Statistical diagnostics for point-process batches.

The paper's central claim for the Flatten operator is that the retained
events form an *approximately homogeneous* process at the requested rate.
The routines here quantify that claim and are used throughout the test suite
and the benchmark harness:

* :func:`empirical_rate` — observed events per unit area and time.
* :func:`quadrat_counts` / :func:`quadrat_chi_square_test` — the classical
  quadrat test of complete spatial randomness (CSR): under homogeneity the
  counts in equal-area cells are i.i.d. Poisson, so the index-of-dispersion
  statistic follows a chi-square distribution.
* :func:`coefficient_of_variation` — dispersion of per-cell rates; a simple,
  threshold-friendly skew measure.
* :func:`ks_uniformity_test` — Kolmogorov–Smirnov test of the marginal
  uniformity of each coordinate.
* :func:`ripley_k` — Ripley's K function estimate for spatial clustering.
* :func:`assess_homogeneity` — a composite report used by benches.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from ..errors import PointProcessError
from ..geometry import Rectangle, RectRegion, Region
from .events import EventBatch


def _coerce_region(region) -> Region:
    if isinstance(region, Rectangle):
        return RectRegion(region)
    if isinstance(region, Region):
        return region
    raise PointProcessError(f"expected Region or Rectangle, got {type(region)!r}")


def empirical_rate(batch: EventBatch, region, duration: float) -> float:
    """Observed rate (events per unit area per unit time)."""
    region = _coerce_region(region)
    if duration <= 0:
        raise PointProcessError("duration must be positive")
    volume = region.area * duration
    if volume <= 0:
        raise PointProcessError("window must have positive volume")
    return len(batch) / volume


def quadrat_counts(batch: EventBatch, region, nx: int, ny: int) -> np.ndarray:
    """Counts of events in an ``ny x nx`` spatial grid over the region's bounding box."""
    region = _coerce_region(region)
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

    def rejects_homogeneity(self, alpha: float = 0.01) -> bool:
        """Whether homogeneity is rejected at significance level ``alpha``."""
        return self.p_value < alpha


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


def ks_uniformity_test(batch: EventBatch, region, duration: float, *, t_start: float = 0.0) -> Tuple[float, float, float]:
    """KS p-values for the marginal uniformity of ``t``, ``x`` and ``y``.

    Only meaningful for single-rectangle regions (the common case); for
    composite regions the bounding box is used, which makes the test
    conservative in x/y.
    """
    from scipy import stats  # function-level: no engine process imports scipy

    region = _coerce_region(region)
    if batch.is_empty:
        return (1.0, 1.0, 1.0)
    bbox = region.bounding_box
    p_t = stats.kstest(
        (batch.t - t_start) / duration, "uniform"
    ).pvalue if duration > 0 else 1.0
    p_x = stats.kstest((batch.x - bbox.x_min) / bbox.width, "uniform").pvalue
    p_y = stats.kstest((batch.y - bbox.y_min) / bbox.height, "uniform").pvalue
    return (float(p_t), float(p_x), float(p_y))


def ripley_k(batch: EventBatch, region, radii: np.ndarray) -> np.ndarray:
    """Ripley's K function estimate at the given radii (no edge correction).

    For a homogeneous Poisson process ``K(r) ~ pi r^2``; clustering inflates
    K above that reference, regular patterns deflate it.
    """
    region = _coerce_region(region)
    radii = np.asarray(radii, dtype=float)
    n = len(batch)
    if n < 2:
        return np.zeros_like(radii)
    area = region.area
    coords = np.column_stack([batch.x, batch.y])
    diffs = coords[:, None, :] - coords[None, :, :]
    distances = np.sqrt((diffs ** 2).sum(axis=2))
    np.fill_diagonal(distances, np.inf)
    density = n / area
    k_values = np.empty_like(radii)
    for idx, r in enumerate(radii):
        pair_count = float(np.count_nonzero(distances <= r))
        k_values[idx] = pair_count / (n * density)
    return k_values


@dataclass(frozen=True)
class HomogeneityReport:
    """Composite homogeneity assessment of one event batch.

    Attributes
    ----------
    empirical_rate:
        Observed rate over the window.
    target_rate:
        The requested rate (``nan`` when not supplied).
    rate_relative_error:
        ``|empirical - target| / target`` (``nan`` without a target).
    chi_square:
        Quadrat chi-square test result.
    cv:
        Coefficient of variation of quadrat counts.
    ks_pvalues:
        ``(p_t, p_x, p_y)`` marginal uniformity p-values.
    """

    empirical_rate: float
    target_rate: float
    rate_relative_error: float
    chi_square: ChiSquareResult
    cv: float
    ks_pvalues: Tuple[float, float, float]

    def is_approximately_homogeneous(
        self, *, alpha: float = 0.01, max_cv: float = 1.0
    ) -> bool:
        """Whether the batch passes the chi-square test and has moderate dispersion."""
        return not self.chi_square.rejects_homogeneity(alpha) and self.cv <= max_cv

    def meets_rate(self, tolerance: float = 0.2) -> bool:
        """Whether the empirical rate is within ``tolerance`` of the target."""
        if np.isnan(self.rate_relative_error):
            return False
        return self.rate_relative_error <= tolerance


def assess_homogeneity(
    batch: EventBatch,
    region,
    duration: float,
    *,
    target_rate: Optional[float] = None,
    t_start: float = 0.0,
    nx: int = 4,
    ny: int = 4,
) -> HomogeneityReport:
    """Build a :class:`HomogeneityReport` for one batch."""
    region = _coerce_region(region)
    observed = empirical_rate(batch, region, duration)
    if target_rate is None or target_rate <= 0:
        target = float("nan")
        relative_error = float("nan")
    else:
        target = float(target_rate)
        relative_error = abs(observed - target) / target
    return HomogeneityReport(
        empirical_rate=observed,
        target_rate=target,
        rate_relative_error=relative_error,
        chi_square=quadrat_chi_square_test(batch, region, nx, ny),
        cv=coefficient_of_variation(batch, region, nx, ny),
        ks_pvalues=ks_uniformity_test(batch, region, duration, t_start=t_start),
    )

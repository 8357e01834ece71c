"""Multi-dimensional point process (MDPP) substrate.

This package implements the mathematical machinery Section III of the paper
relies on: spatio-temporal Poisson processes over ``(t, x, y)``, conditional
intensity models such as the linear form of Eq. (1), simulation of
homogeneous and inhomogeneous processes, independent thinning,
parameter estimation (batch maximum likelihood and online
stochastic gradient descent) and statistical tests used to check that a
process is (approximately) homogeneous at a given rate.
"""

from .events import EventBatch
from .intensity import (
    IntensityModel,
    ConstantIntensity,
    LinearIntensity,
)
from .homogeneous import HomogeneousMDPP
from .inhomogeneous import InhomogeneousMDPP
from .thinning import (
    thin_events,
    thin_to_rate,
    flatten_events,
    flatten_keep_mask,
    flatten_segments,
    SegmentedFlatten,
    ThinningResult,
    ThinningMask,
)
from .estimation import (
    EstimationResult,
    fit_linear_intensity_mle,
    fit_linear_intensity_mle_segments,
    OnlineIntensityEstimator,
)
from .statistics import (
    quadrat_counts,
    quadrat_chi_square_test,
    coefficient_of_variation,
)

__all__ = [
    "EventBatch",
    "IntensityModel",
    "ConstantIntensity",
    "LinearIntensity",
    "HomogeneousMDPP",
    "InhomogeneousMDPP",
    "thin_events",
    "thin_to_rate",
    "flatten_events",
    "flatten_keep_mask",
    "flatten_segments",
    "SegmentedFlatten",
    "ThinningResult",
    "ThinningMask",
    "EstimationResult",
    "fit_linear_intensity_mle",
    "fit_linear_intensity_mle_segments",
    "OnlineIntensityEstimator",
    "quadrat_counts",
    "quadrat_chi_square_test",
    "coefficient_of_variation",
]

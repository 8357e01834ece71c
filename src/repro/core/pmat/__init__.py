"""PMAT: point-process transformation operators (paper Section IV-B).

The four operators the paper describes in detail:

* :class:`FlattenOperator` (``F``) — inhomogeneous → approximately
  homogeneous at a target rate, reporting percent rate violation ``N_v``.
* :class:`ThinOperator` (``T``) — homogeneous rate reduction.
* :class:`PartitionOperator` (``P``) — split a process by sub-region.
* :class:`UnionOperator` (``U``) — merge equal-rate processes on adjacent
  regions.

Plus extension operators in :mod:`repro.core.pmat.extensions` (the paper
notes "we have researched many more operators"): shifting, marking and
fixed-probability sampling.
"""

from .base import PMATOperator
from .flatten import FlattenOperator
from .thin import ThinOperator
from .partition import PartitionOperator
from .union import UnionOperator
from .extensions import ShiftOperator, MarkOperator, SampleOperator
from .cleaning import (
    ClampOperator,
    OutlierFilterOperator,
)

__all__ = [
    "PMATOperator",
    "FlattenOperator",
    "ThinOperator",
    "PartitionOperator",
    "UnionOperator",
    "ShiftOperator",
    "MarkOperator",
    "SampleOperator",
    "ClampOperator",
    "OutlierFilterOperator",
]

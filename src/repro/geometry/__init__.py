"""Geometric substrate: points, rectangles, region algebra and the grid.

The paper works over a rectangular geographical region ``R`` that is
logically partitioned into a ``sqrt(h) x sqrt(h)`` grid (Section IV).  Query
regions are rectangles; the Partition and Union PMAT operators rely on
rectangle intersection, disjointness and adjacency.  This package provides
those primitives.
"""

from .point import SpacePoint, SpaceTimePoint
from .rectangle import Rectangle
from .region import (
    Region,
    RectRegion,
    CompositeRegion,
    union_regions,
)
from .grid import Grid, GridCell

__all__ = [
    "SpacePoint",
    "SpaceTimePoint",
    "Rectangle",
    "Region",
    "RectRegion",
    "CompositeRegion",
    "union_regions",
    "Grid",
    "GridCell",
]

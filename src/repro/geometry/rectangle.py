"""Axis-aligned rectangles.

Rectangles are the fundamental spatial regions of the paper: the whole region
``R``, grid cells ``R(q,r)`` and query regions are all axis-aligned
rectangles.  A rectangle is half-open on its upper edges (``[x_min, x_max) x
[y_min, y_max)``) so that a grid of touching cells tiles the plane without
double-counting boundary points; the *overall* region's outermost edges are
treated as closed by the grid (see :mod:`repro.geometry.grid`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional

import numpy as np

from ..errors import GeometryError
from .point import SpacePoint

#: Tolerance used when comparing coordinates for adjacency and equality.
COORD_TOLERANCE = 1e-9


@dataclass(frozen=True, order=True)
class Rectangle:
    """An axis-aligned rectangle ``[x_min, x_max) x [y_min, y_max)``."""

    x_min: float
    y_min: float
    x_max: float
    y_max: float

    def __post_init__(self) -> None:
        if not (self.x_max > self.x_min and self.y_max > self.y_min):
            raise GeometryError(
                "rectangle must have positive extent; got "
                f"[{self.x_min}, {self.x_max}) x [{self.y_min}, {self.y_max})"
            )

    # ------------------------------------------------------------------
    # Basic measures
    # ------------------------------------------------------------------
    @property
    def width(self) -> float:
        """Extent along x."""
        return self.x_max - self.x_min

    @property
    def height(self) -> float:
        """Extent along y."""
        return self.y_max - self.y_min

    @property
    def area(self) -> float:
        """Area of the rectangle (the paper's ``area(.)`` function)."""
        return self.width * self.height

    @property
    def center(self) -> SpacePoint:
        """Geometric centre."""
        return SpacePoint((self.x_min + self.x_max) / 2.0, (self.y_min + self.y_max) / 2.0)

    def corners(self) -> List[SpacePoint]:
        """The four corners, counter-clockwise from the lower-left."""
        return [
            SpacePoint(self.x_min, self.y_min),
            SpacePoint(self.x_max, self.y_min),
            SpacePoint(self.x_max, self.y_max),
            SpacePoint(self.x_min, self.y_max),
        ]

    # ------------------------------------------------------------------
    # Point and rectangle relations
    # ------------------------------------------------------------------
    def contains(self, x: float, y: float, *, closed: bool = False) -> bool:
        """Whether the point ``(x, y)`` lies inside the rectangle.

        Parameters
        ----------
        closed:
            When true the upper edges are included; used for the outermost
            boundary of the overall region so no sensed point is lost.
        """
        if closed:
            return self.x_min <= x <= self.x_max and self.y_min <= y <= self.y_max
        return self.x_min <= x < self.x_max and self.y_min <= y < self.y_max

    def contains_many(self, xs, ys, *, closed: bool = False):
        """Vectorised :meth:`contains`: a boolean mask over point arrays."""
        xs = np.asarray(xs, dtype=float)
        ys = np.asarray(ys, dtype=float)
        if closed:
            return (
                (self.x_min <= xs) & (xs <= self.x_max)
                & (self.y_min <= ys) & (ys <= self.y_max)
            )
        return (
            (self.x_min <= xs) & (xs < self.x_max)
            & (self.y_min <= ys) & (ys < self.y_max)
        )

    def intersects(self, other: "Rectangle") -> bool:
        """Whether the two rectangles overlap with positive area."""
        return (
            self.x_min < other.x_max
            and other.x_min < self.x_max
            and self.y_min < other.y_max
            and other.y_min < self.y_max
        )

    def intersection(self, other: "Rectangle") -> Optional["Rectangle"]:
        """The overlapping rectangle, or ``None`` if the overlap has no area."""
        if not self.intersects(other):
            return None
        return Rectangle(
            max(self.x_min, other.x_min),
            max(self.y_min, other.y_min),
            min(self.x_max, other.x_max),
            min(self.y_max, other.y_max),
        )

    def overlap_area(self, other: "Rectangle") -> float:
        """Area of the overlap with ``other`` (0 when disjoint)."""
        overlap = self.intersection(other)
        return overlap.area if overlap is not None else 0.0

    # ------------------------------------------------------------------
    # Adjacency and union (needed by the Union PMAT operator)
    # ------------------------------------------------------------------
    def shares_full_side_with(self, other: "Rectangle") -> bool:
        """Whether the rectangles are adjacent with a common side of equal length.

        This is exactly the pre-condition the paper states for the Union
        operator: "the rectangles should be adjacent and with a common side
        of equal length".
        """
        same_y = (
            abs(self.y_min - other.y_min) <= COORD_TOLERANCE
            and abs(self.y_max - other.y_max) <= COORD_TOLERANCE
        )
        same_x = (
            abs(self.x_min - other.x_min) <= COORD_TOLERANCE
            and abs(self.x_max - other.x_max) <= COORD_TOLERANCE
        )
        touch_in_x = (
            abs(self.x_max - other.x_min) <= COORD_TOLERANCE
            or abs(other.x_max - self.x_min) <= COORD_TOLERANCE
        )
        touch_in_y = (
            abs(self.y_max - other.y_min) <= COORD_TOLERANCE
            or abs(other.y_max - self.y_min) <= COORD_TOLERANCE
        )
        return (same_y and touch_in_x) or (same_x and touch_in_y)

    def union_with(self, other: "Rectangle") -> "Rectangle":
        """Union with an adjacent rectangle of matching side.

        Raises
        ------
        GeometryError
            If the rectangles are not adjacent with a common side of equal
            length (the union would not be a rectangle).
        """
        if not self.shares_full_side_with(other):
            raise GeometryError(
                "rectangles can only be unioned when adjacent with a common "
                f"side of equal length: {self} vs {other}"
            )
        return Rectangle(
            min(self.x_min, other.x_min),
            min(self.y_min, other.y_min),
            max(self.x_max, other.x_max),
            max(self.y_max, other.y_max),
        )

    # ------------------------------------------------------------------
    # Splitting helpers (used by the grid and by Partition)
    # ------------------------------------------------------------------
    def subdivide(self, nx: int, ny: int) -> List["Rectangle"]:
        """Split into an ``nx x ny`` array of equal cells, row-major from the bottom-left."""
        if nx <= 0 or ny <= 0:
            raise GeometryError("subdivision counts must be positive")
        cell_w = self.width / nx
        cell_h = self.height / ny
        cells: List[Rectangle] = []
        for r in range(ny):
            for q in range(nx):
                cells.append(
                    Rectangle(
                        self.x_min + q * cell_w,
                        self.y_min + r * cell_h,
                        self.x_min + (q + 1) * cell_w,
                        self.y_min + (r + 1) * cell_h,
                    )
                )
        return cells

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def bounding(cls, rectangles: Iterable["Rectangle"]) -> "Rectangle":
        """Smallest rectangle containing every rectangle in ``rectangles``."""
        rects = list(rectangles)
        if not rects:
            raise GeometryError("cannot compute the bounding box of nothing")
        return cls(
            min(r.x_min for r in rects),
            min(r.y_min for r in rects),
            max(r.x_max for r in rects),
            max(r.y_max for r in rects),
        )

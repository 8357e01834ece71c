"""The logical ``sqrt(h) x sqrt(h)`` grid over the region R (Section IV).

The grid is purely logical: the engine only materialises the cells that
participate in query processing.  Cells are addressed by integer
``(q, r)`` coordinates — ``q`` for the column (x direction) and ``r`` for the
row (y direction) — matching the paper's ``R(q,r)`` notation.  The sum of the
cell areas equals the area of R (Eq. 2), which we verify in tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Tuple

import numpy as np

from ..errors import GeometryError
from .rectangle import Rectangle
from .region import RectRegion, Region


@dataclass(frozen=True)
class GridCell:
    """One grid cell ``R(q,r)`` with its integer coordinates and rectangle."""

    q: int
    r: int
    rect: Rectangle

    @property
    def key(self) -> Tuple[int, int]:
        """The ``(q, r)`` coordinate pair used as the hashmap key."""
        return (self.q, self.r)

    @property
    def region(self) -> RectRegion:
        """The cell as a region."""
        return RectRegion(self.rect)

    @property
    def area(self) -> float:
        """Area of the cell."""
        return self.rect.area


class Grid:
    """A uniform ``side x side`` grid over a rectangular region.

    Parameters
    ----------
    region:
        The overall rectangular region ``R``.
    side:
        Number of cells along each axis (the paper's ``sqrt(h)``).
    """

    def __init__(self, region: Rectangle, side: int) -> None:
        if side <= 0:
            raise GeometryError("grid side must be positive")
        self._region = region
        self._side = side
        self._cell_width = region.width / side
        self._cell_height = region.height / side
        self._cells: Dict[Tuple[int, int], GridCell] = {}
        for r in range(side):
            for q in range(side):
                rect = Rectangle(
                    region.x_min + q * self._cell_width,
                    region.y_min + r * self._cell_height,
                    region.x_min + (q + 1) * self._cell_width,
                    region.y_min + (r + 1) * self._cell_height,
                )
                self._cells[(q, r)] = GridCell(q=q, r=r, rect=rect)

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------
    @property
    def region(self) -> Rectangle:
        """The overall region ``R``."""
        return self._region

    @property
    def side(self) -> int:
        """Cells per axis (``sqrt(h)``)."""
        return self._side

    @property
    def cell_count(self) -> int:
        """Total number of cells ``h``."""
        return self._side * self._side

    @property
    def cell_area(self) -> float:
        """Area of a single cell."""
        return self._cell_width * self._cell_height

    def cell(self, q: int, r: int) -> GridCell:
        """The cell at coordinates ``(q, r)``."""
        try:
            return self._cells[(q, r)]
        except KeyError:
            raise GeometryError(
                f"cell ({q}, {r}) outside grid of side {self._side}"
            ) from None

    def cells(self) -> List[GridCell]:
        """All cells, row-major from the bottom-left."""
        return [self._cells[(q, r)] for r in range(self._side) for q in range(self._side)]

    def __iter__(self) -> Iterator[GridCell]:
        return iter(self.cells())

    def __len__(self) -> int:
        return self.cell_count

    # ------------------------------------------------------------------
    # Lookups
    # ------------------------------------------------------------------
    def locate(self, x: float, y: float) -> GridCell:
        """The cell containing the point ``(x, y)``.

        Points on the outermost top/right boundary of ``R`` are clamped into
        the last cell so no sensed tuple is lost.
        """
        if not self._region.contains(x, y, closed=True):
            raise GeometryError(
                f"point ({x}, {y}) lies outside the region {self._region}"
            )
        q = int((x - self._region.x_min) / self._cell_width)
        r = int((y - self._region.y_min) / self._cell_height)
        q = min(q, self._side - 1)
        r = min(r, self._side - 1)
        return self._cells[(q, r)]

    def cells_for_points(self, xs, ys) -> Tuple[np.ndarray, np.ndarray]:
        """Vectorised bucketing: the ``(q, r)`` coordinates of many points.

        The columnar fabricator's map stage uses this to assign a whole
        tuple batch to grid cells with two floor-divides instead of a
        per-point :meth:`locate` loop.  Agrees exactly with :meth:`locate`
        (including the clamp of the outermost top/right boundary into the
        last cell) and raises :class:`GeometryError` when any point lies
        outside the region.
        """
        xs = np.asarray(xs, dtype=float)
        ys = np.asarray(ys, dtype=float)
        region = self._region
        inside = (
            (region.x_min <= xs) & (xs <= region.x_max)
            & (region.y_min <= ys) & (ys <= region.y_max)
        )
        if not np.all(inside):
            index = int(np.argmin(inside))
            raise GeometryError(
                f"point ({xs[index]}, {ys[index]}) lies outside the region {region}"
            )
        # Same arithmetic as the scalar path: truncation equals floor here
        # because validated coordinates are never below the region minimum.
        q = ((xs - region.x_min) / self._cell_width).astype(np.int64)
        r = ((ys - region.y_min) / self._cell_height).astype(np.int64)
        np.minimum(q, self._side - 1, out=q)
        np.minimum(r, self._side - 1, out=r)
        return q, r

    def overlapping_cells(self, region: Region) -> List[GridCell]:
        """Cells with non-zero overlap with ``region`` (query insertion, Sec. V)."""
        return [
            cell
            for cell in self.cells()
            if region.overlap_area(cell.region) > 0.0
        ]

    def overlap_fraction(self, region: Region, cell: GridCell) -> float:
        """Fraction of ``cell`` covered by ``region`` (in [0, 1])."""
        return region.overlap_area(cell.region) / cell.area

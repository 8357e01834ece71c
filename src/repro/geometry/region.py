"""Region algebra.

A *region* is the spatial extent a point process lives on.  The paper works
with rectangular regions, but the Union operator produces regions that are
unions of adjacent rectangles (e.g. the L-shaped union of grid cells that
make up a query region in Fig. 2).  :class:`CompositeRegion` models such
rectilinear unions as a set of pairwise-disjoint rectangles.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import GeometryError
from .rectangle import COORD_TOLERANCE, Rectangle


class Region(ABC):
    """Abstract spatial region composed of one or more disjoint rectangles."""

    @property
    @abstractmethod
    def rectangles(self) -> Tuple[Rectangle, ...]:
        """The disjoint rectangles making up the region."""

    @property
    def area(self) -> float:
        """Total area of the region."""
        return sum(rect.area for rect in self.rectangles)

    @property
    def bounding_box(self) -> Rectangle:
        """Smallest rectangle containing the region."""
        return Rectangle.bounding(self.rectangles)

    def contains(self, x: float, y: float, *, closed: bool = False) -> bool:
        """Whether the point ``(x, y)`` lies inside the region."""
        return any(rect.contains(x, y, closed=closed) for rect in self.rectangles)

    def contains_many(self, xs, ys, *, closed: bool = False) -> np.ndarray:
        """Vectorised :meth:`contains`: a boolean mask over point arrays.

        The columnar Partition path uses this to carve a query's overlap out
        of a grid-cell batch with one mask instead of a per-tuple loop.
        """
        xs = np.asarray(xs, dtype=float)
        ys = np.asarray(ys, dtype=float)
        mask = np.zeros(xs.shape, dtype=bool)
        for rect in self.rectangles:
            mask |= rect.contains_many(xs, ys, closed=closed)
        return mask

    def intersects(self, other: "Region") -> bool:
        """Whether the two regions overlap with positive area."""
        return any(
            a.intersects(b) for a in self.rectangles for b in other.rectangles
        )

    def overlap_area(self, other: "Region") -> float:
        """Total area of the overlap with ``other``."""
        return sum(
            a.overlap_area(b) for a in self.rectangles for b in other.rectangles
        )

    def covers(self, other: "Region") -> bool:
        """Whether ``other`` is (numerically) entirely inside this region."""
        return abs(self.overlap_area(other) - other.area) <= COORD_TOLERANCE * max(
            1.0, other.area
        )

    def intersection(self, other: "Region") -> Optional["Region"]:
        """The overlapping region, or ``None`` when the overlap has no area."""
        pieces: List[Rectangle] = []
        for a in self.rectangles:
            for b in other.rectangles:
                overlap = a.intersection(b)
                if overlap is not None:
                    pieces.append(overlap)
        if not pieces:
            return None
        if len(pieces) == 1:
            return RectRegion(pieces[0])
        return CompositeRegion(tuple(pieces))

    def union(self, other: "Region") -> "Region":
        """Union with a disjoint (or touching) region.

        Raises
        ------
        GeometryError
            If the regions overlap with positive area — the Union PMAT
            operator requires disjoint inputs so rates are preserved.
        """
        if self.intersects(other):
            raise GeometryError("regions to union must be disjoint")
        return union_regions([self, other])

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        rects = ", ".join(
            f"[{r.x_min:g},{r.x_max:g})x[{r.y_min:g},{r.y_max:g})"
            for r in self.rectangles
        )
        return f"{type(self).__name__}({rects})"


@dataclass(frozen=True, repr=False)
class RectRegion(Region):
    """A region that is a single rectangle (the common case in the paper)."""

    rect: Rectangle

    @property
    def rectangles(self) -> Tuple[Rectangle, ...]:
        return (self.rect,)


@dataclass(frozen=True, repr=False)
class CompositeRegion(Region):
    """A region made of several pairwise-disjoint rectangles."""

    parts: Tuple[Rectangle, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        if not self.parts:
            raise GeometryError("a composite region needs at least one rectangle")
        parts = list(self.parts)
        for i, a in enumerate(parts):
            for b in parts[i + 1:]:
                if a.intersects(b):
                    raise GeometryError(
                        "composite region rectangles must be pairwise disjoint"
                    )

    @property
    def rectangles(self) -> Tuple[Rectangle, ...]:
        return self.parts


def as_region(region) -> Region:
    """Accept a Rectangle or Region and return a Region."""
    if isinstance(region, Rectangle):
        return RectRegion(region)
    if isinstance(region, Region):
        return region
    raise GeometryError(f"expected a Region or Rectangle, got {type(region)!r}")


def _merge_rectangles(rects: Sequence[Rectangle]) -> List[Rectangle]:
    """Greedily merge rectangles that share a full side, to keep regions small."""
    merged = list(rects)
    changed = True
    while changed:
        changed = False
        for i in range(len(merged)):
            for j in range(i + 1, len(merged)):
                if merged[i].shares_full_side_with(merged[j]):
                    combined = merged[i].union_with(merged[j])
                    merged[j] = combined
                    del merged[i]
                    changed = True
                    break
            if changed:
                break
    return merged


def union_regions(regions: Iterable[Region]) -> Region:
    """Union several pairwise-disjoint regions into one region.

    Adjacent rectangles with a common full side are merged so that, e.g.,
    unioning the per-grid-cell pieces of a rectangular query region gives
    back a single-rectangle region (as in the paper's merge phase, Fig. 2c).
    """
    all_rects: List[Rectangle] = []
    region_list = list(regions)
    if not region_list:
        raise GeometryError("cannot union an empty collection of regions")
    for idx, region in enumerate(region_list):
        for other in region_list[idx + 1:]:
            if region.intersects(other):
                raise GeometryError("regions to union must be pairwise disjoint")
        all_rects.extend(region.rectangles)
    merged = _merge_rectangles(all_rects)
    if len(merged) == 1:
        return RectRegion(merged[0])
    return CompositeRegion(tuple(merged))

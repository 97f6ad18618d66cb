"""Axis-aligned rectangle geometry used throughout the placer.

Every quantum component footprint in this reproduction is an axis-aligned
rectangle (qubit pockets are squares, resonator segments are ``lb x lb``
blocks).  The metrics of Sec. V-C need:

* pairwise overlap and abutment tests (hotspot detection, Eq. 18),
* the minimum enclosing rectangle area ``Amer`` (Fig. 13),
* the summed polygon area ``Apoly`` and the utilisation ratio
  ``Apoly / Amer`` (Eq. 17).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Sequence, Tuple

import numpy as np


@dataclass(frozen=True)
class Rect:
    """An axis-aligned rectangle described by its lower-left corner.

    Attributes:
        x: Lower-left corner x coordinate (mm).
        y: Lower-left corner y coordinate (mm).
        w: Width (mm), must be non-negative.
        h: Height (mm), must be non-negative.
    """

    x: float
    y: float
    w: float
    h: float

    def __post_init__(self) -> None:
        if self.w < 0 or self.h < 0:
            raise ValueError(f"Rect dimensions must be non-negative, got {self.w}x{self.h}")

    # -- derived coordinates -------------------------------------------------

    @property
    def x2(self) -> float:
        """Upper-right corner x coordinate."""
        return self.x + self.w

    @property
    def y2(self) -> float:
        """Upper-right corner y coordinate."""
        return self.y + self.h

    @property
    def cx(self) -> float:
        """Centroid x coordinate."""
        return self.x + self.w / 2.0

    @property
    def cy(self) -> float:
        """Centroid y coordinate."""
        return self.y + self.h / 2.0

    @property
    def center(self) -> Tuple[float, float]:
        """Centroid ``(cx, cy)``."""
        return (self.cx, self.cy)

    @property
    def area(self) -> float:
        """Rectangle area (mm^2)."""
        return self.w * self.h

    # -- constructors ---------------------------------------------------------

    @staticmethod
    def from_center(cx: float, cy: float, w: float, h: float) -> "Rect":
        """Build a rectangle from its centroid and dimensions."""
        return Rect(cx - w / 2.0, cy - h / 2.0, w, h)

    def moved_to_center(self, cx: float, cy: float) -> "Rect":
        """Return a copy re-centred at ``(cx, cy)``."""
        return Rect.from_center(cx, cy, self.w, self.h)

    def inflated(self, margin: float) -> "Rect":
        """Return a copy grown by ``margin`` on every side (padding)."""
        if margin < 0 and (self.w + 2 * margin < 0 or self.h + 2 * margin < 0):
            raise ValueError("negative margin larger than rectangle half-size")
        return Rect(self.x - margin, self.y - margin, self.w + 2 * margin, self.h + 2 * margin)

    # -- relations -------------------------------------------------------------

    def overlap_x(self, other: "Rect") -> float:
        """Length of the overlap of the two x-extents (>= 0)."""
        return max(0.0, min(self.x2, other.x2) - max(self.x, other.x))

    def overlap_y(self, other: "Rect") -> float:
        """Length of the overlap of the two y-extents (>= 0)."""
        return max(0.0, min(self.y2, other.y2) - max(self.y, other.y))

    def overlap_area(self, other: "Rect") -> float:
        """Area of the intersection of the two rectangles (>= 0)."""
        return self.overlap_x(other) * self.overlap_y(other)

    def intersects(self, other: "Rect") -> bool:
        """True when the interiors intersect (strictly positive area)."""
        return self.overlap_x(other) > 0 and self.overlap_y(other) > 0

    def contains_point(self, px: float, py: float, tol: float = 1e-9) -> bool:
        """True when ``(px, py)`` lies inside (or on the border of) the rect."""
        return self.x - tol <= px <= self.x2 + tol and self.y - tol <= py <= self.y2 + tol

    def contains_rect(self, other: "Rect", tol: float = 1e-9) -> bool:
        """True when ``other`` lies fully inside this rectangle."""
        return (
            self.x - tol <= other.x
            and self.y - tol <= other.y
            and other.x2 <= self.x2 + tol
            and other.y2 <= self.y2 + tol
        )

    def gap(self, other: "Rect") -> float:
        """Minimum edge-to-edge separation between the two rectangles.

        Returns 0 when the rectangles touch or overlap.
        """
        gx = max(0.0, max(self.x, other.x) - min(self.x2, other.x2))
        gy = max(0.0, max(self.y, other.y) - min(self.y2, other.y2))
        return float(np.hypot(gx, gy))

    def union(self, other: "Rect") -> "Rect":
        """The minimal rectangle enclosing both rectangles."""
        x1 = min(self.x, other.x)
        y1 = min(self.y, other.y)
        x2 = max(self.x2, other.x2)
        y2 = max(self.y2, other.y2)
        return Rect(x1, y1, x2 - x1, y2 - y1)


def minimum_enclosing_rect(rects: Sequence[Rect]) -> Rect:
    """Minimum axis-aligned rectangle enclosing all ``rects`` (``Amer``)."""
    if not rects:
        raise ValueError("minimum_enclosing_rect requires at least one rectangle")
    x1 = min(r.x for r in rects)
    y1 = min(r.y for r in rects)
    x2 = max(r.x2 for r in rects)
    y2 = max(r.y2 for r in rects)
    return Rect(x1, y1, x2 - x1, y2 - y1)


def total_polygon_area(rects: Iterable[Rect]) -> float:
    """Sum of the individual rectangle areas (``Apoly``, Eq. 17).

    Following the paper this is the plain sum of instance areas; a legal
    (non-overlapping) layout makes it equal to the covered area.
    """
    return float(sum(r.area for r in rects))


def area_utilization(rects: Sequence[Rect]) -> float:
    """Substrate area utilisation ratio ``Apoly / Amer`` (Eq. 17)."""
    mer = minimum_enclosing_rect(rects)
    if mer.area <= 0:
        return 0.0
    return total_polygon_area(rects) / mer.area


def pairwise_overlap_area(rects: Sequence[Rect]) -> float:
    """Total pairwise overlap area; 0 for a legal placement."""
    total = 0.0
    order = sorted(range(len(rects)), key=lambda i: rects[i].x)
    for idx, i in enumerate(order):
        ri = rects[i]
        for j in order[idx + 1:]:
            rj = rects[j]
            if rj.x >= ri.x2:
                break
            total += ri.overlap_area(rj)
    return total


def has_overlaps(rects: Sequence[Rect], tol: float = 1e-9) -> bool:
    """True when any two rectangles overlap with area above ``tol``.

    Uses a sweep over x-sorted rectangles so legality checks on full
    layouts stay near-linear.
    """
    order = sorted(range(len(rects)), key=lambda i: rects[i].x)
    for idx, i in enumerate(order):
        ri = rects[i]
        for j in order[idx + 1:]:
            rj = rects[j]
            if rj.x >= ri.x2 - tol:
                break
            if ri.overlap_area(rj) > tol:
                return True
    return False


def pack_rows(rects: Sequence[Rect], row_width: float) -> List[Rect]:
    """Greedy shelf-packing of rectangles into rows of ``row_width``.

    Utility used by the ``Human`` baseline and by tests to build dense
    legal reference layouts.  Rectangles keep their sizes; positions are
    re-assigned left-to-right, bottom-up.
    """
    if row_width <= 0:
        raise ValueError("row_width must be positive")
    placed: List[Rect] = []
    cursor_x = 0.0
    cursor_y = 0.0
    shelf_h = 0.0
    for rect in rects:
        if cursor_x + rect.w > row_width and cursor_x > 0:
            cursor_y += shelf_h
            cursor_x = 0.0
            shelf_h = 0.0
        placed.append(Rect(cursor_x, cursor_y, rect.w, rect.h))
        cursor_x += rect.w
        shelf_h = max(shelf_h, rect.h)
    return placed

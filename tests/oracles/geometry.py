"""Per-pair ``Rect`` relations that only the oracles and tests read.

:func:`repro.crosstalk.hotspots.hotspot_report` computes facing lengths
and centroid distances as columns; :mod:`tests.oracles.hotspots`
evaluates them one ``Rect`` pair at a time with these.
"""

from __future__ import annotations

import numpy as np

from repro.devices.geometry import Rect


def touches_or_intersects(a: Rect, b: Rect, tol: float = 1e-9) -> bool:
    """True when rectangles overlap or abut within ``tol``."""
    gx = max(a.x, b.x) - min(a.x2, b.x2)
    gy = max(a.y, b.y) - min(a.y2, b.y2)
    return gx <= tol and gy <= tol


def centroid_distance(a: Rect, b: Rect) -> float:
    """Euclidean distance between the two centroids."""
    return float(np.hypot(a.cx - b.cx, a.cy - b.cy))


def adjacency_length(a: Rect, b: Rect) -> float:
    """Shared-boundary length between two overlapping/abutting rectangles.

    This is the ``p_i ∩ p_j`` term of Eq. (18): for two rectangles that
    overlap (or abut) the facing-edge length is the larger of the x-extent
    and y-extent overlaps.  Disjoint rectangles return 0.
    """
    if not touches_or_intersects(a, b):
        return 0.0
    return max(a.overlap_x(b), a.overlap_y(b))

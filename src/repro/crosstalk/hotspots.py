"""Frequency-hotspot proportion ``Ph`` and impacted qubits (Eq. 18).

A *frequency hotspot* is a region where two instances sit closer than
their required spacing **and** their detuning is below ``Delta_c``.
Eq. (18) aggregates hotspots into a dimensionless proportion:

``Ph = sum_{i,j} (p_i ∩ p_j) * dc(p_i, p_j) * tau(w_i, w_j, Delta_c) / Apoly``

where ``p_i ∩ p_j`` is the facing length of the (padded) footprints,
``dc`` the centroid distance, and ``tau`` the resonance indicator.  The
paper reports ``Ph`` in percent (Fig. 12 bottom, Fig. 15 bottom).

The *impacted qubits* count (Fig. 12 middle) captures the non-local
nature of resonator crosstalk: a hotspot between two resonators affects
every qubit those resonators touch.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Set

import numpy as np

from .. import constants
from ..devices.layout import Layout
from .violations import ViolationColumns, violation_columns


@dataclass(frozen=True)
class HotspotPair:
    """One resonant, spatially violating instance pair.

    Attributes:
        i, j: Layout instance indices (i < j).
        facing_mm: Facing length of the padded footprints.
        centroid_distance_mm: Distance between footprint centroids.
        contribution: This pair's numerator term of Eq. (18).
    """

    i: int
    j: int
    facing_mm: float
    centroid_distance_mm: float
    contribution: float


@dataclass
class HotspotReport:
    """Full Eq. (18) evaluation of one layout.

    Attributes:
        ph: Hotspot proportion as a *fraction* (multiply by 100 for the
            paper's percent values).
        pairs: Individual hotspot pairs.
        impacted_qubits: Topology indices of qubits touched by hotspots,
            directly or through an affected resonator.
        apoly: The normalising polygon area used.
    """

    ph: float
    pairs: List[HotspotPair]
    impacted_qubits: Set[int]
    apoly: float

    @property
    def ph_percent(self) -> float:
        """Hotspot proportion in percent (paper's reporting unit)."""
        return 100.0 * self.ph

    @property
    def num_hotspots(self) -> int:
        """Number of resonant violating pairs."""
        return len(self.pairs)

    @property
    def num_impacted_qubits(self) -> int:
        """Impacted-qubit count (Fig. 12 middle panel)."""
        return len(self.impacted_qubits)


def hotspot_report(layout: Layout,
                   detuning_threshold_ghz: float = constants.DETUNING_THRESHOLD_GHZ,
                   violations: Optional[ViolationColumns] = None
                   ) -> HotspotReport:
    """Evaluate Eq. (18) on a layout.

    The padded footprints mirror :meth:`~repro.devices.geometry.Rect.
    from_center` and the facing length the oracle's per-pair
    ``adjacency_length`` (``tests/oracles/geometry.py``) operation for
    operation, and the contributions add up in scan order, so every
    number equals the per-pair ``Rect`` evaluation bit for bit.

    Args:
        layout: Placed layout to score.
        detuning_threshold_ghz: Resonance threshold ``Delta_c``.
        violations: Precomputed :func:`~repro.crosstalk.violations.
            violation_columns` of ``layout`` (scanned if None).
    """
    if violations is None:
        violations = violation_columns(
            layout, detuning_threshold_ghz=detuning_threshold_ghz)
    p = violations.pairs
    hot = np.flatnonzero(violations.resonant)
    iu, ju = p.i[hot], p.j[hot]
    # Padded rectangles as Rect.from_center builds them.
    w = 2.0 * p.half_w + 2.0 * p.pads
    h = 2.0 * p.half_h + 2.0 * p.pads
    x = p.pos[:, 0] - w / 2.0
    y = p.pos[:, 1] - h / 2.0
    x2, y2 = x + w, y + h
    lo_x, hi_x = np.maximum(x[iu], x[ju]), np.minimum(x2[iu], x2[ju])
    lo_y, hi_y = np.maximum(y[iu], y[ju]), np.minimum(y2[iu], y2[ju])
    touching = (lo_x - hi_x <= 1e-9) & (lo_y - hi_y <= 1e-9)
    facing = np.where(touching,
                      np.maximum(np.maximum(0.0, hi_x - lo_x),
                                 np.maximum(0.0, hi_y - lo_y)), 0.0)
    cx, cy = x + w / 2.0, y + h / 2.0
    dc = np.hypot(cx[iu] - cx[ju], cy[iu] - cy[ju])
    contribution = facing * dc
    pairs = [HotspotPair(i=i, j=j, facing_mm=f, centroid_distance_mm=d,
                         contribution=c)
             for i, j, f, d, c in zip(iu.tolist(), ju.tolist(),
                                      facing.tolist(), dc.tolist(),
                                      contribution.tolist())]

    touched = p.impacted_qubits()[hot]
    impacted = set(touched[touched >= 0].tolist())

    apoly = layout.apoly()
    total = sum(pair.contribution for pair in pairs)
    ph = total / apoly if apoly > 0 else 0.0
    return HotspotReport(ph=ph, pairs=pairs,
                         impacted_qubits=impacted, apoly=apoly)

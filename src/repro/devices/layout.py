"""Placed-layout container and spatial queries.

A :class:`Layout` is the output of any placement strategy: the list of
movable instances (qubits and resonator segments) plus an ``(n, 2)`` array
of centre coordinates.  It provides the geometric aggregates used by every
metric (``Amer``, ``Apoly``, utilisation) and a grid-hashed neighbour
query used by the crosstalk evaluators, which must find all component
pairs within a small cutoff distance without an O(n^2) scan.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from .components import Instance, Qubit, ResonatorSegment
from .geometry import Rect, minimum_enclosing_rect, total_polygon_area
from .netlist import QuantumNetlist


@dataclass
class Layout:
    """A concrete physical placement of a device's movable instances.

    Attributes:
        instances: Placed instances (qubits first by convention, then
            resonator segments; any order is accepted).
        positions: ``(n, 2)`` array of instance centres (mm).
        netlist: Optional back-reference to the source netlist.
        strategy: Name of the placement strategy that produced this
            layout ("qplacer", "classic", "human", ...).
        origin_offset: Translation that :meth:`translated_to_origin`
            took off the positions: ``positions + origin_offset`` are
            the centres in the placement problem's frame, where the
            legalizer's lattices are anchored.
    """

    instances: List[Instance]
    positions: np.ndarray
    netlist: Optional[QuantumNetlist] = None
    strategy: str = "unknown"
    origin_offset: Tuple[float, float] = (0.0, 0.0)

    def __post_init__(self) -> None:
        self.positions = np.asarray(self.positions, dtype=float)
        if self.positions.shape != (len(self.instances), 2):
            raise ValueError(
                f"positions shape {self.positions.shape} does not match "
                f"{len(self.instances)} instances")

    # -- index maps ---------------------------------------------------------

    @property
    def num_instances(self) -> int:
        """Number of placed instances."""
        return len(self.instances)

    @property
    def qubit_indices(self) -> Dict[int, int]:
        """Map topology qubit index -> instance index."""
        return {
            inst.index: i
            for i, inst in enumerate(self.instances)
            if isinstance(inst, Qubit)
        }

    @property
    def segment_indices_by_resonator(self) -> Dict[int, List[int]]:
        """Map resonator index -> instance indices of its segments."""
        groups: Dict[int, List[int]] = {}
        for i, inst in enumerate(self.instances):
            if isinstance(inst, ResonatorSegment):
                groups.setdefault(inst.resonator_index, []).append(i)
        return groups

    def qubit_center(self, qubit_index: int) -> Tuple[float, float]:
        """Centre position of a qubit by topology index."""
        i = self.qubit_indices[qubit_index]
        return (float(self.positions[i, 0]), float(self.positions[i, 1]))

    # -- geometry ----------------------------------------------------------------

    def rect(self, i: int) -> Rect:
        """Bare footprint rectangle of instance ``i``."""
        return self.instances[i].rect_at(self.positions[i, 0], self.positions[i, 1])

    def padded_rect(self, i: int) -> Rect:
        """Padded footprint rectangle of instance ``i``."""
        return self.instances[i].padded_rect_at(self.positions[i, 0], self.positions[i, 1])

    def rects(self) -> List[Rect]:
        """Bare footprints of all instances."""
        return [self.rect(i) for i in range(self.num_instances)]

    def padded_rects(self) -> List[Rect]:
        """Padded footprints of all instances."""
        return [self.padded_rect(i) for i in range(self.num_instances)]

    def enclosing_rect(self) -> Rect:
        """Minimum enclosing rectangle over bare footprints."""
        return minimum_enclosing_rect(self.rects())

    def amer(self) -> float:
        """Minimum-enclosing-rectangle area ``Amer`` (Fig. 13 metric)."""
        return self.enclosing_rect().area

    def apoly(self) -> float:
        """Total instance polygon area ``Apoly`` (Eq. 17)."""
        return total_polygon_area(self.rects())

    def utilization(self) -> float:
        """Substrate area utilisation ``Apoly / Amer`` (Eq. 17)."""
        amer = self.amer()
        return self.apoly() / amer if amer > 0 else 0.0

    # -- spatial queries -----------------------------------------------------------

    def neighbor_pairs(self, cutoff_mm: float,
                       padded: bool = True) -> Iterator[Tuple[int, int, float]]:
        """Yield instance pairs whose footprints are within ``cutoff_mm``.

        Args:
            cutoff_mm: Maximum edge-to-edge gap (0 = touching/overlap only).
            padded: Measure gaps between padded footprints when True.

        Yields:
            ``(i, j, gap)`` with ``i < j`` and ``gap <= cutoff_mm``.

        Uses a uniform grid hash over instance centres so the expected
        cost is near-linear for legal (spread-out) layouts.
        """
        if cutoff_mm < 0:
            raise ValueError("cutoff must be non-negative")
        n = self.num_instances
        if n < 2:
            return
        rects = self.padded_rects() if padded else self.rects()
        max_half = max(max(r.w, r.h) for r in rects) / 2.0
        cell = max(2.0 * max_half + cutoff_mm, 1e-6)
        buckets: Dict[Tuple[int, int], List[int]] = {}
        keys: List[Tuple[int, int]] = []
        for i in range(n):
            key = (int(np.floor(self.positions[i, 0] / cell)),
                   int(np.floor(self.positions[i, 1] / cell)))
            buckets.setdefault(key, []).append(i)
            keys.append(key)
        offsets = [(dx, dy) for dx in (-1, 0, 1) for dy in (-1, 0, 1)]
        for i in range(n):
            kx, ky = keys[i]
            for dx, dy in offsets:
                for j in buckets.get((kx + dx, ky + dy), ()):
                    if j <= i:
                        continue
                    gap = rects[i].gap(rects[j])
                    if gap <= cutoff_mm:
                        yield (i, j, gap)

    @property
    def problem_positions(self) -> np.ndarray:
        """Instance centres in the placement problem's frame."""
        return self.positions + np.asarray(self.origin_offset)[None, :]

    def translated_to_origin(self) -> "Layout":
        """Copy shifted so the enclosing rectangle starts at (0, 0).

        The shift is added to ``origin_offset``, so
        :attr:`problem_positions` is unchanged (to rounding).
        """
        mer = self.enclosing_rect()
        return replace(self,
                       positions=self.positions - np.array([[mer.x, mer.y]]),
                       origin_offset=(float(self.origin_offset[0] + mer.x),
                                      float(self.origin_offset[1] + mer.y)))

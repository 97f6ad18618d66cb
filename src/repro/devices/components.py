"""Quantum component model: qubits, resonators, and resonator segments.

The placement engine treats every movable object as an *instance* with a
rectangular footprint, a padding margin, and a frequency.  Three concrete
kinds exist (Sec. IV-B of the paper):

* :class:`Qubit` — a fixed-size square transmon pocket, padded by ``dq``.
* :class:`Resonator` — the logical coupler between two qubits; it owns a
  frequency, a physical length ``L = v0 / (2 f)``, and a reserved strip
  area ``L x pitch``.  Resonators themselves are *not* placed.
* :class:`ResonatorSegment` — an ``lb x lb`` placeholder block carved out
  of a resonator's reserved area (Sec. IV-B2); these are the movable
  instances the engine actually positions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

from .. import constants
from ..physics.resonator_em import resonator_length_mm
from .geometry import Rect


@dataclass
class Instance:
    """Base class for everything the placement engine can move.

    Attributes:
        name: Unique instance name within a netlist.
        width: Footprint width (mm), excluding padding.
        height: Footprint height (mm), excluding padding.
        padding: Margin (mm) added on each side when computing spacing
            requirements; two instances must keep a gap of at least the
            sum of their paddings.
        frequency: Operating frequency in GHz.
        movable: False for pre-placed/fixed blocks.
    """

    name: str
    width: float
    height: float
    padding: float
    frequency: float
    movable: bool = True

    @property
    def padded_width(self) -> float:
        """Width including padding on both sides."""
        return self.width + 2.0 * self.padding

    @property
    def padded_height(self) -> float:
        """Height including padding on both sides."""
        return self.height + 2.0 * self.padding

    @property
    def area(self) -> float:
        """Bare footprint area (mm^2)."""
        return self.width * self.height

    @property
    def padded_area(self) -> float:
        """Padded footprint area (mm^2)."""
        return self.padded_width * self.padded_height

    def rect_at(self, cx: float, cy: float) -> Rect:
        """Bare footprint rectangle centred at ``(cx, cy)``."""
        return Rect.from_center(cx, cy, self.width, self.height)

    def padded_rect_at(self, cx: float, cy: float) -> Rect:
        """Padded footprint rectangle centred at ``(cx, cy)``."""
        return Rect.from_center(cx, cy, self.padded_width, self.padded_height)

    def is_resonant_with(self, other: "Instance",
                         threshold: float = constants.DETUNING_THRESHOLD_GHZ) -> bool:
        """True when the two instances are within ``threshold`` GHz (Eq. 9 tau)."""
        return abs(self.frequency - other.frequency) <= threshold


@dataclass
class Qubit(Instance):
    """A fixed-frequency transmon qubit pocket.

    Attributes:
        index: Topology node index of this qubit.
        capacitance: Shunt capacitance in fF (enters Eq. 6).
        anharmonicity: alpha/2pi in GHz.
    """

    index: int = -1
    capacitance: float = constants.QUBIT_CAPACITANCE_FF
    anharmonicity: float = constants.TRANSMON_ANHARMONICITY_GHZ

    @staticmethod
    def create(index: int, frequency: float,
               size: float = constants.QUBIT_SIZE_MM,
               padding: float = constants.QUBIT_PADDING_MM) -> "Qubit":
        """Build the standard square pocket qubit of Sec. V-C."""
        return Qubit(
            name=f"q{index}",
            width=size,
            height=size,
            padding=padding,
            frequency=frequency,
            index=index,
        )


@dataclass
class Resonator:
    """A lambda/2 coupling resonator between two qubits.

    The resonator is a *logical* object: the placer moves its
    :class:`ResonatorSegment` placeholders, then the legalizer guarantees
    the segments can be re-integrated into a routable meander (Alg. 1).

    Attributes:
        name: Unique name, e.g. ``"r3"``.
        index: Dense resonator index (used by the Kronecker-delta term of
            Eq. 10 to exempt sibling segments from the repulsive force).
        endpoints: The two qubit indices this resonator couples.
        frequency: Resonator frequency in GHz.
        pitch: Effective meander pitch (strip width), mm.
        capacitance: Effective lumped capacitance, fF.
    """

    name: str
    index: int
    endpoints: Tuple[int, int]
    frequency: float
    pitch: float = constants.RESONATOR_PITCH_MM
    capacitance: float = constants.RESONATOR_CAPACITANCE_FF

    @property
    def length_mm(self) -> float:
        """Physical CPW length L = v0 / (2 f) (Sec. V-C)."""
        return resonator_length_mm(self.frequency)

    @property
    def reserved_area(self) -> float:
        """Substrate area reserved for this resonator (mm^2)."""
        return self.length_mm * self.pitch

    def segment_count(self, segment_size: float) -> int:
        """Number of ``lb x lb`` blocks needed to reserve the area.

        Always at least 1; uses ceiling division so the reserved area is
        never under-provisioned.
        """
        if segment_size <= 0:
            raise ValueError("segment_size must be positive")
        return max(1, math.ceil(self.reserved_area / (segment_size * segment_size)))

    def make_segments(self, segment_size: float,
                      padding: float = constants.RESONATOR_PADDING_MM
                      ) -> Tuple["ResonatorSegment", ...]:
        """Partition the reserved area into movable segment blocks."""
        count = self.segment_count(segment_size)
        return tuple(
            ResonatorSegment(
                name=f"{self.name}.s{k}",
                width=segment_size,
                height=segment_size,
                padding=padding,
                frequency=self.frequency,
                resonator_index=self.index,
                segment_index=k,
            )
            for k in range(count)
        )


@dataclass
class ResonatorSegment(Instance):
    """One ``lb x lb`` placeholder block of a partitioned resonator."""

    resonator_index: int = -1
    segment_index: int = 0


def same_resonator(a: Instance, b: Instance) -> bool:
    """Kronecker-delta of Eq. (10): True for segments of one resonator."""
    return (
        isinstance(a, ResonatorSegment)
        and isinstance(b, ResonatorSegment)
        and a.resonator_index == b.resonator_index
    )

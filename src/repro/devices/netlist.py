"""Quantum netlist: the placer's view of a device (Fig. 7-a input).

A :class:`QuantumNetlist` bundles the topology, the frequency plan, and
the concrete component objects: one :class:`~repro.devices.components.Qubit`
per topology node and one :class:`~repro.devices.components.Resonator`
per coupler edge.  Resonator partitioning into movable segments happens
later, in :mod:`repro.core.preprocess`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from .. import constants
from .components import Qubit, Resonator
from .frequency import FrequencyPlan, assign_frequencies
from .topology import Topology

Edge = Tuple[int, int]


@dataclass
class QuantumNetlist:
    """A device netlist: qubits, resonators, and their connectivity.

    Attributes:
        topology: Source connectivity topology.
        plan: Frequency assignment for every component.
        qubits: Qubit objects indexed by topology node id.
        resonators: Resonator objects in coupling-map order.
    """

    topology: Topology
    plan: FrequencyPlan
    qubits: List[Qubit]
    resonators: List[Resonator]

    def __post_init__(self) -> None:
        if len(self.qubits) != self.topology.num_qubits:
            raise ValueError("one Qubit required per topology node")
        if len(self.resonators) != self.topology.num_couplers:
            raise ValueError("one Resonator required per coupler edge")

    # -- lookups ---------------------------------------------------------------

    @property
    def resonator_by_edge(self) -> Dict[Edge, Resonator]:
        """Map coupler edge ``(lo, hi)`` -> resonator."""
        return {r.endpoints: r for r in self.resonators}

    def qubit(self, index: int) -> Qubit:
        """Qubit object for a topology node index."""
        return self.qubits[index]

    def resonator(self, u: int, v: int) -> Resonator:
        """Resonator coupling qubits ``u`` and ``v``.

        Raises:
            KeyError: when the qubits are not directly coupled.
        """
        return self.resonator_by_edge[(min(u, v), max(u, v))]

    def resonators_of_qubit(self, index: int) -> List[Resonator]:
        """All resonators attached to a qubit."""
        return [r for r in self.resonators if index in r.endpoints]

    # -- aggregate quantities ----------------------------------------------------

    @property
    def num_components(self) -> int:
        """Qubits plus resonators."""
        return len(self.qubits) + len(self.resonators)

    def total_qubit_area(self) -> float:
        """Sum of bare qubit footprints (mm^2)."""
        return sum(q.area for q in self.qubits)

    def total_resonator_area(self) -> float:
        """Sum of reserved resonator strip areas (mm^2)."""
        return sum(r.reserved_area for r in self.resonators)

    def max_component_frequency_ghz(self) -> float:
        """Highest component frequency (drives the TM110 constraint)."""
        freqs = [q.frequency for q in self.qubits] + [r.frequency for r in self.resonators]
        return max(freqs)


def build_netlist(topology: Topology,
                  plan: Optional[FrequencyPlan] = None,
                  qubit_size_mm: float = constants.QUBIT_SIZE_MM,
                  qubit_padding_mm: float = constants.QUBIT_PADDING_MM,
                  resonator_pitch_mm: float = constants.RESONATOR_PITCH_MM) -> QuantumNetlist:
    """Construct the netlist for a topology.

    Args:
        topology: Device connectivity.
        plan: Frequency plan; assigned with defaults when omitted.
        qubit_size_mm: Square pocket side (Sec. V-C: 0.4 mm).
        qubit_padding_mm: Qubit padding ``dq`` (0.4 mm).
        resonator_pitch_mm: Resonator strip pitch (0.1 mm).
    """
    if plan is None:
        plan = assign_frequencies(topology)
    qubits = [
        Qubit.create(index=i,
                     frequency=plan.qubit_freq_ghz[i],
                     size=qubit_size_mm,
                     padding=qubit_padding_mm)
        for i in range(topology.num_qubits)
    ]
    resonators = [
        Resonator(name=f"r{k}",
                  index=k,
                  endpoints=edge,
                  frequency=plan.resonator_freq_ghz[edge],
                  pitch=resonator_pitch_mm)
        for k, edge in enumerate(topology.coupling_map)
    ]
    return QuantumNetlist(topology=topology, plan=plan,
                          qubits=qubits, resonators=resonators)

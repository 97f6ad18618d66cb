"""Quantum-circuit IR: an ordered gate list.

Benchmark circuits are built as :class:`QuantumCircuit` gate lists; the
mapping pipeline encodes them to the columns of
:class:`~repro.circuits.batch.ArrayCircuit`, which scans what the
fidelity model (Eq. 15) needs from a mapped circuit: the *active*
qubits and couplers (inactive elements do not harm program fidelity,
Sec. V-C), the timed gate totals, and the ASAP makespan
(:class:`Schedule`) of the decoherence term.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List

from .gates import Gate, barrier, cx, cz, h, rx, ry, rz, rzz, swap, sx, x


class QuantumCircuit:
    """An ordered list of gates over ``num_qubits`` logical wires."""

    def __init__(self, num_qubits: int, name: str = "circuit") -> None:
        if num_qubits < 1:
            raise ValueError("circuit needs at least one qubit")
        self.num_qubits = num_qubits
        self.name = name
        self.gates: List[Gate] = []

    # -- construction -----------------------------------------------------------

    def append(self, gate: Gate) -> "QuantumCircuit":
        """Append a gate, validating qubit indices; returns self."""
        if any(q < 0 or q >= self.num_qubits for q in gate.qubits):
            raise ValueError(
                f"gate {gate.name} on {gate.qubits} outside 0..{self.num_qubits - 1}")
        self.gates.append(gate)
        return self

    def extend(self, gates: Iterable[Gate]) -> "QuantumCircuit":
        """Append many gates; returns self."""
        for gate in gates:
            self.append(gate)
        return self

    # Convenience builders mirroring the constructors in gates.py.
    def rz(self, q: int, angle: float) -> "QuantumCircuit":
        return self.append(rz(q, angle))

    def sx(self, q: int) -> "QuantumCircuit":
        return self.append(sx(q))

    def x(self, q: int) -> "QuantumCircuit":
        return self.append(x(q))

    def h(self, q: int) -> "QuantumCircuit":
        return self.append(h(q))

    def rx(self, q: int, angle: float) -> "QuantumCircuit":
        return self.append(rx(q, angle))

    def ry(self, q: int, angle: float) -> "QuantumCircuit":
        return self.append(ry(q, angle))

    def cz(self, a: int, b: int) -> "QuantumCircuit":
        return self.append(cz(a, b))

    def cx(self, control: int, target: int) -> "QuantumCircuit":
        return self.append(cx(control, target))

    def rzz(self, a: int, b: int, angle: float) -> "QuantumCircuit":
        return self.append(rzz(a, b, angle))

    def swap(self, a: int, b: int) -> "QuantumCircuit":
        return self.append(swap(a, b))

    def barrier(self, *qubits: int) -> "QuantumCircuit":
        return self.append(barrier(*(qubits or range(self.num_qubits))))

    # -- statistics ------------------------------------------------------------

    @property
    def size(self) -> int:
        """Total gate count (barriers excluded)."""
        return sum(1 for g in self.gates if g.name != "barrier")

    @property
    def two_qubit_gate_count(self) -> int:
        """Number of two-qubit gates."""
        return sum(1 for g in self.gates if g.is_two_qubit)

    def depth(self) -> int:
        """Circuit depth counting every non-barrier gate as one layer unit."""
        level: Dict[int, int] = {}
        depth = 0
        for g in self.gates:
            if g.name == "barrier":
                sync = max((level.get(q, 0) for q in g.qubits), default=0)
                for q in g.qubits:
                    level[q] = sync
                continue
            start = max(level.get(q, 0) for q in g.qubits)
            for q in g.qubits:
                level[q] = start + 1
            depth = max(depth, start + 1)
        return depth

    def __repr__(self) -> str:
        return (f"QuantumCircuit({self.name!r}, qubits={self.num_qubits}, "
                f"gates={self.size}, depth={self.depth()})")


@dataclass(frozen=True)
class Schedule:
    """Result of :meth:`repro.circuits.batch.ArrayCircuit.asap_schedule`.

    Attributes:
        total_ns: Makespan of the circuit, the Eq. 15 duration.
    """

    total_ns: float

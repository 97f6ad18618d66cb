"""``Gate``-list scans, remaps and ASAP schedule of a
:class:`QuantumCircuit`.

The library computes these from the columns of
:class:`~repro.circuits.batch.ArrayCircuit` (``used_qubit_mask``,
``used_pair_keys``, ``timed_gate_totals``, ``asap_schedule``, the
routers' column remaps); the per-gate loops below are the
specifications those scans are pinned to.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, Set, Tuple

from repro import constants
from repro.circuits.circuit import QuantumCircuit, Schedule
from repro.circuits.gates import Gate


def remap_gate(gate: Gate, mapping) -> Gate:
    """Copy of ``gate`` with qubit indices translated through
    ``mapping`` (anything supporting ``mapping[q]`` lookup)."""
    return Gate(gate.name, tuple(mapping[q] for q in gate.qubits),
                gate.params)


def remap_circuit(circuit: QuantumCircuit, mapping: Dict[int, int],
                  num_qubits: int) -> QuantumCircuit:
    """Translate qubit indices through ``mapping`` (logical -> physical)."""
    out = QuantumCircuit(num_qubits, name=circuit.name)
    for g in circuit.gates:
        out.append(remap_gate(g, mapping))
    return out


def copy_circuit(circuit: QuantumCircuit) -> QuantumCircuit:
    """Shallow copy (gates are immutable)."""
    out = QuantumCircuit(circuit.num_qubits, name=circuit.name)
    out.gates = list(circuit.gates)
    return out


def count_ops(circuit: QuantumCircuit) -> Dict[str, int]:
    """Gate-name histogram (barriers excluded)."""
    return dict(Counter(g.name for g in circuit.gates
                        if g.name != "barrier"))


def used_qubits(circuit: QuantumCircuit) -> Set[int]:
    """Qubits touched by at least one non-barrier gate."""
    used: Set[int] = set()
    for g in circuit.gates:
        if g.name != "barrier":
            used.update(g.qubits)
    return used


def used_pairs(circuit: QuantumCircuit) -> Set[Tuple[int, int]]:
    """Canonical ``(lo, hi)`` pairs touched by two-qubit gates."""
    pairs: Set[Tuple[int, int]] = set()
    for g in circuit.gates:
        if g.is_two_qubit:
            a, b = g.qubits
            pairs.add((min(a, b), max(a, b)))
    return pairs


def gate_counts_per_qubit(circuit: QuantumCircuit) -> Dict[int, Counter]:
    """Per-qubit histogram of gate names."""
    counts: Dict[int, Counter] = {}
    for g in circuit.gates:
        if g.name == "barrier":
            continue
        for q in g.qubits:
            counts.setdefault(q, Counter())[g.name] += 1
    return counts


def asap_schedule(circuit: QuantumCircuit,
                  single_qubit_ns: float = constants.SINGLE_QUBIT_GATE_NS,
                  two_qubit_ns: float = constants.TWO_QUBIT_GATE_NS
                  ) -> Schedule:
    """Greedy as-soon-as-possible schedule (rz gates are free/virtual)."""
    ready: Dict[int, float] = {}
    for g in circuit.gates:
        if g.name == "barrier":
            sync = max((ready.get(q, 0.0) for q in g.qubits), default=0.0)
            for q in g.qubits:
                ready[q] = sync
            continue
        if g.name == "rz":
            duration = 0.0  # virtual-Z: frame update only
        elif g.is_two_qubit:
            duration = two_qubit_ns
        else:
            duration = single_qubit_ns
        start = max(ready.get(q, 0.0) for q in g.qubits)
        for q in g.qubits:
            ready[q] = start + duration
    return Schedule(total_ns=max(ready.values(), default=0.0))

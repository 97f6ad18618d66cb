"""Transpilation to the hardware-native basis {rz, sx, x, cz}.

Mirrors what the paper gets from Qiskit's level-3 pipeline: lower every
IR gate to the fixed-frequency transmon basis, then run cheap peephole
passes (virtual-Z merging, self-inverse cancellation) to reduce depth and
gate count before the fidelity model sees the circuit.

This is the seed per-gate implementation; the mapping pipeline runs the
batched array engine (:mod:`repro.circuits.batch`), which reproduces
this module's output gate for gate and serves as its executable
specification in the equivalence tests.

Decompositions (all exact up to global phase):

* ``h``        -> ``rz(pi/2) sx rz(pi/2)``
* ``rx(t)``    -> ``h rz(t) h``
* ``ry(t)``    -> ``rz(-pi/2) rx(t) rz(pi/2)``
* ``cx(c,t)``  -> ``h(t) cz(c,t) h(t)``
* ``rzz(a,b,t)`` -> ``cx(a,b) rz(b,t) cx(a,b)``
* ``swap(a,b)``  -> ``cx(a,b) cx(b,a) cx(a,b)``
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import List

from repro.circuits.circuit import QuantumCircuit
from repro.circuits.gates import BASIS_GATES, Gate

_TWO_PI = 2.0 * math.pi
_HALF_PI = math.pi / 2


@lru_cache(maxsize=4096)
def _cached_gate(name: str, qubits: tuple, params: tuple = ()) -> Gate:
    """Interned gate instances for the decomposition templates.

    Gates are frozen, so identical (name, qubits, params) triples can
    share one object — the lowering pass creates the same handful of
    gates per qubit over and over in the mapping hot loop.
    """
    return Gate(name, qubits, params)


def _lower_gate(gate: Gate) -> List[Gate]:
    """Expand one gate a single level; basis gates pass through."""
    name = gate.name
    if name in BASIS_GATES or name == "barrier":
        return [gate]
    if name == "h":
        (q,) = gate.qubits
        rz_half = _cached_gate("rz", (q,), (_HALF_PI,))
        return [rz_half, _cached_gate("sx", (q,)), rz_half]
    if name == "rx":
        (q,) = gate.qubits
        h = _cached_gate("h", (q,))
        return [h, Gate("rz", (q,), gate.params), h]
    if name == "ry":
        (q,) = gate.qubits
        return [_cached_gate("rz", (q,), (-_HALF_PI,)),
                Gate("rx", (q,), gate.params),
                _cached_gate("rz", (q,), (_HALF_PI,))]
    if name == "cx":
        c, t = gate.qubits
        return [_cached_gate("h", (t,)), _cached_gate("cz", (c, t)),
                _cached_gate("h", (t,))]
    if name == "rzz":
        a, b = gate.qubits
        cx_ab = _cached_gate("cx", (a, b))
        return [cx_ab, Gate("rz", (b,), gate.params), cx_ab]
    if name == "swap":
        a, b = gate.qubits
        cx_ab = _cached_gate("cx", (a, b))
        return [cx_ab, _cached_gate("cx", (b, a)), cx_ab]
    raise ValueError(f"no decomposition for gate {name!r}")


def lower_to_basis(circuit: QuantumCircuit) -> QuantumCircuit:
    """Recursively lower every gate to the native basis."""
    out = QuantumCircuit(circuit.num_qubits, name=circuit.name)
    # The passes below bypass QuantumCircuit.append: every emitted gate
    # acts on qubits of an already-validated input gate, so re-checking
    # indices per gate only burns time in the mapping hot loop.
    emit = out.gates.append
    stack: List[Gate] = list(reversed(circuit.gates))
    while stack:
        gate = stack.pop()
        if gate.name in BASIS_GATES or gate.name == "barrier":
            emit(gate)
        else:
            stack.extend(reversed(_lower_gate(gate)))
    return out


def merge_rz(circuit: QuantumCircuit) -> QuantumCircuit:
    """Merge consecutive rz rotations per qubit; drop angles = 0 (mod 2pi).

    An rz is *pending* until another gate touches its qubit; pending
    rotations accumulate, and a zero net rotation disappears entirely.
    """
    out = QuantumCircuit(circuit.num_qubits, name=circuit.name)
    emit = out.gates.append  # inputs already validated, see lower_to_basis
    pending: dict = {}

    def flush(q: int) -> None:
        angle = pending.pop(q, 0.0)
        angle = math.remainder(angle, _TWO_PI)
        if abs(angle) > 1e-12:
            emit(Gate("rz", (q,), (angle,)))

    for gate in circuit.gates:
        if gate.name == "rz":
            q = gate.qubits[0]
            pending[q] = pending.get(q, 0.0) + gate.params[0]
            continue
        for q in gate.qubits:
            if q in pending:
                flush(q)
        emit(gate)
    for q in sorted(pending):
        flush(q)
    return out


def cancel_pairs(circuit: QuantumCircuit) -> QuantumCircuit:
    """Cancel adjacent self-inverse pairs and fuse sx.sx -> x.

    Adjacency is per-qubit-stream: two gates cancel when no other gate
    touches any of their qubits in between.  Handles ``x.x -> I``,
    ``cz.cz -> I`` and ``sx.sx -> x``.
    """
    out_gates: List[Gate] = []
    last_on_qubit: dict = {}  # qubit -> index into out_gates

    def is_adjacent(gate: Gate, idx: int) -> bool:
        return all(last_on_qubit.get(q) == idx for q in gate.qubits)

    for gate in circuit.gates:
        if gate.name in ("x", "cz", "sx") and not gate.params:
            prev_idx = last_on_qubit.get(gate.qubits[0])
            if (prev_idx is not None
                    and out_gates[prev_idx] is not None
                    and out_gates[prev_idx].name == gate.name
                    and out_gates[prev_idx].qubits == gate.qubits
                    and is_adjacent(gate, prev_idx)):
                if gate.name == "sx":
                    out_gates[prev_idx] = Gate("x", gate.qubits)
                else:
                    out_gates[prev_idx] = None
                    for q in gate.qubits:
                        last_on_qubit.pop(q, None)
                continue
        out_gates.append(gate)
        idx = len(out_gates) - 1
        for q in gate.qubits:
            last_on_qubit[q] = idx

    out = QuantumCircuit(circuit.num_qubits, name=circuit.name)
    out.gates.extend(g for g in out_gates if g is not None)
    return out


def transpile(circuit: QuantumCircuit, optimization_level: int = 3,
              max_passes: int = 8) -> QuantumCircuit:
    """Lower to the native basis and optimise.

    Args:
        circuit: Input IR circuit (any KNOWN_GATES members).
        optimization_level: 0 = lower only; 1 = + rz merging; 2 = + pair
            cancellation; 3 = iterate the passes to a fixpoint (mirrors
            the paper's use of Qiskit L3).
        max_passes: Safety bound on fixpoint iterations.
    """
    if optimization_level not in (0, 1, 2, 3):
        raise ValueError("optimization_level must be 0..3")
    out = lower_to_basis(circuit)
    if optimization_level == 0:
        return out
    out = merge_rz(out)
    if optimization_level == 1:
        return out
    out = cancel_pairs(out)
    out = merge_rz(out)
    if optimization_level == 2:
        return out
    for _ in range(max_passes):
        size_before = out.size
        out = merge_rz(cancel_pairs(out))
        if out.size == size_before:
            break
    return out

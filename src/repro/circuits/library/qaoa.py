"""QAOA MaxCut benchmark circuits (Table I, ref. [25]).

``qaoa-n`` runs one layer (p = 1) of the Quantum Approximate Optimization
Algorithm on a deterministic MaxCut instance over ``n`` vertices: a ring
augmented with every-other chord, which gives a non-trivial interaction
graph while staying deterministic across runs.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from ..circuit import QuantumCircuit

Edge = Tuple[int, int]


def maxcut_instance(num_qubits: int) -> List[Edge]:
    """Deterministic MaxCut graph: ring plus skip-2 chords on even nodes."""
    if num_qubits < 2:
        raise ValueError("MaxCut instance needs at least 2 vertices")
    edges: List[Edge] = []
    for i in range(num_qubits):
        j = (i + 1) % num_qubits
        if i < j:
            edges.append((i, j))
        elif num_qubits > 2:
            edges.append((j, i))
    for i in range(0, num_qubits - 2, 2):
        edges.append((i, i + 2))
    return sorted(set(edges))


def qaoa(num_qubits: int,
         layers: int = 1,
         edges: Optional[Sequence[Edge]] = None,
         gamma: float = 0.7,
         beta: float = 0.3) -> QuantumCircuit:
    """Build a p-layer QAOA MaxCut circuit.

    Args:
        num_qubits: Number of vertices/qubits.
        layers: Number of (cost, mixer) layers p.
        edges: Problem-graph edges; deterministic instance when omitted.
        gamma: Cost-layer angle (fixed representative value).
        beta: Mixer-layer angle.
    """
    if layers < 1:
        raise ValueError("QAOA needs at least one layer")
    if edges is None:
        edges = maxcut_instance(num_qubits)
    qc = QuantumCircuit(num_qubits, name=f"qaoa-{num_qubits}")
    for q in range(num_qubits):
        qc.h(q)
    for p in range(layers):
        g = gamma * (p + 1) / layers
        b = beta * (layers - p) / layers
        for (u, v) in edges:
            qc.rzz(u, v, 2.0 * g)
        for q in range(num_qubits):
            qc.rx(q, 2.0 * b)
    return qc

"""Reference (seed) SABRE router, kept for equivalence testing.

This is the pre-batching per-gate implementation of
:func:`repro.circuits.sabre.route_sabre_arrays`, preserved verbatim — the
vectorized router must reproduce its output gate for gate
(``tests/circuits/test_sabre_batch.py`` pins the equivalence, the same
way :mod:`tests.oracles.legalizer` pins the vectorized legalizer).
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, List, Sequence, Set, Tuple

import networkx as nx

from repro.circuits.circuit import QuantumCircuit
from repro.circuits.gates import Gate
from repro.circuits.sabre import (DECAY, LOOKAHEAD_WEIGHT, LOOKAHEAD_WINDOW,
                                  MAX_SWAPS_PER_GATE)
from repro.devices.topology import Topology

from . import hop_distances
from .circuit import remap_gate


class _DependencyDag:
    """Per-qubit dependency tracking over the gate list."""

    def __init__(self, circuit: QuantumCircuit) -> None:
        self.gates: List[Gate] = [g for g in circuit.gates
                                  if g.name != "barrier"]
        self._next_on_qubit: Dict[int, List[int]] = defaultdict(list)
        for idx, gate in enumerate(self.gates):
            for q in gate.qubits:
                self._next_on_qubit[q].append(idx)
        self._cursor: Dict[int, int] = {q: 0 for q in self._next_on_qubit}
        self.executed: Set[int] = set()

    def ready_gates(self) -> List[int]:
        """Indices of gates whose per-qubit predecessors all executed."""
        ready = []
        for idx, gate in enumerate(self.gates):
            if idx in self.executed:
                continue
            if all(self._is_head(q, idx) for q in gate.qubits):
                ready.append(idx)
        return ready

    def _is_head(self, qubit: int, idx: int) -> bool:
        stream = self._next_on_qubit[qubit]
        cursor = self._cursor[qubit]
        while cursor < len(stream) and stream[cursor] in self.executed:
            cursor += 1
        self._cursor[qubit] = cursor
        return cursor < len(stream) and stream[cursor] == idx

    def execute(self, idx: int) -> None:
        self.executed.add(idx)

    @property
    def done(self) -> bool:
        return len(self.executed) == len(self.gates)

    def upcoming_two_qubit(self, limit: int) -> List[Gate]:
        """The next unexecuted two-qubit gates in program order."""
        out = []
        for idx, gate in enumerate(self.gates):
            if idx in self.executed or not gate.is_two_qubit:
                continue
            out.append(gate)
            if len(out) >= limit:
                break
        return out


def route_sabre_reference(circuit: QuantumCircuit, topology: Topology,
                          mapping: Dict[int, int]
                          ) -> Tuple[QuantumCircuit, Dict[int, int], int]:
    """Seed SABRE routing over ``Gate`` lists.

    Args:
        circuit: Logical circuit.
        topology: Target coupling graph.
        mapping: Initial logical -> physical assignment.

    Returns:
        ``(physical_circuit, final_mapping, swap_count)``.
    """
    dist = hop_distances(topology)
    dag = _DependencyDag(circuit)
    logical_at: Dict[int, int] = dict(mapping)
    physical_of: Dict[int, int] = {p: l for l, p in mapping.items()}
    out = QuantumCircuit(topology.num_qubits, name=circuit.name)
    swap_count = 0
    decay: Dict[int, float] = defaultdict(float)

    def gate_distance(gate: Gate) -> int:
        a, b = gate.qubits
        return dist[logical_at[a]][logical_at[b]]

    def apply_swap(u: int, v: int) -> None:
        nonlocal swap_count
        out.append(Gate("swap", (u, v)))
        swap_count += 1
        lu, lv = physical_of.get(u), physical_of.get(v)
        if lu is not None:
            logical_at[lu] = v
        if lv is not None:
            logical_at[lv] = u
        physical_of.pop(u, None)
        physical_of.pop(v, None)
        if lu is not None:
            physical_of[v] = lu
        if lv is not None:
            physical_of[u] = lv
        decay[u] += DECAY
        decay[v] += DECAY

    def heuristic(front: Sequence[Gate], swap: Tuple[int, int]) -> float:
        """Distance sum over front + damped look-ahead after a swap."""
        u, v = swap
        trial = dict(logical_at)
        lu, lv = physical_of.get(u), physical_of.get(v)
        if lu is not None:
            trial[lu] = v
        if lv is not None:
            trial[lv] = u

        def d(gate: Gate) -> int:
            a, b = gate.qubits
            return dist[trial[a]][trial[b]]

        score = sum(d(g) for g in front) / max(len(front), 1)
        ahead = dag.upcoming_two_qubit(LOOKAHEAD_WINDOW)
        if ahead:
            score += LOOKAHEAD_WEIGHT * sum(d(g) for g in ahead) / len(ahead)
        return score * (1.0 + decay[u] + decay[v])

    guard = 0
    while not dag.done:
        progressed = False
        front_blocked: List[Gate] = []
        for idx in dag.ready_gates():
            gate = dag.gates[idx]
            if not gate.is_two_qubit:
                out.append(remap_gate(gate, logical_at))
                dag.execute(idx)
                progressed = True
            elif gate_distance(gate) == 1:
                out.append(remap_gate(gate, logical_at))
                dag.execute(idx)
                progressed = True
            else:
                front_blocked.append(gate)
        if progressed:
            guard = 0
            continue
        if not front_blocked:
            break
        # All ready gates are blocked: apply the best-scoring SWAP among
        # those adjacent to a front-layer qubit.
        candidates: Set[Tuple[int, int]] = set()
        for gate in front_blocked:
            for logical in gate.qubits:
                p = logical_at[logical]
                for nb in topology.graph.neighbors(p):
                    candidates.add((min(p, nb), max(p, nb)))
        best = min(candidates, key=lambda sw: (heuristic(front_blocked, sw), sw))
        apply_swap(*best)
        guard += 1
        if guard > MAX_SWAPS_PER_GATE:
            # Fall back to deterministic shortest-path walking to force
            # progress (never triggered on connected topologies in tests,
            # kept as a safety net against heuristic livelock).
            gate = front_blocked[0]
            a, b = gate.qubits
            path = nx.shortest_path(topology.graph,
                                    logical_at[a], logical_at[b])
            for step in range(len(path) - 2):
                apply_swap(path[step], path[step + 1])
            guard = 0
    return out, logical_at, swap_count

"""Reference (seed) mapping pipeline, kept for equivalence testing.

These are the pre-vectorization per-gate implementations of
:func:`repro.circuits.mapping.initial_placement` and
:func:`repro.circuits.mapping.route_basic_arrays`, preserved so the
array kernels can be pinned against them — the same pattern as
:mod:`tests.oracles.legalizer` (legalizer) and
:mod:`tests.oracles.sabre` (SABRE router).  Bit-identity is
enforced by ``tests/properties/test_mapping_props.py`` and the
``benchmarks/bench_perf_mapping.py`` gate: same mapping, same routed
gate sequence, same swap count, same final mapping.

One deliberate deviation from the seed text: the route's occupancy
bookkeeping used an assign-``None``-then-pop dance that behaved
correctly but read like dead code; it is simplified here to explicit
pop-or-assign branches (output-identical, pinned by
``tests/circuits/test_mapping.py::TestRouting``).  Paths come from
:meth:`~repro.devices.topology.Topology.shortest_path`, whose canonical
next-hop walk is shared with the array router.
"""

from __future__ import annotations

from typing import Dict, Sequence, Tuple

from repro.circuits.circuit import QuantumCircuit
from repro.circuits.gates import Gate
from repro.circuits.mapping import interaction_weights
from repro.devices.topology import Topology

from . import hop_distances, shortest_path
from .circuit import remap_gate


def initial_placement_reference(circuit: QuantumCircuit, topology: Topology,
                                subset: Sequence[int]) -> Dict[int, int]:
    """Greedy interaction-aware assignment (seed per-candidate scan).

    The most-interacting logical qubit lands on the subset's most
    central node; every following qubit takes the free node minimising
    the weighted distance to its already-placed interaction partners.
    The scan re-walks every weight pair per candidate node — O(logical
    x free x weight-pairs) — which is exactly the loop the vectorized
    :func:`repro.circuits.mapping.initial_placement` collapses into
    per-qubit matrix gathers.
    """

    subset = list(subset)
    if circuit.num_qubits > len(subset):
        raise ValueError("subset smaller than circuit width")
    all_lengths = hop_distances(topology)
    sub_lengths = {s: all_lengths[s] for s in subset}
    weights = interaction_weights(circuit)
    degree: Dict[int, int] = {q: 0 for q in range(circuit.num_qubits)}
    for (a, b), w in weights.items():
        degree[a] += w
        degree[b] += w
    order = sorted(range(circuit.num_qubits), key=lambda q: (-degree[q], q))
    free = set(subset)
    mapping: Dict[int, int] = {}
    for logical in order:
        if not mapping:
            # Most central free node: minimise eccentricity within subset.
            choice = min(free, key=lambda s: (max(sub_lengths[s][t]
                                                  for t in subset), s))
        else:
            def cost(node: int) -> Tuple[float, int]:
                total = 0.0
                for (a, b), w in weights.items():
                    partner = None
                    if a == logical and b in mapping:
                        partner = mapping[b]
                    elif b == logical and a in mapping:
                        partner = mapping[a]
                    if partner is not None:
                        total += w * sub_lengths[node][partner]
                return (total, node)

            choice = min(free, key=cost)
        mapping[logical] = choice
        free.discard(choice)
    return mapping


def route_reference(circuit: QuantumCircuit, topology: Topology,
                    mapping: Dict[int, int]
                    ) -> Tuple[QuantumCircuit, Dict[int, int], int]:
    """Insert SWAPs along shortest paths (seed per-gate walker).

    Returns ``(physical_circuit, final_mapping, swap_count)`` with the
    physical circuit still in IR gates over physical indices.
    :func:`repro.circuits.mapping.route_basic_arrays` must emit the
    identical gate sequence (decoded with ``to_circuit()``).
    """
    logical_at: Dict[int, int] = dict(mapping)  # logical -> physical
    physical_of: Dict[int, int] = {p: l for l, p in mapping.items()}
    out = QuantumCircuit(topology.num_qubits, name=circuit.name)
    swap_count = 0
    for gate in circuit.gates:
        if gate.name == "barrier":
            continue
        if not gate.is_two_qubit:
            out.append(remap_gate(gate, logical_at))
            continue
        a, b = gate.qubits
        pa, pb = logical_at[a], logical_at[b]
        if not topology.graph.has_edge(pa, pb):
            path = shortest_path(topology, pa, pb)
            # Swap logical qubit a along the path until adjacent to pb.
            for step in range(len(path) - 2):
                u, v = path[step], path[step + 1]
                out.append(Gate("swap", (u, v)))
                swap_count += 1
                lu, lv = physical_of.get(u), physical_of.get(v)
                # A swap walk may cross *unoccupied* physical qubits:
                # only occupied endpoints move a logical qubit, and a
                # vacated endpoint must leave the occupancy table.
                if lu is not None:
                    logical_at[lu] = v
                if lv is not None:
                    logical_at[lv] = u
                if lv is None:
                    physical_of.pop(u, None)
                else:
                    physical_of[u] = lv
                if lu is None:
                    physical_of.pop(v, None)
                else:
                    physical_of[v] = lu
            pa, pb = logical_at[a], logical_at[b]
        out.append(remap_gate(gate, {a: pa, b: pb}))
    return out, logical_at, swap_count

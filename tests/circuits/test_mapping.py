"""Unit tests for subset sampling, placement, and SWAP routing."""

import numpy as np
import pytest

from repro.circuits.circuit import QuantumCircuit
from repro.circuits.gates import Gate
from repro.circuits.library import get_benchmark
from repro.circuits.mapping import (
    evaluation_mappings,
    initial_placement,
    interaction_weights,
    map_circuit,
    route,
    sample_connected_subset,
)
from repro.devices.topology import get_topology, grid_topology

from .util_sim import circuit_unitary, unitaries_equal_up_to_phase


@pytest.fixture(scope="module")
def grid():
    return grid_topology(4, 4)


class TestSubsetSampling:
    def test_size_and_membership(self, grid):
        subset = sample_connected_subset(grid, 5, seed=3)
        assert len(subset) == 5
        assert all(0 <= q < 16 for q in subset)

    def test_connected(self, grid):
        import networkx as nx
        for seed in range(10):
            subset = sample_connected_subset(grid, 6, seed=seed)
            assert nx.is_connected(grid.graph.subgraph(subset))

    def test_deterministic(self, grid):
        assert sample_connected_subset(grid, 6, seed=5) == \
            sample_connected_subset(grid, 6, seed=5)

    def test_seeds_vary_start(self, grid):
        subsets = {tuple(sample_connected_subset(grid, 4, seed=s))
                   for s in range(12)}
        assert len(subsets) > 3

    def test_coverage_across_seeds(self, grid):
        # The paper's 50-subset protocol must cover the whole chip —
        # guaranteed now that start nodes cycle one fixed permutation.
        covered = set()
        for seed in range(50):
            covered.update(sample_connected_subset(grid, 4, seed=seed))
        assert covered == set(range(16))

    def test_one_seed_cycle_covers_chip(self, grid):
        # n seeds = one full cycle of the protocol start order, so the
        # union covers the chip even with the smallest subsets.
        covered = set()
        for seed in range(16):
            covered.update(sample_connected_subset(grid, 1, seed=seed))
        assert covered == set(range(16))

    def test_size_validation(self, grid):
        with pytest.raises(ValueError):
            sample_connected_subset(grid, 0)
        with pytest.raises(ValueError):
            sample_connected_subset(grid, 17)


class TestInitialPlacement:
    def test_bijective(self, grid):
        circuit = get_benchmark("bv-4")
        subset = sample_connected_subset(grid, 4, seed=0)
        mapping = initial_placement(circuit, grid, subset)
        assert sorted(mapping) == [0, 1, 2, 3]
        assert sorted(mapping.values()) == sorted(subset)

    def test_interacting_pairs_close(self, grid):
        circuit = QuantumCircuit(4).cx(0, 1).cx(0, 1).cx(0, 1).cx(2, 3)
        subset = sample_connected_subset(grid, 4, seed=1)
        mapping = initial_placement(circuit, grid, subset)
        dm = grid.distance_matrix()
        # The heavily interacting pair must land adjacent (weight 3).
        assert dm[mapping[0]][mapping[1]] <= dm[mapping[2]][mapping[3]]

    def test_subset_too_small(self, grid):
        with pytest.raises(ValueError):
            initial_placement(get_benchmark("bv-9"), grid, [0, 1, 2])

    def test_interaction_weights(self):
        circuit = QuantumCircuit(3).cx(0, 1).cz(1, 0).rzz(1, 2, 0.5)
        weights = interaction_weights(circuit)
        assert weights == {(0, 1): 2, (1, 2): 1}


class TestRouting:
    def test_all_two_qubit_gates_on_couplers(self, grid):
        circuit = get_benchmark("qaoa-9")
        subset = sample_connected_subset(grid, 9, seed=2)
        mapping = initial_placement(circuit, grid, subset)
        routed, _, _ = route(circuit, grid, mapping)
        for g in routed.gates:
            if g.is_two_qubit:
                a, b = g.qubits
                assert grid.graph.has_edge(a, b), f"{g.name} on {g.qubits}"

    def test_final_mapping_consistent(self, grid):
        circuit = get_benchmark("bv-4")
        subset = sample_connected_subset(grid, 4, seed=0)
        mapping = initial_placement(circuit, grid, subset)
        _, final, _ = route(circuit, grid, mapping)
        assert sorted(final) == sorted(mapping)
        assert len(set(final.values())) == len(final)

    def test_no_swaps_when_adjacent(self):
        line = grid_topology(1, 4)
        circuit = QuantumCircuit(2).cx(0, 1)
        _, _, swaps = route(circuit, line, {0: 0, 1: 1})
        assert swaps == 0

    def test_swaps_inserted_when_distant(self):
        line = grid_topology(1, 4)
        circuit = QuantumCircuit(2).cx(0, 1)
        routed, _, swaps = route(circuit, line, {0: 0, 1: 3})
        assert swaps == 2
        assert routed.count_ops().get("swap", 0) == 2

    def test_swap_walk_through_unoccupied_qubits(self):
        # Regression: SWAP walks may cross physical qubits holding no
        # logical qubit (paths leave the mapped subset).  The occupancy
        # bookkeeping must keep final_mapping consistent: the walked
        # logical lands one hop short of its partner, the vacated start
        # node is free again, and the mapping stays injective.
        line = grid_topology(1, 4)
        circuit = QuantumCircuit(2).cx(0, 1)
        mapping = {0: 0, 1: 3}  # physical 1 and 2 are unoccupied
        routed, final, swaps = route(circuit, line, mapping)
        assert swaps == 2
        assert final == {0: 2, 1: 3}
        assert len(set(final.values())) == len(final)
        from repro.circuits.mapping_reference import route_reference
        ref_routed, ref_final, ref_swaps = route_reference(
            circuit, line, dict(mapping))
        assert (routed.gates, final, swaps) == \
            (ref_routed.gates, ref_final, ref_swaps)

    def test_swap_walk_outside_subset_region(self):
        # A connected subset whose internal path is longer than the
        # full-graph shortest path: the walk crosses non-subset (hence
        # unoccupied) qubits, then later gates reuse the moved qubit.
        grid3 = grid_topology(3, 3)
        circuit = QuantumCircuit(2).cx(0, 1).cx(0, 1)
        mapping = {0: 0, 1: 8}
        routed, final, swaps = route(circuit, grid3, mapping)
        assert sorted(final) == [0, 1]
        assert len(set(final.values())) == 2
        for g in routed.gates:
            if g.is_two_qubit:
                assert grid3.graph.has_edge(*g.qubits)
        from repro.circuits.mapping_reference import route_reference
        ref = route_reference(circuit, grid3, dict(mapping))
        assert (routed.gates, final, swaps) == (ref[0].gates, ref[1], ref[2])

    def test_routing_preserves_semantics_via_final_permutation(self):
        # Route a small circuit, then verify the routed circuit equals
        # the original conjugated by the qubit relabelling it induced.
        line = grid_topology(1, 3)
        circuit = QuantumCircuit(3).h(0).cx(0, 2).cx(1, 2)
        mapping = {0: 0, 1: 1, 2: 2}
        routed, final, _ = route(circuit, line, mapping)
        u_routed = circuit_unitary(routed)

        # Build the expected unitary: original circuit with wires renamed
        # by the initial mapping, followed by the permutation induced by
        # the SWAPs (final vs initial mapping).
        renamed = circuit.remapped(mapping, 3)
        u_orig = circuit_unitary(renamed)
        perm = QuantumCircuit(3)
        # Move each logical qubit from mapping[l] to final[l] with swaps.
        current = dict(mapping)
        for logical in sorted(final):
            src = current[logical]
            dst = final[logical]
            if src != dst:
                perm.swap(src, dst)
                for other, pos in current.items():
                    if pos == dst:
                        current[other] = src
                current[logical] = dst
        u_expected = circuit_unitary(perm) @ u_orig
        assert unitaries_equal_up_to_phase(u_routed, u_expected)


class TestMapCircuit:
    def test_end_to_end_fields(self, grid):
        mapped = map_circuit(get_benchmark("bv-4"), grid, seed=0)
        assert mapped.physical_circuit.num_qubits == grid.num_qubits
        assert mapped.duration_ns > 0
        assert mapped.active_qubits
        assert mapped.active_edges <= set(grid.coupling_map)

    def test_basis_only_output(self, grid):
        mapped = map_circuit(get_benchmark("qgan-4"), grid, seed=1)
        assert all(g.name in {"rz", "sx", "x", "cz"}
                   for g in mapped.physical_circuit.gates)

    def test_counts(self, grid):
        mapped = map_circuit(get_benchmark("bv-4"), grid, seed=0)
        two_q = sum(mapped.two_qubit_counts().values())
        assert two_q == mapped.physical_circuit.two_qubit_gate_count
        assert all(e in set(grid.coupling_map) for e in mapped.two_qubit_counts())

    def test_explicit_subset(self, grid):
        subset = [0, 1, 2, 5]
        mapped = map_circuit(get_benchmark("bv-4"), grid, subset=subset)
        assert set(mapped.initial_mapping.values()) == set(subset)

    def test_evaluation_mappings_deterministic(self, grid):
        a = evaluation_mappings(get_benchmark("bv-4"), grid, num_mappings=5)
        b = evaluation_mappings(get_benchmark("bv-4"), grid, num_mappings=5)
        assert [m.initial_mapping for m in a] == [m.initial_mapping for m in b]

    def test_larger_device(self):
        topo = get_topology("falcon-27")
        mapped = map_circuit(get_benchmark("bv-9"), topo, seed=0)
        for (a, b) in mapped.active_edges:
            assert topo.graph.has_edge(a, b)

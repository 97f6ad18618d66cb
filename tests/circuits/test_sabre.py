"""Unit tests for the SABRE-style look-ahead router."""

import pytest

from repro.circuits.circuit import QuantumCircuit
from repro.circuits.library import get_benchmark
from repro.circuits.mapping import initial_placement, map_circuit, \
    sample_connected_subset
from repro.circuits.sabre import route_sabre_arrays
from repro.devices.topology import get_topology, grid_topology
from tests.oracles.circuit import count_ops, remap_circuit

from .util_sim import circuit_unitary, unitaries_equal_up_to_phase


def _routed(circuit, topology, mapping):
    """SABRE routing with the physical circuit decoded to ``Gate`` s."""
    arrays, final, swaps = route_sabre_arrays(circuit, topology, mapping)
    return arrays.to_circuit(), final, swaps


@pytest.fixture(scope="module")
def grid():
    return grid_topology(4, 4)


class TestRoutingValidity:
    @pytest.mark.parametrize("bench", ["bv-9", "qaoa-9"])
    def test_all_gates_on_couplers(self, grid, bench):
        circuit = get_benchmark(bench)
        subset = sample_connected_subset(grid, circuit.num_qubits, seed=1)
        mapping = initial_placement(circuit, grid, subset)
        routed, _, _ = _routed(circuit, grid, mapping)
        for g in routed.gates:
            if g.is_two_qubit:
                assert grid.graph.has_edge(*g.qubits)

    def test_final_mapping_bijective(self, grid):
        circuit = get_benchmark("qaoa-9")
        subset = sample_connected_subset(grid, 9, seed=0)
        mapping = initial_placement(circuit, grid, subset)
        _, final, _ = _routed(circuit, grid, mapping)
        assert sorted(final) == sorted(mapping)
        assert len(set(final.values())) == len(final)

    def test_no_swaps_when_all_adjacent(self):
        line = grid_topology(1, 3)
        circuit = QuantumCircuit(3).cx(0, 1).cx(1, 2)
        _, _, swaps = _routed(circuit, line, {0: 0, 1: 1, 2: 2})
        assert swaps == 0

    def test_single_qubit_gates_pass_through(self):
        line = grid_topology(1, 2)
        circuit = QuantumCircuit(2).h(0).x(1).rz(0, 0.5)
        routed, _, swaps = _routed(circuit, line, {0: 0, 1: 1})
        assert swaps == 0
        assert count_ops(routed) == {"h": 1, "x": 1, "rz": 1}

    def test_semantics_preserved_small(self):
        """Routed circuit == original + induced permutation (unitary)."""
        line = grid_topology(1, 3)
        circuit = QuantumCircuit(3).h(0).cx(0, 2).cz(1, 2)
        mapping = {0: 0, 1: 1, 2: 2}
        routed, final, _ = _routed(circuit, line, mapping)
        u_routed = circuit_unitary(routed)

        renamed = remap_circuit(circuit, mapping, 3)
        u_orig = circuit_unitary(renamed)
        perm = QuantumCircuit(3)
        current = dict(mapping)
        for logical in sorted(final):
            src, dst = current[logical], final[logical]
            if src != dst:
                perm.swap(src, dst)
                for other, pos in current.items():
                    if pos == dst:
                        current[other] = src
                current[logical] = dst
        expected = circuit_unitary(perm) @ u_orig
        assert unitaries_equal_up_to_phase(u_routed, expected)


class TestEfficiency:
    def test_beats_or_matches_naive_on_sparse_device(self):
        topo = get_topology("falcon-27")
        circuit = get_benchmark("qaoa-9")
        basic_total = 0
        sabre_total = 0
        for seed in range(5):
            basic_total += map_circuit(circuit, topo, seed=seed,
                                       router="basic").swap_count
            sabre_total += map_circuit(circuit, topo, seed=seed,
                                       router="sabre").swap_count
        assert sabre_total <= basic_total

    def test_gate_counts_identical_modulo_swaps(self, grid):
        circuit = get_benchmark("bv-9")
        subset = sample_connected_subset(grid, 9, seed=3)
        mapping = initial_placement(circuit, grid, subset)
        routed, _, swaps = _routed(circuit, grid, mapping)
        ops = count_ops(routed)
        original_ops = count_ops(QuantumCircuit(9).extend(circuit.gates))
        assert ops.get("swap", 0) == swaps
        for name, count in original_ops.items():
            assert ops.get(name, 0) == count


class TestMapCircuitIntegration:
    def test_router_flag(self, grid):
        mapped = map_circuit(get_benchmark("bv-4"), grid, seed=0,
                             router="sabre")
        assert all(g.name in {"rz", "sx", "x", "cz"}
                   for g in mapped.physical_arrays.to_circuit().gates)

    def test_unknown_router_rejected(self, grid):
        with pytest.raises(ValueError, match="router"):
            map_circuit(get_benchmark("bv-4"), grid, router="magic")

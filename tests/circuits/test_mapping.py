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
    map_suite_arrays,
    route_basic_arrays,
    sample_connected_subset,
)
from repro.devices.topology import Topology, get_topology, grid_topology
from tests.oracles import hop_distances
from tests.oracles.circuit import count_ops, remap_circuit, used_pairs
from tests.oracles.mapping import route_reference

from .util_sim import circuit_unitary, unitaries_equal_up_to_phase


def _routed(circuit, topology, mapping):
    """Basic routing with the physical circuit decoded to ``Gate`` s."""
    arrays, final, swaps = route_basic_arrays(circuit, topology, mapping)
    return arrays.to_circuit(), final, swaps


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
        dm = hop_distances(grid)
        # The heavily interacting pair must land adjacent (weight 3).
        assert dm[mapping[0]][mapping[1]] <= dm[mapping[2]][mapping[3]]

    def test_subset_too_small(self, grid):
        with pytest.raises(ValueError):
            initial_placement(get_benchmark("bv-9"), grid, [0, 1, 2])

    def test_repeated_nodes_count_once(self, grid):
        # Three entries but two distinct nodes cannot host three qubits.
        circuit = QuantumCircuit(3).cx(0, 1).cx(1, 2)
        with pytest.raises(ValueError, match="subset smaller than circuit"):
            initial_placement(circuit, grid, [0, 0, 1])
        with pytest.raises(ValueError, match="subset smaller than circuit"):
            map_circuit(circuit, grid, subset=[0, 0, 1])

    def test_repeated_nodes_with_enough_distinct(self, grid):
        circuit = QuantumCircuit(3).cx(0, 1).cx(1, 2)
        assert initial_placement(circuit, grid, [5, 1, 1, 0, 5]) == \
            initial_placement(circuit, grid, [0, 1, 5])

    def test_node_outside_device(self, grid):
        with pytest.raises(KeyError):
            initial_placement(get_benchmark("bv-4"), grid, [0, 1, 2, 16])
        with pytest.raises(KeyError):
            map_circuit(get_benchmark("bv-4"), grid, subset=[0, 1, 2, 16])

    def test_interaction_weights(self):
        circuit = QuantumCircuit(3).cx(0, 1).cz(1, 0).rzz(1, 2, 0.5)
        weights = interaction_weights(circuit)
        assert weights == {(0, 1): 2, (1, 2): 1}


class TestRouting:
    def test_all_two_qubit_gates_on_couplers(self, grid):
        circuit = get_benchmark("qaoa-9")
        subset = sample_connected_subset(grid, 9, seed=2)
        mapping = initial_placement(circuit, grid, subset)
        routed, _, _ = _routed(circuit, grid, mapping)
        for g in routed.gates:
            if g.is_two_qubit:
                a, b = g.qubits
                assert grid.graph.has_edge(a, b), f"{g.name} on {g.qubits}"

    def test_final_mapping_consistent(self, grid):
        circuit = get_benchmark("bv-4")
        subset = sample_connected_subset(grid, 4, seed=0)
        mapping = initial_placement(circuit, grid, subset)
        _, final, _ = _routed(circuit, grid, mapping)
        assert sorted(final) == sorted(mapping)
        assert len(set(final.values())) == len(final)

    def test_no_swaps_when_adjacent(self):
        line = grid_topology(1, 4)
        circuit = QuantumCircuit(2).cx(0, 1)
        _, _, swaps = _routed(circuit, line, {0: 0, 1: 1})
        assert swaps == 0

    def test_swaps_inserted_when_distant(self):
        line = grid_topology(1, 4)
        circuit = QuantumCircuit(2).cx(0, 1)
        routed, _, swaps = _routed(circuit, line, {0: 0, 1: 3})
        assert swaps == 2
        assert count_ops(routed).get("swap", 0) == 2

    def test_swap_walk_through_unoccupied_qubits(self):
        # Regression: SWAP walks may cross physical qubits holding no
        # logical qubit (paths leave the mapped subset).  The occupancy
        # bookkeeping must keep final_mapping consistent: the walked
        # logical lands one hop short of its partner, the vacated start
        # node is free again, and the mapping stays injective.
        line = grid_topology(1, 4)
        circuit = QuantumCircuit(2).cx(0, 1)
        mapping = {0: 0, 1: 3}  # physical 1 and 2 are unoccupied
        routed, final, swaps = _routed(circuit, line, mapping)
        assert swaps == 2
        assert final == {0: 2, 1: 3}
        assert len(set(final.values())) == len(final)
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
        routed, final, swaps = _routed(circuit, grid3, mapping)
        assert sorted(final) == [0, 1]
        assert len(set(final.values())) == 2
        for g in routed.gates:
            if g.is_two_qubit:
                assert grid3.graph.has_edge(*g.qubits)
        ref = route_reference(circuit, grid3, dict(mapping))
        assert (routed.gates, final, swaps) == (ref[0].gates, ref[1], ref[2])

    def test_routing_preserves_semantics_via_final_permutation(self):
        # Route a small circuit, then verify the routed circuit equals
        # the original conjugated by the qubit relabelling it induced.
        line = grid_topology(1, 3)
        circuit = QuantumCircuit(3).h(0).cx(0, 2).cx(1, 2)
        mapping = {0: 0, 1: 1, 2: 2}
        routed, final, _ = _routed(circuit, line, mapping)
        u_routed = circuit_unitary(routed)

        # Build the expected unitary: original circuit with wires renamed
        # by the initial mapping, followed by the permutation induced by
        # the SWAPs (final vs initial mapping).
        renamed = remap_circuit(circuit, mapping, 3)
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
        physical = mapped.physical_arrays.to_circuit()
        assert physical.num_qubits == grid.num_qubits
        assert mapped.duration_ns > 0
        assert mapped.active_qubit_mask.any()
        assert used_pairs(physical) <= set(grid.coupling_map)

    def test_basis_only_output(self, grid):
        mapped = map_circuit(get_benchmark("qgan-4"), grid, seed=1)
        assert all(g.name in {"rz", "sx", "x", "cz"}
                   for g in mapped.physical_arrays.to_circuit().gates)

    def test_counts(self, grid):
        mapped = map_circuit(get_benchmark("bv-4"), grid, seed=0)
        _, two_q = mapped.timed_gate_totals()
        assert two_q == \
            mapped.physical_arrays.to_circuit().two_qubit_gate_count
        n = grid.num_qubits
        couplers = {a * n + b for a, b in grid.coupling_map}
        assert set(mapped.active_pair_keys.tolist()) <= couplers

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
        for (a, b) in used_pairs(mapped.physical_arrays.to_circuit()):
            assert topo.graph.has_edge(a, b)

    @pytest.mark.parametrize("router", ["basic", "sabre"])
    @pytest.mark.parametrize("seed", [0, 3, 11])
    def test_one_seed_suite(self, router, seed):
        # map_circuit is the one-seed case of the suite compile.
        topo = get_topology("falcon-27")
        circuit = get_benchmark("qaoa-9")
        single = map_circuit(circuit, topo, seed=seed, router=router)
        (suite,) = map_suite_arrays(circuit, topo, num_mappings=1,
                                    base_seed=seed, router=router)
        for col in ("codes", "q0", "q1", "params"):
            assert np.array_equal(getattr(single.physical_arrays, col),
                                  getattr(suite.physical_arrays, col))
        assert single.initial_mapping == suite.initial_mapping
        assert single.final_mapping == suite.final_mapping
        assert single.swap_count == suite.swap_count
        assert single.duration_ns == suite.duration_ns


class TestRemovedSurface:
    """The Gate-list, set-valued and frozen twins of the columnar path."""

    @pytest.mark.parametrize("module,name", [
        ("repro.circuits.mapping", "route"),
        ("repro.circuits.sabre", "route_sabre"),
        ("repro.circuits.batch", "transpile_batched"),
        ("repro.circuits.batch", "FrozenArrayCircuit"),
        ("repro.circuits.batch", "_frozen_column"),
        ("repro.circuits", "route"),
        ("repro.circuits", "route_sabre"),
        ("repro.circuits", "transpile_batched"),
        ("repro.circuits", "FrozenArrayCircuit"),
        ("repro.circuits", "cancel_pairs"),
        ("repro.circuits", "lower_to_basis"),
        ("repro.circuits", "merge_rz"),
        ("repro.circuits", "transpile"),
        ("repro.circuits", "initial_placement_reference"),
        ("repro.circuits", "route_reference"),
        ("repro.devices.topology", "LAZY_HOP_DISTANCE_MIN_NODES"),
        ("repro.devices.topology", "_LazyHopDistances"),
    ])
    def test_module_name_removed(self, module, name):
        import importlib

        imported = importlib.import_module(module)
        assert not hasattr(imported, name)
        assert name not in getattr(imported, "__all__", ())

    @pytest.mark.parametrize("name", ["used_qubits", "used_pairs",
                                      "two_qubit_counts",
                                      "single_qubit_counts",
                                      "gate_counts_per_qubit", "freeze"])
    def test_array_circuit_method_removed(self, name):
        from repro.circuits.batch import ArrayCircuit

        assert not hasattr(ArrayCircuit, name)

    @pytest.mark.parametrize("name", ["active_qubits", "active_edges",
                                      "two_qubit_counts",
                                      "single_qubit_counts",
                                      "physical_circuit"])
    def test_mapped_circuit_view_removed(self, name):
        from repro.circuits.mapping import MappedCircuit

        assert not hasattr(MappedCircuit, name)

    @pytest.mark.parametrize("name", ["count_ops", "used_qubits",
                                      "used_pairs", "gate_counts_per_qubit",
                                      "asap_schedule"])
    def test_gate_list_scan_removed(self, name):
        assert not hasattr(QuantumCircuit, name)

    @pytest.mark.parametrize("owner,name", [
        (QuantumCircuit, "remapped"),
        (QuantumCircuit, "copy"),
        (Gate, "remapped"),
        (Topology, "shortest_path"),
    ])
    def test_oracle_only_method_moved_to_tests(self, owner, name):
        """Only tests read these; they live in ``tests/oracles`` as
        ``remap_circuit``, ``copy_circuit``, ``remap_gate`` and
        ``shortest_path``."""
        assert not hasattr(owner, name)

    @pytest.mark.parametrize("name", ["hop_distances", "distance_matrix"])
    def test_topology_dict_distances_removed(self, name):
        from repro.devices.topology import Topology

        assert not hasattr(Topology, name)

    def test_schedule_holds_makespan_only(self):
        from dataclasses import fields

        from repro.circuits.circuit import Schedule

        assert [f.name for f in fields(Schedule)] == ["total_ns"]

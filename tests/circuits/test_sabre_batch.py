"""Vectorized SABRE must be output-identical to the seed reference."""

import pytest

from repro.circuits.library import get_benchmark
from repro.circuits.mapping import (initial_placement, map_circuit,
                                    sample_connected_subset)
from repro.circuits.sabre import route_sabre_arrays
from repro.devices.topology import get_topology
from repro.workloads import get_workload
from tests.oracles import hop_distances
from tests.oracles.sabre import route_sabre_reference
from tests.oracles.transpile import transpile


def _compare(circuit, topology_name, seed):
    topology = get_topology(topology_name)
    subset = sample_connected_subset(topology, circuit.num_qubits, seed)
    mapping = initial_placement(circuit, topology, subset)
    ref_circ, ref_map, ref_swaps = route_sabre_reference(
        circuit, topology, dict(mapping))
    vec_arrays, vec_map, vec_swaps = route_sabre_arrays(
        circuit, topology, dict(mapping))
    vec_circ = vec_arrays.to_circuit()
    assert vec_swaps == ref_swaps
    assert vec_map == ref_map
    assert vec_circ.num_qubits == ref_circ.num_qubits
    assert vec_circ.gates == ref_circ.gates


class TestEquivalence:
    @pytest.mark.parametrize("bench_name", ["bv-16", "qaoa-9", "qgan-9"])
    @pytest.mark.parametrize("topology", ["grid-25", "falcon-27"])
    def test_paper_benchmarks(self, bench_name, topology):
        for seed in (0, 3):
            _compare(get_benchmark(bench_name), topology, seed)

    def test_wide_workload_on_eagle(self):
        _compare(get_workload("qaoa-64"), "eagle-127", 1)

    def test_registry_workloads(self):
        for name in ("ghz-12", "qft-8", "clifford-10-d4-s2", "qv-8-d3"):
            _compare(get_workload(name), "grid-25", 0)

    def test_distance_matrix_matches_networkx_rows(self):
        for name in ("grid-25", "falcon-27", "xtree-53"):
            topology = get_topology(name)
            matrix = topology.hop_distance_matrix()
            rows = hop_distances(topology)
            for src in range(topology.num_qubits):
                for dst, hops in rows[src].items():
                    assert matrix[src, dst] == hops


class TestArraysPath:
    def test_arrays_contract(self):
        # Physical IR columns over the whole device, the circuit's name,
        # one row per logical gate plus one per SWAP, and the caller's
        # mapping left untouched.
        circuit = get_benchmark("qaoa-9")
        topology = get_topology("grid-25")
        subset = sample_connected_subset(topology, 9, 0)
        mapping = initial_placement(circuit, topology, subset)
        before = dict(mapping)
        arrays, final, swaps = route_sabre_arrays(circuit, topology, mapping)
        assert mapping == before
        assert arrays.num_qubits == topology.num_qubits
        assert arrays.name == circuit.name
        assert arrays.size == circuit.size + swaps
        assert sorted(final) == sorted(mapping)

    def test_unmapped_qubit_raises(self):
        circuit = get_benchmark("bv-4")
        topology = get_topology("grid-25")
        with pytest.raises(KeyError):
            route_sabre_arrays(circuit, topology, {0: 0, 1: 1})


class TestMapCircuitPipeline:
    """map_circuit rides the batched pipeline; outputs stay pinned."""

    def test_sabre_mapping_matches_reference_composition(self):
        circuit = get_benchmark("qgan-9")
        topology = get_topology("falcon-27")
        subset = sample_connected_subset(topology, 9, 2)
        mapping = initial_placement(circuit, topology, subset)
        routed, final_mapping, swaps = route_sabre_reference(
            circuit, topology, dict(mapping))
        expected = transpile(routed)
        mapped = map_circuit(circuit, topology, seed=2, router="sabre")
        assert mapped.physical_arrays.to_circuit().gates == expected.gates
        assert mapped.final_mapping == final_mapping
        assert mapped.swap_count == swaps

    def test_basic_router_matches_legacy_transpile(self):
        from repro.circuits.mapping import route_basic_arrays

        circuit = get_benchmark("bv-9")
        topology = get_topology("grid-25")
        subset = sample_connected_subset(topology, 9, 1)
        mapping = initial_placement(circuit, topology, subset)
        routed, _, _ = route_basic_arrays(circuit, topology, mapping)
        expected = transpile(routed.to_circuit())
        mapped = map_circuit(circuit, topology, seed=1, router="basic")
        assert mapped.physical_arrays.to_circuit().gates == expected.gates

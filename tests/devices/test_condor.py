"""Condor-class scale topologies and the mapping pipeline on them."""

import networkx as nx

from repro.devices.topology import (
    SCALE_TOPOLOGY_ORDER,
    TOPOLOGY_FACTORIES,
    condor_sm_topology,
    condor_topology,
    eagle_topology,
    get_topology,
    heavy_hex_lattice,
)


class TestCondorGenerators:
    def test_condor_1121_counts(self):
        topo = condor_topology()
        assert topo.name == "condor-1121"
        assert topo.num_qubits == 1121
        assert topo.num_couplers == 1320
        assert nx.is_connected(topo.graph)

    def test_condor_sm_counts(self):
        topo = condor_sm_topology()
        assert topo.name == "condor-sm-433"
        assert topo.num_qubits == 433
        assert topo.num_couplers == 504

    def test_heavy_hex_degree_bound(self):
        # Heavy-hex lattices never exceed degree 3.
        for topo in (condor_sm_topology(), condor_topology()):
            assert topo.max_degree <= 3

    def test_registered_and_ordered(self):
        for name in SCALE_TOPOLOGY_ORDER:
            assert name in TOPOLOGY_FACTORIES
            assert get_topology(name).name == name

    def test_eagle_unchanged_by_generalisation(self):
        # The connector generalisation must leave the Eagle pattern
        # bit-for-bit: same counts, same coords, same edges.
        topo = eagle_topology()
        assert topo.num_qubits == 127
        assert topo.num_couplers == 144
        ref = heavy_hex_lattice(7, 15)
        assert topo.coords == ref.coords
        assert set(map(frozenset, topo.graph.edges)) == \
            set(map(frozenset, ref.graph.edges))
        # Spot-check canonical coords of the first long row.
        assert topo.coords[0] == (0.0, 0.0)
        assert topo.coords[13] == (13.0, 0.0)


class TestCondorMapping:
    def test_map_circuit_on_condor_sm(self):
        # The full mapping pipeline must work on a scale topology.
        from repro.circuits.library import get_benchmark
        from repro.circuits.mapping import map_circuit

        topo = get_topology("condor-sm-433")
        mapped = map_circuit(get_benchmark("bv-4"), topo, seed=3)
        assert mapped.physical_arrays.num_qubits == 433
        assert int(mapped.active_qubit_mask.sum()) >= 4

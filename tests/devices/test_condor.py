"""Condor-class scale topologies and the lazy hop-distance guard."""

import networkx as nx
import numpy as np
import pytest

from repro.devices.topology import (
    LAZY_HOP_DISTANCE_MIN_NODES,
    SCALE_TOPOLOGY_ORDER,
    TOPOLOGY_FACTORIES,
    _LazyHopDistances,
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


class TestLazyHopDistances:
    def test_small_topologies_stay_eager(self):
        topo = get_topology("eagle-127")
        table = topo.hop_distances()
        assert isinstance(table, dict)
        assert len(table) == 127

    def test_large_topologies_go_lazy(self):
        topo = get_topology("condor-sm-433")
        assert topo.num_qubits > LAZY_HOP_DISTANCE_MIN_NODES
        table = topo.hop_distances()
        assert isinstance(table, _LazyHopDistances)
        assert len(table) == 433
        # Only requested rows are materialised.
        row = table[0]
        assert table._rows.keys() == {0}
        assert row[0] == 0

    def test_lazy_rows_match_networkx(self):
        topo = get_topology("condor-sm-433")
        table = topo.hop_distances()
        for src in (0, 17, 432):
            ref = dict(nx.single_source_shortest_path_length(topo.graph, src))
            assert table[src] == ref

    def test_lazy_rows_cached_and_shared(self):
        topo = get_topology("condor-1121")
        table = topo.hop_distances()
        assert table[5] is table[5]
        assert topo.hop_distances() is table

    def test_lazy_mapping_protocol(self):
        topo = get_topology("condor-sm-433")
        table = topo.hop_distances()
        assert set(table) == set(range(433))
        with pytest.raises(KeyError):
            table[9999]

    def test_subset_comprehension_access_pattern(self):
        # The initial_placement access pattern: a dict comprehension
        # over a mapping subset.
        topo = get_topology("condor-sm-433")
        table = topo.hop_distances()
        subset = [0, 1, 2, 28]
        sub = {s: table[s] for s in subset}
        assert all(sub[s][t] >= 0 for s in subset for t in subset)


class TestCondorMapping:
    def test_map_circuit_on_condor_sm(self):
        # The full mapping pipeline must work on a scale topology.  The
        # vectorized placement/router consult the dense hop matrix, so
        # the lazy per-source table stays completely untouched (it is
        # still served lazily to any other caller).
        from repro.circuits.library import get_benchmark
        from repro.circuits.mapping import map_circuit

        topo = get_topology("condor-sm-433")
        mapped = map_circuit(get_benchmark("bv-4"), topo, seed=3)
        assert mapped.physical_circuit.num_qubits == 433
        assert int(mapped.active_qubit_mask.sum()) >= 4
        lazy = topo.hop_distances()
        assert isinstance(lazy, _LazyHopDistances)
        assert len(lazy._rows) == 0

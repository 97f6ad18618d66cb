"""Property tests: vectorized mapping pipeline vs preserved references.

Three contracts:

* ``initial_placement`` (the one-row case of the lock-step suite
  placement) reproduces the seed greedy scan
  (``tests.oracles.mapping.initial_placement_reference``) exactly, for
  arbitrary circuits and topologies and for sampled, unsorted and
  oversized subsets;
* the array basic router emits the identical gate sequence, final
  mapping, and swap count as the seed per-gate walker
  (``tests.oracles.mapping.route_reference``);
* the fixed subset sampler deterministically covers the chip: the
  union of the paper's 50-seed batch spans every node of each
  <=50-qubit paper topology.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits.batch import transpile_arrays
from repro.circuits.mapping import (
    initial_placement,
    route_basic_arrays,
    sample_connected_subset,
)
from repro.devices.topology import get_topology, grid_topology
from tests.oracles.circuit import asap_schedule
from tests.oracles.mapping import (
    initial_placement_reference,
    route_reference,
)

from .test_transpile_props import random_circuits

TOPOLOGIES = ("grid-16", "falcon-27")


def _topology(name):
    if name == "grid-16":
        return grid_topology(4, 4)
    return get_topology(name)


topology_names = st.sampled_from(TOPOLOGIES)
seeds = st.integers(min_value=0, max_value=500)


class TestPlacementIdentity:
    @given(random_circuits(max_qubits=5, max_gates=24), topology_names, seeds)
    @settings(max_examples=60, deadline=None)
    def test_matches_reference(self, circuit, name, seed):
        topology = _topology(name)
        subset = sample_connected_subset(topology, circuit.num_qubits, seed)
        assert initial_placement(circuit, topology, subset) == \
            initial_placement_reference(circuit, topology, subset)

    @given(random_circuits(max_qubits=4, max_gates=16), seeds)
    @settings(max_examples=30, deadline=None)
    def test_matches_reference_on_oversized_subsets(self, circuit, seed):
        # Subsets wider than the circuit leave free nodes at the end —
        # the tie-break path (zero-cost candidates) must stay identical.
        topology = grid_topology(4, 4)
        subset = sample_connected_subset(
            topology, min(circuit.num_qubits + 3, 16), seed)
        assert initial_placement(circuit, topology, subset) == \
            initial_placement_reference(circuit, topology, subset)

    @given(random_circuits(max_qubits=5, max_gates=24), topology_names,
           seeds, st.integers(min_value=0, max_value=6))
    @settings(max_examples=60, deadline=None)
    def test_matches_reference_on_unsorted_subsets(self, circuit, name,
                                                   seed, extra):
        # Arbitrary distinct nodes in arbitrary order, not necessarily
        # connected, up to ``extra`` wider than the circuit.
        topology = _topology(name)
        rng = np.random.default_rng(seed)
        subset = rng.choice(topology.num_qubits,
                            size=circuit.num_qubits + extra,
                            replace=False).tolist()
        assert initial_placement(circuit, topology, subset) == \
            initial_placement_reference(circuit, topology, subset)


class TestRouterIdentity:
    @given(random_circuits(max_qubits=5, max_gates=24), topology_names, seeds)
    @settings(max_examples=60, deadline=None)
    def test_matches_reference(self, circuit, name, seed):
        topology = _topology(name)
        subset = sample_connected_subset(topology, circuit.num_qubits, seed)
        mapping = initial_placement(circuit, topology, subset)
        ref_circ, ref_final, ref_swaps = route_reference(
            circuit, topology, dict(mapping))
        vec_arrays, vec_final, vec_swaps = route_basic_arrays(
            circuit, topology, dict(mapping))
        assert vec_swaps == ref_swaps
        assert vec_final == ref_final
        assert vec_arrays.to_circuit().gates == ref_circ.gates

    @given(random_circuits(max_qubits=5, max_gates=24), seeds)
    @settings(max_examples=30, deadline=None)
    def test_array_schedule_matches_decoded(self, circuit, seed):
        # The column-array ASAP schedule the mapped pipeline uses must
        # equal scheduling the decoded circuit gate for gate.
        topology = grid_topology(4, 4)
        subset = sample_connected_subset(topology, circuit.num_qubits, seed)
        mapping = initial_placement(circuit, topology, subset)
        arrays, _, _ = route_basic_arrays(circuit, topology, mapping)
        basis = transpile_arrays(arrays)
        assert basis.asap_schedule() == asap_schedule(basis.to_circuit())


class TestProtocolCoverage:
    def test_fifty_seeds_cover_small_paper_chips(self):
        # Sec. VI-A: the 50-subset batch must cover the whole chip.
        # Every <=50-qubit paper topology is covered exactly because
        # seeds cycle distinct start nodes of one fixed permutation.
        for name in ("grid-25", "falcon-27", "aspen11-40"):
            topology = get_topology(name)
            covered = set()
            for seed in range(50):
                covered.update(sample_connected_subset(topology, 4,
                                                       seed=seed))
            assert covered == set(range(topology.num_qubits)), name

    def test_start_nodes_distinct_within_one_cycle(self):
        # Each seed's subset contains its start node, and the first n
        # seeds walk the full fixed permutation: singleton subsets
        # enumerate every node exactly once per cycle.
        topology = grid_topology(4, 4)
        starts = [sample_connected_subset(topology, 1, seed=s)[0]
                  for s in range(16)]
        assert sorted(starts) == list(range(16))
        # The cycle repeats deterministically after n seeds.
        assert starts[0] == sample_connected_subset(topology, 1, seed=16)[0]

    @given(seeds)
    @settings(max_examples=25, deadline=None)
    def test_growth_stays_connected_and_sized(self, seed):
        import networkx as nx
        topology = _topology("falcon-27")
        subset = sample_connected_subset(topology, 8, seed)
        assert len(subset) == 8
        assert nx.is_connected(topology.graph.subgraph(subset))

"""Suite-batched compile + lazy MappedCircuit decode contracts.

Three pinned behaviours of the fully-columnar pipeline:

* ``map_suite_arrays`` (and therefore ``evaluation_mappings``) is
  bit-identical to a per-seed ``map_circuit`` loop — same gate columns,
  mappings, swap counts, and schedules for every seed;
* ``map_circuit`` performs **zero** eager ``Gate`` materialisation:
  decoding happens only on explicit ``physical_circuit`` access, once,
  and is memoized;
* the ``router`` argument is validated at entry with a choice-listing
  error on every public entry point.
"""

import pickle

import numpy as np
import pytest

from repro.circuits.batch import ArrayCircuit
from repro.circuits.library import get_benchmark
from repro.circuits.mapping import (
    ROUTER_CHOICES,
    evaluation_mappings,
    map_circuit,
    map_suite_arrays,
)
from repro.devices.topology import get_topology


def _assert_identical(a, b):
    assert a.initial_mapping == b.initial_mapping
    assert a.final_mapping == b.final_mapping
    assert a.swap_count == b.swap_count
    assert a.schedule.total_ns == b.schedule.total_ns
    pa, pb = a.physical_arrays, b.physical_arrays
    np.testing.assert_array_equal(pa.codes, pb.codes)
    np.testing.assert_array_equal(pa.q0, pb.q0)
    np.testing.assert_array_equal(pa.q1, pb.q1)
    assert pa.params.tobytes() == pb.params.tobytes()


class TestSuiteBatchedIdentity:
    @pytest.mark.parametrize("bench,topo,router", [
        ("bv-9", "grid-25", "basic"),
        ("qaoa-9", "grid-25", "sabre"),
        ("ghz-16", "falcon-27", "basic"),
    ])
    def test_matches_per_seed_loop(self, bench, topo, router):
        circuit = get_benchmark(bench)
        topology = get_topology(topo)
        batched = map_suite_arrays(circuit, topology, num_mappings=8,
                                   base_seed=3, router=router)
        assert len(batched) == 8
        for k, suite_mapped in enumerate(batched):
            solo = map_circuit(circuit, topology, seed=3 + k, router=router)
            _assert_identical(suite_mapped, solo)

    def test_evaluation_mappings_delegates(self):
        circuit = get_benchmark("bv-9")
        topology = get_topology("grid-25")
        a = evaluation_mappings(circuit, topology, num_mappings=4)
        b = map_suite_arrays(circuit, topology, num_mappings=4)
        for x, y in zip(a, b):
            _assert_identical(x, y)

    def test_empty_suite(self):
        circuit = get_benchmark("bv-9")
        topology = get_topology("grid-25")
        assert map_suite_arrays(circuit, topology, num_mappings=0) == []


class TestZeroEagerDecode:
    def test_map_circuit_never_decodes(self, monkeypatch):
        def boom(self):
            raise AssertionError("eager Gate materialisation in map_circuit")
        monkeypatch.setattr(ArrayCircuit, "to_circuit", boom)
        mapped = map_circuit(get_benchmark("bv-9"), get_topology("grid-25"))
        assert mapped.physical_arrays is not None
        assert mapped._physical_circuit is None
        # columnar consumers stay decode-free too
        mapped.timed_gate_totals()
        mapped.two_qubit_counts()
        assert mapped.active_qubit_mask is not None

    def test_decode_is_lazy_and_memoized(self):
        mapped = map_circuit(get_benchmark("bv-9"), get_topology("grid-25"))
        assert mapped._physical_circuit is None
        first = mapped.physical_circuit
        assert mapped._physical_circuit is first
        assert mapped.physical_circuit is first
        assert first.gates == mapped.physical_arrays.to_circuit().gates

    def test_pickle_drops_decode_memo(self):
        mapped = map_circuit(get_benchmark("bv-9"), get_topology("grid-25"))
        gates = mapped.physical_circuit.gates
        back = pickle.loads(pickle.dumps(mapped))
        assert back._physical_circuit is None
        assert back.physical_circuit.gates == gates


class TestRouterValidation:
    def test_choices_constant(self):
        assert ROUTER_CHOICES == ("basic", "sabre")

    @pytest.mark.parametrize("entry", ["map_circuit", "map_suite_arrays",
                                       "evaluation_mappings"])
    def test_unknown_router_lists_choices(self, entry):
        circuit = get_benchmark("bv-9")
        topology = get_topology("grid-25")
        fn = {"map_circuit": map_circuit,
              "map_suite_arrays": map_suite_arrays,
              "evaluation_mappings": evaluation_mappings}[entry]
        with pytest.raises(ValueError, match="router.*basic.*sabre"):
            fn(circuit, topology, router="magic")

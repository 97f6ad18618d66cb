"""Suite-batched compile + lazy MappedCircuit decode contracts.

Pinned behaviours of the fully-columnar pipeline:

* ``map_suite_arrays`` (and therefore ``evaluation_mappings``) is
  bit-identical to a per-seed ``map_circuit`` loop — same gate columns,
  mappings, swap counts, and schedules for every seed — at every
  transpile chunk budget, and no transpile call exceeds the budget
  unless it holds a single seed;
* the suite compile books its stages to profiler phases that cover
  its wall time;
* ``map_circuit`` performs **zero** eager ``Gate`` materialisation:
  decoding happens only on explicit ``physical_circuit`` access, once,
  and is memoized;
* the ``router`` argument is validated at entry with a choice-listing
  error on every public entry point.
"""

import functools
import pickle
import time

import numpy as np
import pytest

from repro import profiling
from repro.circuits import mapping
from repro.circuits.batch import _T_LEN, ArrayCircuit
from repro.circuits.library import get_benchmark
from repro.circuits.mapping import (
    ROUTER_CHOICES,
    evaluation_mappings,
    map_circuit,
    map_suite_arrays,
)
from repro.devices.topology import get_topology
from repro.workloads import get_workload


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


#: Chunk-invariance suites on eagle-127: (workload, seeds).  At the
#: default budget qft-32 puts every seed in its own chunk, qft-16 packs
#: a few seeds per chunk over several chunks, and bv-9 fits one chunk.
CHUNK_SUITES = (("qft-32", 3), ("qft-16", 8), ("bv-9", 8))
CHUNK_TOPOLOGY = "eagle-127"
CHUNK_BASE_SEED = 11


@functools.lru_cache(maxsize=None)
def _per_seed(bench, router, num_mappings):
    circuit = get_workload(bench)
    topology = get_topology(CHUNK_TOPOLOGY)
    return tuple(map_circuit(circuit, topology, seed=CHUNK_BASE_SEED + k,
                             router=router)
                 for k in range(num_mappings))


def _record_transpile_inputs(monkeypatch):
    """Spy on the suite compile's transpile calls: input circuits."""
    inputs = []
    real = mapping.transpile_arrays

    def spy(circuit, **kwargs):
        inputs.append(circuit)
        return real(circuit, **kwargs)

    monkeypatch.setattr(mapping, "transpile_arrays", spy)
    return inputs


class TestChunkInvariance:
    @pytest.mark.parametrize("router", ROUTER_CHOICES)
    @pytest.mark.parametrize("budget", [1, mapping.SUITE_CHUNK_ROWS, 10**12])
    @pytest.mark.parametrize("bench,num_mappings", CHUNK_SUITES)
    def test_matches_per_seed_loop(self, monkeypatch, bench, num_mappings,
                                   budget, router):
        monkeypatch.setattr(mapping, "SUITE_CHUNK_ROWS", budget)
        suite = map_suite_arrays(get_workload(bench),
                                 get_topology(CHUNK_TOPOLOGY),
                                 num_mappings=num_mappings,
                                 base_seed=CHUNK_BASE_SEED, router=router)
        solo = _per_seed(bench, router, num_mappings)
        assert len(suite) == num_mappings
        for a, b in zip(suite, solo):
            _assert_identical(a, b)

    @pytest.mark.parametrize("bench,num_mappings,chunked,packed", [
        ("qft-32", 3, True, False),
        ("qft-16", 8, True, True),
        ("bv-9", 8, False, True),
    ])
    def test_default_budget_chunk_shapes(self, monkeypatch, bench,
                                         num_mappings, chunked, packed):
        """The invariance suites span the chunk shapes they claim."""
        inputs = _record_transpile_inputs(monkeypatch)
        n_phys = get_topology(CHUNK_TOPOLOGY).num_qubits
        map_suite_arrays(get_workload(bench), get_topology(CHUNK_TOPOLOGY),
                         num_mappings=num_mappings,
                         base_seed=CHUNK_BASE_SEED)
        seeds = [c.num_qubits // n_phys for c in inputs]
        assert sum(seeds) == num_mappings
        assert (len(seeds) > 1) == chunked
        assert (max(seeds) > 1) == packed

    @pytest.mark.parametrize("budget", [1, 4096, mapping.SUITE_CHUNK_ROWS])
    def test_transpile_calls_within_budget(self, monkeypatch, budget):
        monkeypatch.setattr(mapping, "SUITE_CHUNK_ROWS", budget)
        inputs = _record_transpile_inputs(monkeypatch)
        topology = get_topology(CHUNK_TOPOLOGY)
        for bench, num_mappings in CHUNK_SUITES:
            del inputs[:]
            map_suite_arrays(get_workload(bench), topology,
                             num_mappings=num_mappings,
                             base_seed=CHUNK_BASE_SEED)
            seeds = [c.num_qubits // topology.num_qubits for c in inputs]
            assert sum(seeds) == num_mappings
            for circuit, n in zip(inputs, seeds):
                rows = int(_T_LEN[circuit.codes].sum())
                assert rows <= budget or n == 1, (bench, rows, n)


class TestCompilePhases:
    PHASES = ("subsets", "placement", "route", "transpile", "schedule")
    TRANSPILE = ("stack", "lower", "cancel", "merge", "split")

    def test_phases_cover_the_call(self):
        circuit = get_workload("qft-16")
        topology = get_topology(CHUNK_TOPOLOGY)
        evaluation_mappings(circuit, topology, num_mappings=2)  # warm
        with profiling.PhaseProfiler() as prof:
            start = time.perf_counter()
            evaluation_mappings(circuit, topology, num_mappings=20)
            wall = time.perf_counter() - start
        top = {path for path in prof.seconds if "/" not in path}
        nested = set(prof.seconds) - top
        assert top == set(self.PHASES)
        # qft-16 never cancels a pair, so it runs no later merge round.
        assert nested == {f"transpile/{name}" for name in self.TRANSPILE
                          if name != "merge"}
        assert prof.calls["subsets"] == prof.calls["route"] == 1
        assert prof.calls["transpile"] == prof.calls["schedule"] > 1
        assert prof.calls["transpile/lower"] == prof.calls["transpile"]
        assert prof.top_level_seconds() >= 0.95 * wall
        inner = sum(prof.seconds[path] for path in nested)
        assert inner >= 0.95 * prof.seconds["transpile"]

    def test_map_circuit_books_its_tail(self):
        with profiling.PhaseProfiler() as prof:
            map_circuit(get_benchmark("bv-9"), get_topology("grid-25"))
        top = {path for path in prof.seconds if "/" not in path}
        assert top == {"transpile", "schedule"}
        assert "transpile/lower" in prof.seconds
        assert "transpile/stack" not in prof.seconds


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

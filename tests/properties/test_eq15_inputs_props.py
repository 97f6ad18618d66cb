"""Property tests: the stored Eq. 15 inputs and the radix stream sort.

Two contracts:

* every :class:`~repro.circuits.mapping.MappedCircuit` the compile
  pipeline returns stores its activity mask, coupler keys and timed
  gate totals once; they equal the scans of the mapping's own
  ``physical_arrays`` and the loops over its decoded ``Gate`` list,
  for one-seed and multi-seed transpile chunks and both routers, and
  the stored arrays are read-only (also after a pickle round trip);
* ``batch._stream_incidence`` (a stable sort on the narrowed qubit
  column) returns the same ``(gate, qubit, slot)`` columns as one
  argsort of the packed ``qubit * n + gate`` key, also past the 16-bit
  qubit range.
"""

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits.batch import ArrayCircuit, _stream_incidence
from repro.circuits.library import get_benchmark
from repro.circuits.mapping import map_suite_arrays
from repro.devices.topology import grid_topology
from tests.oracles.circuit import used_pairs, used_qubits

from .test_transpile_props import random_circuits


def _decoded_inputs(mapped):
    """The Eq. 15 inputs by loops over the decoded ``Gate`` list."""
    circuit = mapped.physical_arrays.to_circuit()
    n = circuit.num_qubits
    mask = np.zeros(n, dtype=bool)
    mask[sorted(used_qubits(circuit))] = True
    keys = sorted(a * n + b for a, b in used_pairs(circuit))
    single = sum(1 for g in circuit.gates if g.name in ("sx", "x"))
    two = sum(1 for g in circuit.gates if g.is_two_qubit)
    return mask, keys, (single, two)


class TestStoredInputs:
    @given(random_circuits(max_qubits=5, max_gates=24),
           st.sampled_from((1, 4)), st.sampled_from(("basic", "sabre")),
           st.integers(min_value=0, max_value=500))
    @settings(max_examples=40, deadline=None)
    def test_equal_scans_and_decoded_loops(self, circuit, num, router,
                                           seed):
        topology = grid_topology(4, 4)
        maps = map_suite_arrays(circuit, topology, num_mappings=num,
                                base_seed=seed, router=router)
        assert len(maps) == num
        for mapped in maps:
            arrays = mapped.physical_arrays
            assert np.array_equal(mapped.active_qubit_mask,
                                  arrays.used_qubit_mask())
            assert np.array_equal(mapped.active_pair_keys,
                                  arrays.used_pair_keys())
            assert mapped.timed_gate_totals() == arrays.timed_gate_totals()
            mask, keys, totals = _decoded_inputs(mapped)
            assert np.array_equal(mapped.active_qubit_mask, mask)
            assert mapped.active_pair_keys.tolist() == keys
            assert mapped.timed_gate_totals() == totals

    @pytest.mark.parametrize("protocol", [4, pickle.HIGHEST_PROTOCOL])
    def test_stored_arrays_are_read_only(self, protocol):
        (mapped,) = map_suite_arrays(get_benchmark("bv-4"),
                                     grid_topology(4, 4), num_mappings=1)
        loaded = pickle.loads(pickle.dumps(mapped, protocol=protocol))
        for m in (mapped, loaded):
            with pytest.raises(ValueError):
                m.active_qubit_mask[0] = True
            with pytest.raises(ValueError):
                m.active_pair_keys[:] = 0
        assert np.array_equal(loaded.active_qubit_mask,
                              mapped.active_qubit_mask)
        assert np.array_equal(loaded.active_pair_keys,
                              mapped.active_pair_keys)
        assert loaded.timed_gate_totals() == mapped.timed_gate_totals()


def _packed_key_incidence(circuit: ArrayCircuit):
    """The packed-key oracle: one argsort of ``qubit * n + gate``."""
    n = circuit.codes.shape[0]
    second = np.nonzero(circuit.q1 >= 0)[0]
    inc_gate = np.concatenate((np.arange(n), second))
    inc_qubit = np.concatenate((circuit.q0, circuit.q1[second]))
    order = np.argsort(inc_qubit * n + inc_gate)
    return inc_gate[order], inc_qubit[order], order >= n


@st.composite
def column_circuits(draw):
    """A few gates on registers around the 8- and 16-bit key widths."""
    num_qubits = draw(st.sampled_from((2, 5, 40, 255, 256, 300,
                                       (1 << 15) + 3, (1 << 16) + 9,
                                       1 << 17)))
    qubits = st.integers(min_value=0, max_value=num_qubits - 1)
    num_gates = draw(st.integers(min_value=0, max_value=30))
    q0, q1 = [], []
    for _ in range(num_gates):
        a = draw(qubits)
        q0.append(a)
        q1.append(draw(st.one_of(st.just(-1),
                                 qubits.filter(lambda b, a=a: b != a))))
    return ArrayCircuit(num_qubits=num_qubits,
                        codes=np.zeros(num_gates, dtype=np.int64),
                        q0=np.array(q0, dtype=np.int64),
                        q1=np.array(q1, dtype=np.int64),
                        params=np.zeros(num_gates))


class TestStreamIncidence:
    @given(column_circuits())
    @settings(max_examples=150, deadline=None)
    def test_matches_packed_key_oracle(self, circuit):
        got = _stream_incidence(circuit)
        want = _packed_key_incidence(circuit)
        for a, b in zip(got, want):
            assert a.dtype == b.dtype
            assert np.array_equal(a, b)

    @pytest.mark.parametrize("num_qubits", [(1 << 15) + 1, (1 << 16) + 1])
    def test_top_qubits_past_16_bits(self, num_qubits):
        top = num_qubits - 1
        circuit = ArrayCircuit(
            num_qubits=num_qubits,
            codes=np.zeros(4, dtype=np.int64),
            q0=np.array([top, 0, top - 1, 1], dtype=np.int64),
            q1=np.array([0, top, -1, top], dtype=np.int64),
            params=np.zeros(4))
        got = _stream_incidence(circuit)
        for a, b in zip(got, _packed_key_incidence(circuit)):
            assert np.array_equal(a, b)
        assert got[1].tolist() == [0, 0, 1, top - 1, top, top, top]

"""Identity of the bincount gate statistics vs the Gate-list loops.

The columnar scans (``ArrayCircuit.used_qubits/used_pairs/
two_qubit_counts/single_qubit_counts/gate_counts_per_qubit``) must be
value-identical to iterating the decoded circuit's ``Gate`` objects —
that is what lets :class:`~repro.circuits.mapping.MappedCircuit`
consumers (the Eq. 15 gate factor) never materialise gate lists.
"""

from __future__ import annotations

from collections import Counter

import numpy as np
import pytest

from repro.circuits.batch import ArrayCircuit, transpile_arrays
from repro.circuits.circuit import QuantumCircuit
from repro.circuits.library import PAPER_BENCHMARKS, get_benchmark
from repro.circuits.mapping import map_circuit
from repro.devices.topology import get_topology


def _loop_two_qubit_counts(circuit: QuantumCircuit):
    counts = Counter()
    for g in circuit.gates:
        if g.is_two_qubit:
            a, b = g.qubits
            counts[(min(a, b), max(a, b))] += 1
    return dict(counts)


def _loop_single_qubit_counts(circuit: QuantumCircuit):
    counts = Counter()
    for g in circuit.gates:
        if g.name in ("sx", "x"):
            counts[g.qubits[0]] += 1
    return dict(counts)


def _assert_all_counts_identical(arrays: ArrayCircuit,
                                 circuit: QuantumCircuit) -> None:
    assert arrays.used_qubits() == circuit.used_qubits()
    assert arrays.used_pairs() == circuit.used_pairs()
    assert arrays.two_qubit_counts() == _loop_two_qubit_counts(circuit)
    assert arrays.single_qubit_counts() == _loop_single_qubit_counts(circuit)
    assert arrays.gate_counts_per_qubit() == circuit.gate_counts_per_qubit()
    assert arrays.timed_gate_totals() == (
        sum(_loop_single_qubit_counts(circuit).values()),
        sum(_loop_two_qubit_counts(circuit).values()))


class TestArrayCircuitCounts:
    @pytest.mark.parametrize("bench", PAPER_BENCHMARKS)
    def test_identity_on_paper_benchmarks(self, bench):
        circuit = get_benchmark(bench)
        arrays = ArrayCircuit.from_circuit(circuit)
        _assert_all_counts_identical(arrays, circuit)

    @pytest.mark.parametrize("bench", ["bv-16", "qaoa-9"])
    def test_identity_after_transpile(self, bench):
        arrays = transpile_arrays(
            ArrayCircuit.from_circuit(get_benchmark(bench)))
        _assert_all_counts_identical(arrays, arrays.to_circuit())

    def test_empty_circuit(self):
        arrays = ArrayCircuit.empty(5)
        assert arrays.used_qubits() == set()
        assert arrays.used_pairs() == set()
        assert arrays.two_qubit_counts() == {}
        assert arrays.single_qubit_counts() == {}
        assert arrays.gate_counts_per_qubit() == {}
        assert arrays.timed_gate_totals() == (0, 0)

    def test_ir_gates_with_every_code(self):
        """Mixed IR codes (not just the basis) count identically."""
        circuit = QuantumCircuit(4)
        circuit.h(0).cx(0, 1).rzz(1, 2, 0.5).swap(2, 3).rx(3, 0.25)
        circuit.ry(0, 0.75).rz(1, 0.1).sx(2).x(3).cz(0, 3)
        arrays = ArrayCircuit.from_circuit(circuit)
        _assert_all_counts_identical(arrays, circuit)


class TestMappedCircuitCounts:
    @pytest.fixture(scope="class")
    def mapped(self):
        return map_circuit(get_benchmark("bv-16"),
                           get_topology("falcon-27"), seed=2)

    def test_map_circuit_carries_arrays(self, mapped):
        assert mapped.physical_arrays is not None
        assert mapped.physical_arrays.size == len(
            mapped.physical_circuit.gates)

    def test_array_backed_matches_loop_backed(self, mapped):
        _assert_all_counts_identical(mapped.physical_arrays,
                                     mapped.physical_circuit)

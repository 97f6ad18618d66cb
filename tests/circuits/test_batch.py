"""Unit tests for the batched (array-based) transpile engine."""

import math

import numpy as np
import pytest

from repro.circuits.batch import (ArrayCircuit, cancel_pairs_arrays,
                                  lower_to_basis_arrays, merge_rz_arrays,
                                  transpile_arrays, transpile_batched)
from repro.circuits.circuit import QuantumCircuit
from repro.circuits.gates import Gate
from repro.circuits.library import all_paper_benchmarks
from repro.circuits.transpile import (cancel_pairs, lower_to_basis, merge_rz,
                                      transpile)

from .util_sim import circuit_unitary, unitaries_equal_up_to_phase


def assert_same_gates(a: QuantumCircuit, b: QuantumCircuit) -> None:
    assert a.num_qubits == b.num_qubits
    assert a.gates == b.gates


class TestArrayCircuit:
    def test_round_trip(self):
        qc = QuantumCircuit(3)
        qc.h(0).cx(0, 1).rzz(1, 2, 0.7).rz(2, -1.2).swap(0, 2).x(1).sx(2)
        back = ArrayCircuit.from_circuit(qc).to_circuit()
        assert_same_gates(qc, back)

    def test_rejects_barriers(self):
        qc = QuantumCircuit(2)
        qc.h(0).barrier().cx(0, 1)
        with pytest.raises(ValueError, match="batched"):
            ArrayCircuit.from_circuit(qc)

    def test_empty(self):
        qc = QuantumCircuit(2)
        arrays = ArrayCircuit.from_circuit(qc)
        assert arrays.size == 0
        assert arrays.to_circuit().gates == []

    def test_decode_interns_repeats(self):
        qc = QuantumCircuit(2)
        for _ in range(5):
            qc.sx(0)
        gates = ArrayCircuit.from_circuit(qc).to_circuit().gates
        assert all(g is gates[0] for g in gates)


class TestPassEquivalence:
    """Each array pass reproduces its legacy counterpart exactly."""

    def _random_circuit(self, rng, num_qubits=5, num_gates=60):
        qc = QuantumCircuit(num_qubits)
        one_q = ["rz", "sx", "x", "h", "rx", "ry"]
        two_q = ["cz", "cx", "rzz", "swap"]
        for _ in range(num_gates):
            if rng.random() < 0.55:
                name = one_q[int(rng.integers(len(one_q)))]
                q = int(rng.integers(num_qubits))
                params = ((float(rng.uniform(-7, 7)),)
                          if name in ("rz", "rx", "ry") else ())
                qc.append(Gate(name, (q,), params))
            else:
                name = two_q[int(rng.integers(len(two_q)))]
                a, b = rng.choice(num_qubits, size=2, replace=False)
                params = ((float(rng.uniform(-7, 7)),)
                          if name == "rzz" else ())
                qc.append(Gate(name, (int(a), int(b)), params))
        return qc

    def test_lowering_matches_legacy(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            qc = self._random_circuit(rng)
            arrays = lower_to_basis_arrays(ArrayCircuit.from_circuit(qc))
            assert_same_gates(lower_to_basis(qc), arrays.to_circuit())

    def test_merge_rz_matches_legacy(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            qc = lower_to_basis(self._random_circuit(rng))
            arrays = merge_rz_arrays(ArrayCircuit.from_circuit(qc))
            assert_same_gates(merge_rz(qc), arrays.to_circuit())

    def test_cancel_pairs_matches_legacy(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            qc = lower_to_basis(self._random_circuit(rng))
            arrays = cancel_pairs_arrays(ArrayCircuit.from_circuit(qc))
            assert_same_gates(cancel_pairs(qc), arrays.to_circuit())

    @pytest.mark.parametrize("level", [0, 1, 2, 3])
    def test_transpile_matches_legacy_all_levels(self, level):
        rng = np.random.default_rng(6)
        for _ in range(10):
            qc = self._random_circuit(rng)
            assert_same_gates(transpile(qc, level),
                              transpile_batched(qc, level))


class TestCancellationSemantics:
    """The crafted sequences the legacy pass is defined by."""

    def _run(self, qc):
        return cancel_pairs_arrays(ArrayCircuit.from_circuit(qc)).to_circuit()

    def test_xx_cancels(self):
        qc = QuantumCircuit(1)
        qc.x(0).x(0)
        assert self._run(qc).gates == []

    def test_sx_sx_fuses_to_x(self):
        qc = QuantumCircuit(1)
        qc.sx(0).sx(0)
        assert [g.name for g in self._run(qc).gates] == ["x"]

    def test_cz_cz_cancels_same_orientation_only(self):
        qc = QuantumCircuit(2)
        qc.cz(0, 1).cz(0, 1)
        assert self._run(qc).gates == []
        qc = QuantumCircuit(2)
        qc.cz(0, 1).cz(1, 0)
        assert len(self._run(qc).gates) == 2

    def test_intervening_gate_blocks_cancellation(self):
        qc = QuantumCircuit(2)
        qc.x(0).cz(0, 1).x(0)
        assert len(self._run(qc).gates) == 3

    def test_no_chain_through_cancelled_pair(self):
        # sx x x sx: the x pair cancels but the sx's must NOT fuse in
        # the same pass (the legacy pass pops the stream pointer).
        qc = QuantumCircuit(1)
        qc.sx(0).x(0).x(0).sx(0)
        names = [g.name for g in self._run(qc).gates]
        assert names == ["sx", "sx"]

    def test_fusion_chains_into_cancellation(self):
        # x sx sx x: the sx pair fuses to x in place, and THAT x then
        # cancels with the trailing x — one surviving leading x.  The
        # candidate filter must treat mixed x/sx neighbours as
        # cancellation-relevant or this chain is missed.
        qc = QuantumCircuit(1)
        qc.x(0).sx(0).sx(0).x(0)
        names = [g.name for g in self._run(qc).gates]
        assert names == ["x"]

    def test_non_candidate_gate_is_stream_barrier(self):
        # rz never cancels, but it still severs the stream between the
        # two x's — they must not pair across it.
        qc = QuantumCircuit(1)
        qc.x(0).rz(0, 0.5).x(0)
        names = [g.name for g in self._run(qc).gates]
        assert names == ["x", "rz", "x"]

    def test_cz_chain_cancels_pairwise(self):
        # cz cz cz cz on one edge: pairs (0,1) and (2,3) cancel; an odd
        # trailing cz survives.
        qc = QuantumCircuit(2)
        qc.cz(0, 1).cz(0, 1).cz(0, 1).cz(0, 1)
        assert self._run(qc).gates == []
        qc = QuantumCircuit(2)
        qc.cz(0, 1).cz(0, 1).cz(0, 1)
        assert len(self._run(qc).gates) == 1

    def test_partner_stream_barrier_blocks_cz(self):
        # An x on qubit 1 between the cz's severs qubit 1's stream, so
        # the cz pair must not cancel even though qubit 0's stream is
        # uninterrupted.
        qc = QuantumCircuit(2)
        qc.cz(0, 1).x(1).cz(0, 1)
        assert len(self._run(qc).gates) == 3


class TestSemantics:
    """Batched output is unitarily equivalent to the input circuit."""

    def test_paper_benchmarks_small(self):
        for circuit in all_paper_benchmarks():
            if circuit.num_qubits > 4:
                continue
            batched = transpile_batched(circuit)
            assert unitaries_equal_up_to_phase(
                circuit_unitary(batched), circuit_unitary(circuit))

    def test_barrier_rejected(self):
        qc = QuantumCircuit(3)
        qc.h(0).barrier().cx(0, 1).rx(2, 0.4)
        with pytest.raises(ValueError, match="'barrier' not supported"):
            transpile_batched(qc)

    def test_invalid_level(self):
        qc = QuantumCircuit(2)
        qc.h(0)
        with pytest.raises(ValueError):
            transpile_batched(qc, optimization_level=5)
        with pytest.raises(ValueError):
            transpile_arrays(ArrayCircuit.from_circuit(qc),
                             optimization_level=-1)

    def test_merge_rz_drops_full_turns(self):
        qc = QuantumCircuit(1)
        qc.rz(0, math.pi).rz(0, math.pi)
        merged = merge_rz_arrays(ArrayCircuit.from_circuit(qc)).to_circuit()
        assert merged.gates == []

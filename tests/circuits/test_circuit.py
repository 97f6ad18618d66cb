"""Unit tests for the circuit container and scheduling."""

import pytest

from repro import constants
from repro.circuits.batch import ArrayCircuit
from repro.circuits.circuit import QuantumCircuit
from tests.oracles.circuit import (asap_schedule, copy_circuit, count_ops,
                                   gate_counts_per_qubit, remap_circuit,
                                   used_pairs, used_qubits)


def schedule(qc, **durations):
    """The oracle schedule, checked against the columnar one."""
    expected = asap_schedule(qc, **durations)
    if all(g.name != "barrier" for g in qc.gates):
        columnar = ArrayCircuit.from_circuit(qc).asap_schedule(**durations)
        assert columnar == expected
    return expected


class TestConstruction:
    def test_requires_positive_width(self):
        with pytest.raises(ValueError):
            QuantumCircuit(0)

    def test_fluent_builders(self):
        qc = QuantumCircuit(2).h(0).cx(0, 1).rz(1, 0.3)
        assert qc.size == 3

    def test_out_of_range_qubit_rejected(self):
        qc = QuantumCircuit(2)
        with pytest.raises(ValueError):
            qc.x(2)

    def test_extend(self):
        src = QuantumCircuit(2).h(0).cz(0, 1)
        dst = QuantumCircuit(2).extend(src.gates)
        assert dst.size == 2


class TestStatistics:
    def make(self):
        return QuantumCircuit(3).h(0).cx(0, 1).cx(1, 2).rz(2, 0.5).barrier()

    def test_count_ops_excludes_barriers(self):
        ops = count_ops(self.make())
        assert ops == {"h": 1, "cx": 2, "rz": 1}

    def test_two_qubit_count(self):
        assert self.make().two_qubit_gate_count == 2

    def test_used_qubits(self):
        qc = QuantumCircuit(5).h(0).cx(0, 3)
        assert used_qubits(qc) == {0, 3}

    def test_used_pairs_canonical(self):
        qc = QuantumCircuit(3).cx(2, 0).cz(0, 2)
        assert used_pairs(qc) == {(0, 2)}

    def test_gate_counts_per_qubit(self):
        counts = gate_counts_per_qubit(self.make())
        assert counts[1]["cx"] == 2
        assert counts[0]["h"] == 1

    def test_depth_serial_vs_parallel(self):
        serial = QuantumCircuit(1).x(0).x(0).x(0)
        parallel = QuantumCircuit(3).x(0).x(1).x(2)
        assert serial.depth() == 3
        assert parallel.depth() == 1

    def test_depth_two_qubit_sync(self):
        qc = QuantumCircuit(2).x(0).cz(0, 1).x(1)
        assert qc.depth() == 3


class TestSchedule:
    def test_rz_is_free(self):
        qc = QuantumCircuit(1).rz(0, 1.0).rz(0, 2.0)
        assert schedule(qc).total_ns == 0.0

    def test_single_qubit_duration(self):
        qc = QuantumCircuit(1).x(0).sx(0)
        sched = schedule(qc)
        assert sched.total_ns == pytest.approx(2 * constants.SINGLE_QUBIT_GATE_NS)

    def test_two_qubit_duration(self):
        qc = QuantumCircuit(2).cz(0, 1)
        assert schedule(qc).total_ns == pytest.approx(
            constants.TWO_QUBIT_GATE_NS)

    def test_parallel_gates_overlap(self):
        qc = QuantumCircuit(2).x(0).x(1)
        assert schedule(qc).total_ns == pytest.approx(
            constants.SINGLE_QUBIT_GATE_NS)

    def test_barrier_synchronises(self):
        qc = QuantumCircuit(2)
        qc.x(0)
        qc.barrier()
        qc.x(1)
        sched = schedule(qc)
        assert sched.total_ns == pytest.approx(2 * constants.SINGLE_QUBIT_GATE_NS)

    def test_custom_durations(self):
        qc = QuantumCircuit(2).x(0).cz(0, 1)
        sched = schedule(qc, single_qubit_ns=10, two_qubit_ns=100)
        assert sched.total_ns == pytest.approx(110)


class TestTransforms:
    def test_remapped(self):
        qc = QuantumCircuit(2).cx(0, 1)
        phys = remap_circuit(qc, {0: 4, 1: 2}, num_qubits=5)
        assert phys.gates[0].qubits == (4, 2)
        assert phys.num_qubits == 5

    def test_copy_independent(self):
        qc = QuantumCircuit(1).x(0)
        dup = copy_circuit(qc)
        dup.x(0)
        assert qc.size == 1 and dup.size == 2

    def test_repr(self):
        qc = QuantumCircuit(2, name="demo").h(0)
        assert "demo" in repr(qc)

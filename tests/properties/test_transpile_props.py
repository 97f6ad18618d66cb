"""Property-based tests: the transpiler preserves circuit semantics."""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits.circuit import QuantumCircuit
from repro.circuits.gates import BASIS_GATES, Gate
from tests.oracles.circuit import used_pairs
from tests.oracles.transpile import transpile

from ..circuits.util_sim import circuit_unitary, unitaries_equal_up_to_phase

angles = st.floats(min_value=-2 * math.pi, max_value=2 * math.pi,
                   allow_nan=False)


@st.composite
def random_circuits(draw, max_qubits=3, max_gates=12):
    n = draw(st.integers(min_value=2, max_value=max_qubits))
    qc = QuantumCircuit(n)
    num_gates = draw(st.integers(min_value=0, max_value=max_gates))
    for _ in range(num_gates):
        kind = draw(st.sampled_from(
            ["h", "x", "sx", "rz", "rx", "ry", "cz", "cx", "rzz", "swap"]))
        q1 = draw(st.integers(min_value=0, max_value=n - 1))
        if kind in ("cz", "cx", "rzz", "swap"):
            q2 = draw(st.integers(min_value=0, max_value=n - 1).filter(
                lambda q: q != q1))
            if kind == "rzz":
                qc.append(Gate(kind, (q1, q2), (draw(angles),)))
            else:
                qc.append(Gate(kind, (q1, q2)))
        elif kind in ("rz", "rx", "ry"):
            qc.append(Gate(kind, (q1,), (draw(angles),)))
        else:
            qc.append(Gate(kind, (q1,)))
    return qc


class TestTranspileProperties:
    @given(random_circuits())
    @settings(max_examples=60, deadline=None)
    def test_unitary_preserved_at_l3(self, circuit):
        compiled = transpile(circuit, optimization_level=3)
        assert unitaries_equal_up_to_phase(
            circuit_unitary(circuit), circuit_unitary(compiled), tol=1e-7)

    @given(random_circuits())
    @settings(max_examples=60, deadline=None)
    def test_output_always_in_basis(self, circuit):
        for level in (0, 1, 2, 3):
            compiled = transpile(circuit, optimization_level=level)
            assert all(g.name in BASIS_GATES or g.name == "barrier"
                       for g in compiled.gates)

    @given(random_circuits())
    @settings(max_examples=40, deadline=None)
    def test_optimization_never_grows_circuit(self, circuit):
        lowered = transpile(circuit, optimization_level=0)
        optimised = transpile(circuit, optimization_level=3)
        assert optimised.size <= lowered.size

    @given(random_circuits())
    @settings(max_examples=40, deadline=None)
    def test_two_qubit_interactions_subset(self, circuit):
        # Transpiling never introduces interactions between new pairs.
        compiled = transpile(circuit, optimization_level=3)
        assert used_pairs(compiled) <= used_pairs(circuit)

"""Property tests: workload generator invariants + batched transpiler.

Three contracts:

* every generator honours its declared width/depth and keeps gate
  qubits in range, for arbitrary spec parameters;
* identical specs are bit-reproducible (the process-pool determinism
  the sharded evaluation path relies on);
* the batched transpile engine reproduces the legacy gate sequence —
  hence gate counts and depth — on arbitrary circuits and on the
  ``paper-8`` suite.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits.batch import ArrayCircuit, transpile_arrays
from repro.circuits.gates import BASIS_GATES, TWO_QUBIT_GATES
from repro.workloads import (SUITES, WORKLOAD_FAMILIES, WorkloadSpec,
                             build_workload)
from tests.oracles.circuit import count_ops
from tests.oracles.transpile import transpile

from .test_transpile_props import random_circuits


def transpile_columnar(circuit, optimization_level=3):
    """The columnar pipeline on a ``Gate``-list circuit, decoded back."""
    return transpile_arrays(ArrayCircuit.from_circuit(circuit),
                            optimization_level=optimization_level
                            ).to_circuit()

#: Families with a depth knob whose value lower-bounds circuit depth
#: (each declared layer contributes at least one gate level per wire).
_DEPTH_FAMILIES = ("qaoa", "ising", "qgan", "clifford", "qv", "hhqaoa")

families = st.sampled_from(sorted(WORKLOAD_FAMILIES))
widths = st.integers(min_value=2, max_value=24)
depths = st.integers(min_value=1, max_value=5)
seeds = st.integers(min_value=0, max_value=2 ** 31)


@st.composite
def workload_specs(draw):
    family = draw(families)
    meta = WORKLOAD_FAMILIES[family]
    depth = draw(depths) if meta.supports_depth else None
    return WorkloadSpec(family=family,
                        width=draw(widths),
                        depth=depth,
                        seed=draw(seeds) if meta.randomized else 0)


@given(workload_specs())
@settings(max_examples=60, deadline=None)
def test_generator_invariants(spec):
    circuit = build_workload(spec)
    assert circuit.num_qubits == spec.width
    assert circuit.name == spec.name
    for gate in circuit.gates:
        for q in gate.qubits:
            assert 0 <= q < spec.width
        if gate.name in TWO_QUBIT_GATES:
            assert gate.qubits[0] != gate.qubits[1]


@given(workload_specs())
@settings(max_examples=30, deadline=None)
def test_specs_are_bit_reproducible(spec):
    assert build_workload(spec).gates == build_workload(spec).gates


@given(st.sampled_from(_DEPTH_FAMILIES), widths, depths)
@settings(max_examples=40, deadline=None)
def test_declared_depth_is_honored(family, width, depth):
    shallow = build_workload(WorkloadSpec(family, width, depth=depth))
    assert shallow.depth() >= depth
    deeper = build_workload(WorkloadSpec(family, width, depth=depth + 3))
    assert deeper.size > shallow.size


@given(random_circuits(max_qubits=5, max_gates=40),
       st.sampled_from([0, 1, 2, 3]))
@settings(max_examples=80, deadline=None)
def test_batched_transpiler_matches_legacy(circuit, level):
    legacy = transpile(circuit, optimization_level=level)
    batched = transpile_columnar(circuit, optimization_level=level)
    assert batched.gates == legacy.gates
    assert count_ops(batched) == count_ops(legacy)
    assert batched.depth() == legacy.depth()
    assert all(g.name in BASIS_GATES for g in batched.gates)


def test_batched_transpiler_matches_legacy_on_paper8():
    from repro.circuits.library import all_paper_benchmarks

    for circuit in all_paper_benchmarks():
        legacy = transpile(circuit)
        batched = transpile_columnar(circuit)
        assert batched.gates == legacy.gates
        assert count_ops(batched) == count_ops(legacy)
        assert batched.depth() == legacy.depth()


def test_batched_transpiler_matches_legacy_on_scaled_suite():
    # The eagle-127 suite is the widest set cheap enough for tier-1.
    for spec in SUITES["eagle-127"]:
        circuit = build_workload(spec)
        legacy = transpile(circuit)
        batched = transpile_columnar(circuit)
        assert batched.gates == legacy.gates

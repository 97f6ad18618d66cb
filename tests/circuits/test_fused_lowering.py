"""The fused lowering kernel equals lowering followed by the rz merge.

``lower_to_merged_basis_arrays(c)`` must return exactly
``merge_rz_arrays(lower_to_basis_arrays(c))``: the same code, qubit
and param columns, params compared byte for byte (sign of zero and
NaN included), and the same ``ValueError`` where the composition
raises (a merge group summing to an infinity).  Random IR circuits
draw every gate code and every param on every code.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import profiling
from repro.circuits.batch import (CODE_OF, NAME_OF, RX, RY, RZ, RZZ, SWAP,
                                  TWO_QUBIT_CODES, ArrayCircuit,
                                  lower_to_basis_arrays,
                                  lower_to_merged_basis_arrays,
                                  merge_rz_arrays, transpile_arrays)
from repro.circuits.library import all_paper_benchmarks
from repro.circuits.mapping import (_stack_blocks, initial_placement,
                                    route_basic_arrays,
                                    sample_connected_subset)
from repro.devices.topology import get_topology

# NaN and infinite params warn in numpy's multiply/add on both sides.
pytestmark = pytest.mark.filterwarnings("ignore::RuntimeWarning")

HALF_PI = math.pi / 2
ONE_QUBIT = [c for c in range(len(NAME_OF)) if c not in TWO_QUBIT_CODES]
ALL_CODES = list(range(len(NAME_OF)))


def _columns(num_qubits, gates):
    """An ArrayCircuit from ``(code, q0, q1, param)`` rows."""
    rows = list(gates)
    return ArrayCircuit(
        num_qubits=num_qubits,
        codes=np.array([r[0] for r in rows], dtype=np.int64),
        q0=np.array([r[1] for r in rows], dtype=np.int64),
        q1=np.array([r[2] for r in rows], dtype=np.int64),
        params=np.array([r[3] for r in rows], dtype=np.float64))


def _assert_fused_matches(circuit):
    try:
        expected = merge_rz_arrays(lower_to_basis_arrays(circuit))
    except ValueError:
        with pytest.raises(ValueError):
            lower_to_merged_basis_arrays(circuit)
        return None
    got = lower_to_merged_basis_arrays(circuit)
    assert got.num_qubits == expected.num_qubits
    assert got.name == expected.name
    for column in ("codes", "q0", "q1"):
        assert getattr(got, column).dtype == np.int64
        np.testing.assert_array_equal(getattr(got, column),
                                      getattr(expected, column))
    assert got.params.dtype == np.float64
    assert got.params.tobytes() == expected.params.tobytes()
    return got


# Angles that make merge groups vanish mod 2*pi, cross pi, straddle
# the keep threshold, or poison the fold: multiples of pi/2 and their
# neighbours, tiny angles, signed zeros, NaN and infinities.
special = st.sampled_from([
    0.0, -0.0, HALF_PI, -HALF_PI, math.pi, -math.pi, 2 * math.pi,
    -2 * math.pi, 3 * HALF_PI, -3 * HALF_PI,
    math.nextafter(math.pi, 4.0), math.nextafter(-math.pi, -4.0),
    1e-13, -1e-13, 1e-12, math.nextafter(1e-12, 1.0), -1e-9,
    math.nan, math.inf, -math.inf])
finite = st.floats(min_value=-20.0, max_value=20.0, allow_nan=False)
params = st.one_of(special, finite, finite, st.just(0.0))


@st.composite
def ir_circuits(draw, max_qubits=5, max_gates=30, codes=ALL_CODES,
                param=params):
    n = draw(st.integers(min_value=1, max_value=max_qubits))
    pool = codes if n > 1 else [c for c in codes if c in ONE_QUBIT]
    gates = []
    for _ in range(draw(st.integers(min_value=0, max_value=max_gates))):
        code = draw(st.sampled_from(pool))
        a = draw(st.integers(min_value=0, max_value=n - 1))
        b = -1
        if code in TWO_QUBIT_CODES:
            b = draw(st.integers(min_value=0, max_value=n - 1).filter(
                lambda q: q != a))
        gates.append((code, a, b, draw(param)))
    return _columns(n, gates)


@settings(max_examples=400, deadline=None)
@given(ir_circuits())
def test_matches_composition(circuit):
    _assert_fused_matches(circuit)


@settings(max_examples=200, deadline=None)
@given(ir_circuits(max_qubits=2, max_gates=40,
                   codes=[RZ, RZ, RZ, CODE_OF["h"], RX, RY, RZZ, SWAP],
                   param=st.one_of(special, finite)))
def test_rz_chains_across_gates(circuit):
    _assert_fused_matches(circuit)


@settings(max_examples=100, deadline=None)
@given(ir_circuits(max_gates=20, codes=[RZ]))
def test_rz_only(circuit):
    got = _assert_fused_matches(circuit)
    if got is not None:
        assert set(got.codes.tolist()) <= {RZ}


@settings(max_examples=100, deadline=None)
@given(st.lists(ir_circuits(max_qubits=4, max_gates=15),
                min_size=2, max_size=4))
def test_stacked_blocks(circuits):
    n_phys = max(c.num_qubits for c in circuits)
    _assert_fused_matches(_stack_blocks(circuits, n_phys, "stack"))


def test_empty():
    got = _assert_fused_matches(_columns(3, []))
    assert got.size == 0


@pytest.mark.parametrize("code", ALL_CODES, ids=NAME_OF)
@pytest.mark.parametrize("theta", [0.0, -0.0, 0.7, -2.5, 4.0, math.nan])
def test_one_gate(code, theta):
    b = 1 if code in TWO_QUBIT_CODES else -1
    _assert_fused_matches(_columns(2, [(code, 0, b, theta)]))


def test_vanishing_group_is_dropped():
    # h; rz(-pi); h on one qubit: the middle group pi/2 - pi + pi/2 = 0.
    h = CODE_OF["h"]
    circuit = _columns(1, [(h, 0, -1, 0.0), (RZ, 0, -1, -math.pi),
                           (h, 0, -1, 0.0)])
    got = _assert_fused_matches(circuit)
    assert got.codes.tolist() == [RZ, CODE_OF["sx"], CODE_OF["sx"], RZ]


def test_group_past_pi_takes_the_remainder():
    # h; rz(3); h: the middle group pi/2 + 3 + pi/2 > pi is reduced.
    h = CODE_OF["h"]
    got = _assert_fused_matches(_columns(1, [(h, 0, -1, 0.0),
                                             (RZ, 0, -1, 3.0),
                                             (h, 0, -1, 0.0)]))
    expected = math.remainder((HALF_PI + 3.0) + HALF_PI, 2 * math.pi)
    assert got.params[2] == expected


def test_end_groups_follow_every_gate_in_qubit_order():
    h = CODE_OF["h"]
    circuit = _columns(3, [(RZ, 2, -1, 0.3), (h, 1, -1, 0.0),
                           (CODE_OF["cx"], 0, 1, 0.0), (RZ, 0, -1, 0.2)])
    got = _assert_fused_matches(circuit)
    tail = got.size - 3
    assert got.codes[tail:].tolist() == [RZ] * 3
    assert got.q0[tail:].tolist() == [0, 1, 2]


@pytest.mark.parametrize("theta", [math.inf, -math.inf])
def test_infinite_group_raises(theta):
    with pytest.raises(ValueError):
        merge_rz_arrays(lower_to_basis_arrays(
            _columns(1, [(RZ, 0, -1, theta)])))
    with pytest.raises(ValueError):
        lower_to_merged_basis_arrays(_columns(1, [(RZ, 0, -1, theta)]))


def test_routed_paper_benchmarks():
    topology = get_topology("grid-25")
    for circuit in all_paper_benchmarks():
        subset = sample_connected_subset(topology, circuit.num_qubits, 3)
        mapping = initial_placement(circuit, topology, subset)
        routed, _, _ = route_basic_arrays(circuit, topology, mapping)
        _assert_fused_matches(routed)


def test_transpile_books_its_passes():
    # x x cancels, so a later merge round runs as well.
    x = CODE_OF["x"]
    circuit = _columns(1, [(CODE_OF["h"], 0, -1, 0.0), (x, 0, -1, 0.0),
                           (x, 0, -1, 0.0), (CODE_OF["h"], 0, -1, 0.0)])
    with profiling.PhaseProfiler() as prof:
        transpile_arrays(circuit)
    assert {"lower", "cancel", "merge"} == set(prof.seconds)
    with profiling.PhaseProfiler() as prof:
        transpile_arrays(circuit, optimization_level=0)
    assert set(prof.seconds) == {"lower"}

"""Property-based tests for physics-model invariants."""

from hypothesis import given
from hypothesis import strategies as st

from repro.physics.capacitance import qubit_parasitic_capacitance_ff
from repro.physics.coupling import (
    effective_coupling_ghz,
    qubit_qubit_coupling_ghz,
    smooth_exchange_ghz,
)
from repro.physics.hamiltonian import (
    eigensplitting_ghz,
    excitation_swap_probability,
    worst_case_swap_probability,
)
from repro.physics.resonator_em import resonator_frequency_ghz, resonator_length_mm
from repro.physics.substrate_modes import tm110_frequency_ghz

freqs = st.floats(min_value=3.0, max_value=9.0, allow_nan=False)
couplings = st.floats(min_value=1e-6, max_value=0.1, allow_nan=False)
times = st.floats(min_value=0.0, max_value=1e5, allow_nan=False)
distances = st.floats(min_value=0.0, max_value=5.0, allow_nan=False)


class TestProbabilityBounds:
    @given(freqs, freqs, couplings, times)
    def test_swap_probability_in_unit_interval(self, f1, f2, g, t):
        p = excitation_swap_probability(f1, f2, g, t)
        assert 0.0 <= p <= 1.0 + 1e-12

    @given(freqs, freqs, couplings, times)
    def test_worst_case_dominates(self, f1, f2, g, t):
        worst = worst_case_swap_probability(f1, f2, g, t)
        inst = excitation_swap_probability(f1, f2, g, t)
        assert worst >= inst - 1e-9

    @given(freqs, freqs, couplings)
    def test_worst_case_monotone_in_time(self, f1, f2, g):
        times_sorted = [10.0, 100.0, 1000.0, 10000.0]
        values = [worst_case_swap_probability(f1, f2, g, t)
                  for t in times_sorted]
        assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))


class TestCouplingInvariants:
    @given(freqs, freqs, st.floats(min_value=0, max_value=5))
    def test_coupling_nonnegative(self, f1, f2, cp):
        assert qubit_qubit_coupling_ghz(f1, f2, cp) >= 0.0

    @given(freqs, freqs, st.floats(min_value=0.001, max_value=5))
    def test_coupling_below_frequency_scale(self, f1, f2, cp):
        g = qubit_qubit_coupling_ghz(f1, f2, cp)
        assert g < max(f1, f2)

    @given(couplings, st.floats(min_value=0.0, max_value=3.0))
    def test_effective_coupling_never_exceeds_bare(self, g, delta):
        assert effective_coupling_ghz(g, delta) <= g + 1e-12

    @given(couplings, st.floats(min_value=-3.0, max_value=3.0))
    def test_smooth_exchange_bounded_by_g(self, g, delta):
        assert smooth_exchange_ghz(g, delta) <= g + 1e-12

    @given(distances, distances)
    def test_capacitance_antitone(self, d1, d2):
        lo, hi = sorted((d1, d2))
        assert qubit_parasitic_capacitance_ff(hi) <= \
            qubit_parasitic_capacitance_ff(lo) + 1e-15


class TestSplittingInvariants:
    @given(freqs, freqs, couplings)
    def test_splitting_at_least_2g(self, f1, f2, g):
        assert eigensplitting_ghz(f1, f2, g) >= 2 * g - 1e-9

    @given(freqs, freqs, couplings)
    def test_splitting_at_least_detuning(self, f1, f2, g):
        assert eigensplitting_ghz(f1, f2, g) >= abs(f1 - f2) - 1e-9


class TestEmInvariants:
    @given(st.floats(min_value=1.0, max_value=20.0))
    def test_length_frequency_inverse(self, f):
        assert resonator_frequency_ghz(resonator_length_mm(f)) == \
            __import__("pytest").approx(f)

    @given(st.floats(min_value=1.0, max_value=50.0),
           st.floats(min_value=1.0, max_value=50.0))
    def test_tm110_antitone_in_size(self, a, b):
        bigger = tm110_frequency_ghz(a * 1.1, b * 1.1)
        assert bigger < tm110_frequency_ghz(a, b)

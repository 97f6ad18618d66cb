"""Unit tests for the fabrication frequency-disorder model."""

import numpy as np
import pytest

from repro import constants
from repro.devices import build_netlist, grid_topology
from repro.devices.disorder import (
    apply_frequency_disorder,
    disordered_layout,
    scatter_frequencies,
)


@pytest.fixture(scope="module")
def netlist():
    return build_netlist(grid_topology(3, 3))


class TestScatter:
    def test_zero_sigma_identity(self):
        values = np.array([5.0, 5.1])
        rng = np.random.default_rng(0)
        out = scatter_frequencies(values, 0.0, (4.8, 5.2), rng)
        assert np.allclose(out, values)

    def test_clipped_to_band(self):
        values = np.array([4.8, 5.2])
        rng = np.random.default_rng(1)
        out = scatter_frequencies(values, 0.5, (4.8, 5.2), rng)
        assert np.all(out >= 4.8) and np.all(out <= 5.2)

    def test_negative_sigma_rejected(self):
        with pytest.raises(ValueError):
            scatter_frequencies(np.array([5.0]), -0.1, (4.8, 5.2),
                                np.random.default_rng(0))


class TestApplyDisorder:
    def test_original_untouched(self, netlist):
        before = [q.frequency for q in netlist.qubits]
        apply_frequency_disorder(netlist, seed=3)
        assert [q.frequency for q in netlist.qubits] == before

    def test_frequencies_move(self, netlist):
        # Band-edge qubits clip back to the edge for one noise sign, so
        # only interior-level qubits are guaranteed to move.
        noisy = apply_frequency_disorder(netlist, sigma_qubit_ghz=0.03,
                                         seed=3)
        lo, hi = constants.QUBIT_FREQ_BAND_GHZ
        for before, after in zip(netlist.qubits, noisy.qubits):
            if lo < before.frequency < hi:
                assert after.frequency != before.frequency

    def test_band_respected(self, netlist):
        noisy = apply_frequency_disorder(netlist, sigma_qubit_ghz=0.2,
                                         sigma_resonator_ghz=0.2, seed=9)
        for q in noisy.qubits:
            assert constants.QUBIT_FREQ_BAND_GHZ[0] <= q.frequency <= \
                constants.QUBIT_FREQ_BAND_GHZ[1]
        for r in noisy.resonators:
            assert constants.RESONATOR_FREQ_BAND_GHZ[0] <= r.frequency <= \
                constants.RESONATOR_FREQ_BAND_GHZ[1]

    def test_seed_determinism(self, netlist):
        a = apply_frequency_disorder(netlist, seed=4)
        b = apply_frequency_disorder(netlist, seed=4)
        c = apply_frequency_disorder(netlist, seed=5)
        assert [q.frequency for q in a.qubits] == \
            [q.frequency for q in b.qubits]
        assert [q.frequency for q in a.qubits] != \
            [q.frequency for q in c.qubits]

    def test_plan_mirrors_components(self, netlist):
        noisy = apply_frequency_disorder(netlist, seed=6)
        for q in noisy.qubits:
            assert noisy.plan.qubit_freq_ghz[q.index] == q.frequency
        for r in noisy.resonators:
            assert noisy.plan.resonator_freq_ghz[r.endpoints] == r.frequency

    def test_topology_shared(self, netlist):
        noisy = apply_frequency_disorder(netlist, seed=7)
        assert noisy.topology is netlist.topology


class TestDisorderedLayout:
    def test_positions_frozen(self, grid9_placed):
        noisy = disordered_layout(grid9_placed.layout, seed=2)
        assert np.allclose(noisy.positions, grid9_placed.layout.positions)

    def test_strategy_tagged(self, grid9_placed):
        noisy = disordered_layout(grid9_placed.layout, seed=2)
        assert noisy.strategy == "qplacer+disorder"

    def test_instance_frequencies_updated(self, grid9_placed):
        noisy = disordered_layout(grid9_placed.layout,
                                  sigma_qubit_ghz=0.05, seed=2)
        moved = sum(
            1 for a, b in zip(grid9_placed.layout.instances, noisy.instances)
            if a.frequency != b.frequency)
        assert moved > 0

    def test_segments_track_their_resonator(self, grid9_placed):
        noisy = disordered_layout(grid9_placed.layout, seed=2)
        freq_by_res = {r.index: r.frequency
                       for r in noisy.netlist.resonators}
        for inst in noisy.instances:
            if hasattr(inst, "resonator_index") and inst.resonator_index >= 0:
                assert inst.frequency == freq_by_res[inst.resonator_index]

    def test_can_create_hotspots(self, grid9_placed):
        """Large scatter must be able to break the designed margins."""
        from repro.crosstalk import hotspot_report
        worst = 0.0
        for seed in range(6):
            noisy = disordered_layout(grid9_placed.layout,
                                      sigma_qubit_ghz=0.05,
                                      sigma_resonator_ghz=0.05, seed=seed)
            worst = max(worst, hotspot_report(noisy).ph_percent)
        assert worst > 0.0

    def test_requires_netlist(self):
        from repro.devices.components import Qubit
        from repro.devices.layout import Layout
        lay = Layout(instances=[Qubit.create(0, 5.0)],
                     positions=np.zeros((1, 2)))
        with pytest.raises(ValueError):
            disordered_layout(lay)


class TestDisorderProperties:
    """Property-style guarantees of the disorder model (ISSUE 6)."""

    def test_seeded_determinism_across_calls(self, netlist):
        """Same seed -> identical netlist, element for element."""
        a = apply_frequency_disorder(netlist, sigma_qubit_ghz=0.03,
                                     sigma_resonator_ghz=0.02, seed=11)
        b = apply_frequency_disorder(netlist, sigma_qubit_ghz=0.03,
                                     sigma_resonator_ghz=0.02, seed=11)
        assert [q.frequency for q in a.qubits] \
            == [q.frequency for q in b.qubits]
        assert [r.frequency for r in a.resonators] \
            == [r.frequency for r in b.resonators]
        c = apply_frequency_disorder(netlist, sigma_qubit_ghz=0.03,
                                     sigma_resonator_ghz=0.02, seed=12)
        assert [q.frequency for q in a.qubits] \
            != [q.frequency for q in c.qubits]

    def test_zero_disorder_is_the_identity(self, netlist):
        out = apply_frequency_disorder(netlist, sigma_qubit_ghz=0.0,
                                       sigma_resonator_ghz=0.0, seed=5)
        assert [q.frequency for q in out.qubits] \
            == [q.frequency for q in netlist.qubits]
        assert [r.frequency for r in out.resonators] \
            == [r.frequency for r in netlist.resonators]

    def test_disorder_magnitude_monotonicity(self, netlist):
        """More sigma -> more mean displacement, averaged over seeds.

        Clipping at the band edges caps individual deviations, so the
        property is statistical: the seed-averaged mean |delta f| must
        be non-decreasing across an increasing sigma ladder.
        """
        targets = np.array([q.frequency for q in netlist.qubits])
        sigmas = (0.005, 0.02, 0.08)
        means = []
        for sigma in sigmas:
            deltas = []
            for seed in range(8):
                noisy = apply_frequency_disorder(
                    netlist, sigma_qubit_ghz=sigma,
                    sigma_resonator_ghz=0.0, seed=seed)
                real = np.array([q.frequency for q in noisy.qubits])
                deltas.append(np.abs(real - targets).mean())
            means.append(float(np.mean(deltas)))
        assert means[0] < means[1] < means[2]


class TestStreamIndependence:
    """The RNG-decoupling fix: families draw from independent streams."""

    def test_qubit_sigma_does_not_move_resonators(self, netlist):
        a = apply_frequency_disorder(netlist, sigma_qubit_ghz=0.01,
                                     sigma_resonator_ghz=0.02, seed=3)
        b = apply_frequency_disorder(netlist, sigma_qubit_ghz=0.09,
                                     sigma_resonator_ghz=0.02, seed=3)
        assert [r.frequency for r in a.resonators] \
            == [r.frequency for r in b.resonators]
        assert [q.frequency for q in a.qubits] \
            != [q.frequency for q in b.qubits]


class TestSampleDisorderFrequencies:
    def test_seed_sequence_determinism(self, netlist):
        from repro.devices import sample_disorder_frequencies
        qt = np.array([q.frequency for q in netlist.qubits])
        rt = np.array([r.frequency for r in netlist.resonators])
        a = sample_disorder_frequencies(qt, rt, 0.03, 0.02,
                                        np.random.SeedSequence(5))
        b = sample_disorder_frequencies(qt, rt, 0.03, 0.02,
                                        np.random.SeedSequence(5))
        assert np.array_equal(a[0], b[0])
        assert np.array_equal(a[1], b[1])


class TestNetlistWithFrequencies:
    def test_length_mismatch_rejected(self, netlist):
        from repro.devices import netlist_with_frequencies
        good_q = np.array([q.frequency for q in netlist.qubits])
        good_r = np.array([r.frequency for r in netlist.resonators])
        with pytest.raises(ValueError):
            netlist_with_frequencies(netlist, good_q[:-1], good_r)
        with pytest.raises(ValueError):
            netlist_with_frequencies(netlist, good_q, good_r[:-1])

    def test_identity_frequencies_round_trip(self, netlist):
        from repro.devices import netlist_with_frequencies
        out = netlist_with_frequencies(
            netlist, np.array([q.frequency for q in netlist.qubits]),
            np.array([r.frequency for r in netlist.resonators]))
        assert [q.frequency for q in out.qubits] \
            == [q.frequency for q in netlist.qubits]
        assert out.topology is netlist.topology


class TestStrategyTag:
    def test_suffix_applied_once(self):
        from repro.devices.disorder import disorder_strategy_tag
        assert disorder_strategy_tag("qplacer") == "qplacer+disorder"
        assert disorder_strategy_tag("qplacer+disorder") \
            == "qplacer+disorder"

    def test_repeated_disordered_layouts_do_not_stack(self, grid9_placed):
        once = disordered_layout(grid9_placed.layout, seed=1)
        twice = disordered_layout(once, seed=2)
        assert twice.strategy == "qplacer+disorder"

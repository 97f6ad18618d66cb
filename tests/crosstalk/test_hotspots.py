"""Unit tests for the Eq. 18 hotspot-proportion metric."""

import numpy as np
import pytest

from repro.crosstalk.hotspots import hotspot_report
from repro.devices import build_netlist, grid_topology
from repro.devices.components import Qubit, Resonator
from repro.devices.layout import Layout


def qubit(i, freq):
    return Qubit(name=f"q{i}", width=0.4, height=0.4, padding=0.4,
                 frequency=freq, index=i)


class TestPhComputation:
    def test_hand_computed_value(self):
        # Two resonant qubits side by side, gap 0.4 (< 0.8 padding sum).
        instances = [qubit(0, 5.0), qubit(1, 5.0)]
        lay = Layout(instances=instances,
                     positions=np.array([[0.0, 0.0], [0.8, 0.0]]))
        report = hotspot_report(lay)
        assert report.num_hotspots == 1
        pair = report.pairs[0]
        # Padded rects are 1.2 wide at centres 0.8 apart: facing = 1.2
        # (y-extent overlap), centroid distance 0.8.
        assert pair.facing_mm == pytest.approx(1.2)
        assert pair.centroid_distance_mm == pytest.approx(0.8)
        apoly = 2 * 0.16
        assert report.ph == pytest.approx(1.2 * 0.8 / apoly)

    def test_detuned_pair_excluded(self):
        instances = [qubit(0, 4.8), qubit(1, 5.2)]
        lay = Layout(instances=instances,
                     positions=np.array([[0.0, 0.0], [0.8, 0.0]]))
        report = hotspot_report(lay)
        assert report.ph == 0.0
        assert report.num_hotspots == 0

    def test_ph_percent(self):
        instances = [qubit(0, 5.0), qubit(1, 5.0)]
        lay = Layout(instances=instances,
                     positions=np.array([[0.0, 0.0], [0.8, 0.0]]))
        report = hotspot_report(lay)
        assert report.ph_percent == pytest.approx(100 * report.ph)

    def test_impacted_qubits_direct(self):
        instances = [qubit(0, 5.0), qubit(1, 5.0), qubit(2, 5.2)]
        lay = Layout(instances=instances,
                     positions=np.array([[0, 0], [0.8, 0], [5, 5]], float))
        report = hotspot_report(lay)
        assert report.impacted_qubits == {0, 1}


class TestResonatorPropagation:
    def test_rr_hotspot_impacts_endpoint_qubits(self):
        """A segment-segment hotspot must impact all endpoint qubits of
        both resonators (the non-local effect of Sec. VI-B)."""
        netlist = build_netlist(grid_topology(2, 2))
        # Find two resonators with the same frequency? The conflict
        # colouring forbids that for couplers sharing a qubit; force two
        # synthetic resonators with identical frequency instead.
        r_a = Resonator(name="ra", index=0, endpoints=(0, 1), frequency=6.5)
        r_b = Resonator(name="rb", index=1, endpoints=(2, 3), frequency=6.5)
        seg_a = r_a.make_segments(0.3)[0]
        seg_b = r_b.make_segments(0.3)[0]

        class FakeNetlist:
            resonators = [r_a, r_b]

        lay = Layout(instances=[seg_a, seg_b],
                     positions=np.array([[0.0, 0.0], [0.35, 0.0]]))
        lay.netlist = FakeNetlist()
        report = hotspot_report(lay)
        assert report.num_hotspots == 1
        assert report.impacted_qubits == {0, 1, 2, 3}

    def test_no_netlist_counts_no_propagation(self):
        r_a = Resonator(name="ra", index=0, endpoints=(0, 1), frequency=6.5)
        r_b = Resonator(name="rb", index=1, endpoints=(2, 3), frequency=6.5)
        lay = Layout(instances=[r_a.make_segments(0.3)[0],
                                r_b.make_segments(0.3)[0]],
                     positions=np.array([[0.0, 0.0], [0.35, 0.0]]))
        report = hotspot_report(lay)
        assert report.num_hotspots == 1
        assert report.impacted_qubits == set()


class TestPrecomputedViolations:
    def test_reuse_violations(self):
        from repro.crosstalk.violations import violation_columns
        instances = [qubit(0, 5.0), qubit(1, 5.0)]
        lay = Layout(instances=instances,
                     positions=np.array([[0.0, 0.0], [0.8, 0.0]]))
        violations = violation_columns(lay)
        a = hotspot_report(lay)
        b = hotspot_report(lay, violations=violations)
        assert a.ph == b.ph

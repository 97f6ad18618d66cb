"""Unit tests for layout metrics."""

import numpy as np
import pytest

from repro.analysis.metrics import (
    LayoutMetrics,
    area_ratios,
    compute_layout_metrics,
    resonator_integrity,
)
from repro.devices.components import Qubit, Resonator
from repro.devices.layout import Layout


def qubit_layout(positions, freqs, strategy="test"):
    instances = [
        Qubit(name=f"q{i}", width=0.4, height=0.4, padding=0.4,
              frequency=f, index=i)
        for i, f in enumerate(freqs)
    ]
    return Layout(instances=instances,
                  positions=np.array(positions, float), strategy=strategy)


class TestComputeMetrics:
    def test_fields(self):
        lay = qubit_layout([(0, 0), (2, 0)], [5.0, 5.1])
        m = compute_layout_metrics(lay)
        assert m.strategy == "test"
        assert m.amer_mm2 == pytest.approx(2.4 * 0.4)
        assert m.apoly_mm2 == pytest.approx(0.32)
        assert m.utilization == pytest.approx(0.32 / 0.96)
        assert m.ph_percent == 0.0

    def test_hotspot_detected(self):
        lay = qubit_layout([(0, 0), (0.8, 0)], [5.0, 5.0])
        m = compute_layout_metrics(lay)
        assert m.num_hotspots == 1
        assert m.impacted_qubits == 2
        assert m.ph_percent > 0

    def test_areas_from_one_rect_list_each(self, monkeypatch):
        """``Amer``, ``Apoly`` and utilisation equal the layout's own
        methods bit for bit, from one footprint list each."""
        from repro.baselines.human import human_layout
        from repro.devices import build_netlist, get_topology

        lay = human_layout(build_netlist(get_topology("grid-25")))
        expected = (lay.amer(), lay.apoly(), lay.utilization())
        calls = []
        rects = Layout.rects
        monkeypatch.setattr(Layout, "rects",
                            lambda self: calls.append(1) or rects(self))
        m = compute_layout_metrics(lay)
        assert (m.amer_mm2, m.apoly_mm2, m.utilization) == expected
        assert len(calls) == 2

    def test_violation_count_includes_detuned(self):
        lay = qubit_layout([(0, 0), (0.8, 0)], [4.8, 5.2])
        m = compute_layout_metrics(lay)
        assert m.num_violations == 1
        assert m.num_hotspots == 0


class TestAreaRatios:
    def test_relative_to_reference(self):
        metrics = [
            LayoutMetrics("qplacer", 100.0, 50, 0.5, 0, 0, 0, 0),
            LayoutMetrics("human", 220.0, 50, 0.23, 0, 0, 0, 0),
        ]
        ratios = area_ratios(metrics)
        assert ratios["qplacer"] == 1.0
        assert ratios["human"] == pytest.approx(2.2)

    def test_missing_reference(self):
        metrics = [LayoutMetrics("human", 220.0, 50, 0.23, 0, 0, 0, 0)]
        with pytest.raises(ValueError):
            area_ratios(metrics)


class TestResonatorIntegrity:
    def make_segments(self, positions):
        r = Resonator(name="r0", index=0, endpoints=(0, 1), frequency=6.5)
        segs = list(r.make_segments(0.3)[:len(positions)])
        return Layout(instances=segs, positions=np.array(positions, float))

    def test_contiguous_chain(self):
        lay = self.make_segments([(0, 0), (0.35, 0), (0.7, 0)])
        assert resonator_integrity(lay) == 1.0

    def test_broken_chain(self):
        lay = self.make_segments([(0, 0), (0.35, 0), (5.0, 5.0)])
        assert resonator_integrity(lay) == 0.0

    def test_single_segment_always_integral(self):
        lay = self.make_segments([(0, 0)])
        assert resonator_integrity(lay) == 1.0

    def test_no_segments(self):
        lay = qubit_layout([(0, 0)], [5.0])
        assert resonator_integrity(lay) == 1.0

    def test_qplacer_layout_integral(self, grid9_placed):
        assert resonator_integrity(grid9_placed.layout) == 1.0

"""Integration tests: the complete flow on one small device.

These tests exercise the entire pipeline — frequency assignment,
preprocessing, global placement, legalization, baselines, mapping, and
fidelity/hotspot evaluation — and assert the *relationships* the paper's
evaluation rests on.
"""

import pytest

from repro.analysis import compute_layout_metrics, resonator_integrity
from repro.baselines.human import human_layout
from repro.circuits import evaluation_mappings, get_benchmark
from repro.crosstalk import (
    average_program_fidelity,
    find_spatial_violations,
    hotspot_report,
)
from repro.core import PlacerConfig, QPlacer
from repro.devices import build_netlist, get_topology


@pytest.fixture(scope="module")
def flow():
    topology = get_topology("grid-25")
    netlist = build_netlist(topology)
    cfg = PlacerConfig(max_iterations=200, min_iterations=30, num_bins=48)
    classic_cfg = PlacerConfig.classic(max_iterations=200, min_iterations=30,
                                       num_bins=48)
    qplacer = QPlacer(cfg).place(netlist)
    classic = QPlacer(classic_cfg).place(netlist)
    human = human_layout(netlist, cfg)
    return topology, netlist, qplacer, classic, human


class TestLayoutRelationships:
    def test_qplacer_eliminates_hotspots(self, flow):
        _, _, qplacer, classic, _ = flow
        q = hotspot_report(qplacer.layout)
        c = hotspot_report(classic.layout)
        assert q.ph <= c.ph
        assert q.num_impacted_qubits <= c.num_impacted_qubits

    def test_areas_comparable_between_engines(self, flow):
        _, _, qplacer, classic, _ = flow
        ratio = classic.layout.amer() / qplacer.layout.amer()
        assert 0.5 <= ratio <= 1.5

    def test_human_crosstalk_free_but_large(self, flow):
        _, _, qplacer, _, human = flow
        assert hotspot_report(human).ph == 0.0
        assert human.amer() > 0.7 * qplacer.layout.amer()

    def test_qplacer_resonators_integral(self, flow):
        _, _, qplacer, _, _ = flow
        assert resonator_integrity(qplacer.layout) == 1.0
        assert qplacer.legalize_stats.integration_failures == 0

    def test_metrics_consistent_with_reports(self, flow):
        _, _, qplacer, _, _ = flow
        m = compute_layout_metrics(qplacer.layout)
        rep = hotspot_report(qplacer.layout)
        assert m.ph_percent == pytest.approx(rep.ph_percent)
        assert m.impacted_qubits == rep.num_impacted_qubits


class TestFidelityRelationships:
    @pytest.mark.parametrize("bench", ["bv-4", "qgan-4"])
    def test_strategy_ordering(self, flow, bench):
        topology, _, qplacer, classic, human = flow
        mappings = evaluation_mappings(get_benchmark(bench), topology,
                                       num_mappings=10)
        f_q = average_program_fidelity(qplacer.layout, mappings)
        f_c = average_program_fidelity(classic.layout, mappings)
        f_h = average_program_fidelity(human, mappings)
        # Fig. 11/12 ordering: Human >= Qplacer >> Classic.
        assert f_q >= f_c * 0.9
        assert f_h >= f_q * 0.9

    def test_depth_degrades_fidelity(self, flow):
        topology, _, qplacer, _, _ = flow
        shallow = evaluation_mappings(get_benchmark("bv-4"), topology,
                                      num_mappings=6)
        deep = evaluation_mappings(get_benchmark("qaoa-9"), topology,
                                   num_mappings=6)
        f_shallow = average_program_fidelity(qplacer.layout, shallow)
        f_deep = average_program_fidelity(qplacer.layout, deep)
        assert f_deep < f_shallow


class TestViolationAccounting:
    def test_qplacer_has_no_resonant_violations(self, flow):
        _, _, qplacer, _, _ = flow
        if qplacer.legalize_stats.resonant_relaxations:
            pytest.skip("legalizer relaxed on this run")
        violations = find_spatial_violations(qplacer.layout)
        assert not any(v.resonant for v in violations)

    def test_classic_has_resonant_violations(self, flow):
        _, _, _, classic, _ = flow
        violations = find_spatial_violations(classic.layout)
        assert any(v.resonant for v in violations)


class TestSegmentSizeEffect:
    def test_smaller_segments_more_cells(self):
        netlist = build_netlist(get_topology("grid-25"))
        cfg_small = PlacerConfig(segment_size_mm=0.2, max_iterations=80,
                                 min_iterations=20, num_bins=32)
        cfg_large = PlacerConfig(segment_size_mm=0.4, max_iterations=80,
                                 min_iterations=20, num_bins=32)
        small = QPlacer(cfg_small).place(netlist)
        large = QPlacer(cfg_large).place(netlist)
        assert small.num_cells > 1.8 * large.num_cells

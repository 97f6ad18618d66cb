"""Integration tests pinning quantitative claims from the paper.

These assert the reproduction's numbers against figures the paper states
explicitly: Table II instance counts, the Sec. III-C TM110 values, the
Sec. V-C resonator-length band, the frequency-comb structure, and the
headline contract: QPlacer layouts are hotspot-free, keep every
resonator contiguous and are legal, while Classic layouts are not
hotspot-free.
"""

import pytest

from repro import constants
from repro.analysis import resonator_integrity
from repro.core import PlacerConfig, QPlacer
from repro.core.preprocess import build_problem
from repro.ensembles import check_layout_legal
from repro.ensembles.jobs import hotspot_report
from repro.devices import build_netlist, get_topology
from repro.devices.frequency import frequency_levels
from repro.physics import resonator_length_mm, tm110_frequency_ghz

#: Table II "#cells" columns (lb = 0.2 / 0.3 / 0.4).
PAPER_TABLE2_CELLS = {
    "grid-25": (1050, 490, 299),
    "xtree-53": (1393, 660, 410),
    "falcon-27": (744, 354, 218),
    "eagle-127": (3810, 1801, 1104),
    "aspen11-40": (1272, 598, 369),
    "aspenm-80": (2787, 1310, 799),
}


class TestTable2InstanceCounts:
    @pytest.mark.parametrize("name", sorted(PAPER_TABLE2_CELLS))
    @pytest.mark.parametrize("lb_index,lb", [(0, 0.2), (1, 0.3), (2, 0.4)])
    def test_cells_within_3_percent(self, name, lb_index, lb):
        netlist = build_netlist(get_topology(name))
        problem = build_problem(netlist, PlacerConfig(segment_size_mm=lb))
        paper = PAPER_TABLE2_CELLS[name][lb_index]
        assert abs(problem.num_instances - paper) / paper < 0.03, (
            f"{name} lb={lb}: {problem.num_instances} vs paper {paper}")


class TestSubstrateNumbers:
    def test_tm110_5mm(self):
        assert tm110_frequency_ghz(5, 5) == pytest.approx(12.41, abs=0.05)

    def test_tm110_10mm(self):
        assert tm110_frequency_ghz(10, 10) == pytest.approx(6.20, abs=0.03)


class TestResonatorBand:
    def test_length_range(self):
        # Sec. V-C: lengths 10.8 down to 9.2 mm across 6.0-7.0 GHz.
        assert resonator_length_mm(6.0) == pytest.approx(10.8, abs=0.05)
        assert resonator_length_mm(7.0) == pytest.approx(9.2, abs=0.1)


class TestFrequencyPlanStructure:
    def test_qubit_comb(self):
        levels = frequency_levels(constants.QUBIT_FREQ_BAND_GHZ,
                                  constants.DETUNING_THRESHOLD_GHZ)
        assert levels[0] == pytest.approx(4.8)
        assert levels[-1] == pytest.approx(5.2)

    def test_anharmonicity_constant(self):
        assert constants.TRANSMON_ANHARMONICITY_GHZ == pytest.approx(
            -0.310)

    def test_paddings(self):
        assert constants.QUBIT_PADDING_MM == 0.4
        assert constants.RESONATOR_PADDING_MM == 0.1


class TestSegmentScaling:
    @pytest.mark.parametrize("name", ["grid-25", "falcon-27"])
    def test_paper_cell_ratios(self, name):
        """Table II: lb=0.2 has ~2.1x and lb=0.4 ~1/1.6x the cells of 0.3."""
        counts = {}
        netlist = build_netlist(get_topology(name))
        for lb in (0.2, 0.3, 0.4):
            problem = build_problem(netlist, PlacerConfig(segment_size_mm=lb))
            counts[lb] = problem.num_instances
        assert counts[0.2] / counts[0.3] == pytest.approx(2.1, abs=0.2)
        assert counts[0.3] / counts[0.4] == pytest.approx(1.65, abs=0.2)


@pytest.mark.parametrize("name", ["grid-25", "falcon-27"])
class TestPaperContract:
    def test_qplacer_hotspot_free_intact_and_legal(self, name):
        result = QPlacer(PlacerConfig()).place(build_netlist(get_topology(name)))
        assert hotspot_report(result.layout).ph_percent == 0
        assert resonator_integrity(result.layout) == 1.0
        assert check_layout_legal(result.problem, result.layout.positions)

    def test_classic_has_hotspots(self, name):
        result = QPlacer(PlacerConfig.classic()).place(
            build_netlist(get_topology(name)))
        assert hotspot_report(result.layout).ph_percent > 0

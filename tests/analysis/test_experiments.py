"""Unit tests for the per-figure experiment pipelines."""

import hashlib

import numpy as np
import pytest

from repro.analysis.experiments import (
    FIDELITY_FLOOR,
    area_experiment,
    build_suite,
    coupling_vs_detuning,
    coupling_vs_distance,
    fidelity_experiment,
    pareto_points,
    resonator_coupling_curves,
    segment_sweep,
    summary_experiment,
)
from repro.core.config import PlacerConfig

from ..core.test_placement_golden import GOLDEN


@pytest.fixture(scope="module")
def suite():
    cfg = PlacerConfig(max_iterations=120, min_iterations=20, num_bins=32)
    return build_suite("grid-25", config=cfg)


class TestBuildSuite:
    def test_all_strategies_present(self, suite):
        assert set(suite.layouts) == {"qplacer", "classic", "human"}
        assert suite.results["human"] is None


class TestPlacementPayloadTelemetry:
    def test_strategy_entries_carry_stats_and_phases(self, suite):
        from repro.analysis.experiments import placement_payload

        payload = placement_payload(suite, 0.3, include_layouts=False)
        entry = payload["strategies"]["qplacer"]
        assert set(entry) >= {"metrics", "num_cells", "iterations",
                              "runtime_s", "legalize", "detailed", "phases"}
        assert entry["legalize"]["qubit_displacement_mm"] >= 0
        assert entry["legalize"]["phase_seconds"]["legalize"] > 0
        assert entry["detailed"] is None  # dense tier: 0 passes resolved
        assert entry["phases"]["legalize"] > 0
        # The human baseline has no PlacementResult, hence no telemetry.
        assert "phases" not in payload["strategies"]["human"]
        assert suite.results["qplacer"] is not None

    def test_shared_netlist(self, suite):
        for layout in suite.layouts.values():
            assert layout.netlist is suite.netlist

    def test_metrics(self, suite):
        metrics = suite.metrics()
        assert metrics["human"].ph_percent == 0.0
        assert metrics["qplacer"].amer_mm2 > 0

    def test_unknown_strategy(self):
        with pytest.raises(ValueError):
            build_suite("grid-25", strategies=("qplacer", "alien"))

    @pytest.mark.parametrize("strategy", ["qplacer", "classic"])
    def test_positions_match_placement_golden(self, strategy):
        """``place``/``ensemble`` requests place through build_suite;
        its layouts must be the engine's bit-for-bit."""
        digest = next(d for t, s, o, d in GOLDEN
                      if (t, s, o) == ("falcon-27", strategy, False))
        suite = build_suite("falcon-27", strategies=(strategy,))
        positions = suite.layouts[strategy].positions
        assert hashlib.sha256(positions.tobytes()).hexdigest() == digest


class TestFidelityExperiment:
    def test_table_structure(self, suite):
        table = fidelity_experiment(suite, benchmarks=("bv-4",),
                                    num_mappings=4)
        assert set(table) == {"bv-4"}
        assert set(table["bv-4"]) == {"qplacer", "classic", "human"}
        for value in table["bv-4"].values():
            assert FIDELITY_FLOOR <= value <= 1.0

    def test_oversized_benchmark_skipped(self, suite):
        table = fidelity_experiment(suite, benchmarks=("bv-4",),
                                    num_mappings=2)
        assert "bv-26" not in table

    def test_qplacer_beats_classic(self, suite):
        table = fidelity_experiment(suite, benchmarks=("bv-16", "qgan-4"),
                                    num_mappings=8)
        for row in table.values():
            assert row["qplacer"] >= row["classic"] * 0.9


class TestSummaryExperiment:
    def test_rows(self, suite):
        fid = fidelity_experiment(suite, benchmarks=("bv-4",), num_mappings=4)
        rows = summary_experiment(suite, benchmarks=("bv-4",),
                                  num_mappings=4, fidelity=fid)
        assert len(rows) == 3
        strategies = {r.strategy for r in rows}
        assert strategies == {"qplacer", "classic", "human"}
        for r in rows:
            assert r.topology == "grid-25"
            assert 0 <= r.avg_fidelity <= 1


class TestAreaExperiment:
    def test_qplacer_is_unity(self, suite):
        ratios = area_experiment(suite)
        assert ratios["qplacer"] == pytest.approx(1.0)
        assert ratios["human"] > 0


class TestSegmentSweep:
    def test_rows_and_scaling(self):
        cfg = PlacerConfig(max_iterations=100, min_iterations=20, num_bins=32)
        rows = segment_sweep("grid-25", segment_sizes=(0.3, 0.4), config=cfg)
        assert [r.segment_size_mm for r in rows] == [0.3, 0.4]
        assert rows[0].num_cells > rows[1].num_cells
        assert all(r.runtime_s > 0 for r in rows)


class TestPareto:
    def test_points(self, suite):
        points = pareto_points(suite, benchmarks=("bv-4",), num_mappings=4)
        assert len(points) == 3
        for p in points:
            assert 0.0 <= p.infidelity <= 1.0
            assert p.amer_mm2 > 0


class TestPhysicsCurves:
    def test_fig4_shapes(self):
        curve = coupling_vs_detuning(num_points=21)
        assert curve["freq2_ghz"].shape == (21,)
        assert curve["effective_coupling_ghz"].shape == (21,)

    def test_fig5_keys(self):
        curve = coupling_vs_distance(num_points=11)
        assert set(curve) == {"distance_mm", "cp_ff", "g_ghz", "g_eff_ghz"}

    def test_fig6_keys(self):
        curves = resonator_coupling_curves(num_points=11)
        assert "g_vs_distance_ghz" in curves
        assert "g_vs_detuning_ghz" in curves

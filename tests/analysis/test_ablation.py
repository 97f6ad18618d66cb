"""Unit tests for the ablation experiments."""

import hashlib

import pytest

from repro.analysis import ablation
from repro.analysis.ablation import (
    ABLATION_VARIANTS,
    ablation_experiment,
    detailed_placement_gain,
    disorder_robustness,
    evaluate_ablation_variant,
    router_comparison,
)
from repro.core import PlacerConfig

FAST = PlacerConfig(max_iterations=100, min_iterations=20, num_bins=32)


@pytest.fixture(scope="module")
def ablation_rows():
    return ablation_experiment("grid-25", config=FAST)


class TestAblation:
    def test_all_variants_present(self, ablation_rows):
        assert [r.variant for r in ablation_rows] == list(ABLATION_VARIANTS)

    def test_full_flow_cleanest(self, ablation_rows):
        by_variant = {r.variant: r for r in ablation_rows}
        full = by_variant["full"]
        assert full.ph_percent <= min(r.ph_percent for r in ablation_rows) + 1e-9
        assert full.integrity == 1.0

    def test_frequency_legalizer_matters(self, ablation_rows):
        """Dropping the resonant checker must create hotspots."""
        by_variant = {r.variant: r for r in ablation_rows}
        assert by_variant["no-freq-legalizer"].ph_percent > \
            by_variant["full"].ph_percent

    def test_classic_loses_integrity_or_hotspots(self, ablation_rows):
        by_variant = {r.variant: r for r in ablation_rows}
        classic = by_variant["classic"]
        assert classic.ph_percent > 0 or classic.integrity < 1.0

    def test_blind_legalizer_layout_pinned(self, monkeypatch):
        """The ``no-freq-legalizer`` layout is pinned byte for byte: the
        variant legalizes the frequency-aware global placement under the
        plain clearance rule."""
        scored = []
        metrics = ablation.compute_layout_metrics
        monkeypatch.setattr(ablation, "compute_layout_metrics",
                            lambda layout: scored.append(layout)
                            or metrics(layout))
        evaluate_ablation_variant("grid-25", "no-freq-legalizer", config=FAST)
        digest = hashlib.sha256(scored[0].positions.tobytes()).hexdigest()
        assert digest == ("842c4d423e0cfea0395d15a35aac6cb65ba6447e"
                          "c9ea3dd74bfc26cfed697a93")

    def test_unknown_variant_rejected(self):
        with pytest.raises(ValueError):
            ablation_experiment("grid-25", variants=("bogus",), config=FAST)


class TestDisorderRobustness:
    def test_rows_structure(self):
        rows = disorder_robustness("grid-25", sigmas_ghz=(0.0, 0.03),
                                   trials=2, config=FAST)
        strategies = {r.strategy for r in rows}
        assert strategies == {"qplacer", "classic"}
        assert len(rows) == 4

    def test_zero_sigma_matches_design(self):
        rows = disorder_robustness("grid-25", sigmas_ghz=(0.0,),
                                   trials=1, config=FAST)
        qplacer = next(r for r in rows if r.strategy == "qplacer")
        assert qplacer.mean_ph_percent == pytest.approx(0.0, abs=0.2)

    def test_scatter_degrades_ph(self):
        rows = disorder_robustness("grid-25", sigmas_ghz=(0.0, 0.05),
                                   trials=3, config=FAST)
        for strategy in ("qplacer", "classic"):
            clean = next(r for r in rows
                         if r.strategy == strategy and r.sigma_ghz == 0.0)
            noisy = next(r for r in rows
                         if r.strategy == strategy and r.sigma_ghz == 0.05)
            assert noisy.mean_ph_percent >= clean.mean_ph_percent


class TestRouterComparison:
    def test_rows(self):
        rows = router_comparison("grid-25", benchmarks=("bv-9",),
                                 num_mappings=4)
        routers = {r.router for r in rows}
        assert routers == {"basic", "sabre"}

    def test_sabre_not_worse(self):
        rows = router_comparison("falcon-27", benchmarks=("qaoa-9",),
                                 num_mappings=5)
        by_router = {r.router: r for r in rows}
        assert by_router["sabre"].total_swaps <= \
            by_router["basic"].total_swaps


class TestDetailedGain:
    def test_improvement_nonnegative(self):
        before, after, swaps = detailed_placement_gain("grid-25",
                                                       config=FAST,
                                                       max_passes=2)
        assert after <= before + 1e-9
        assert swaps >= 0

    def test_zero_passes_rejected(self):
        with pytest.raises(ValueError):
            detailed_placement_gain("grid-25", config=FAST, max_passes=0)

    def test_gain_pinned(self):
        assert detailed_placement_gain("grid-25", config=FAST,
                                       max_passes=2) == \
            (418.3999999999999, 400.9, 28)

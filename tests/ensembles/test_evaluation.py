"""Frozen-layout batch scoring vs the reference per-layout pipeline."""

from __future__ import annotations

import numpy as np
import pytest

from repro.crosstalk import hotspot_report
from repro.devices import layout_with_netlist_frequencies, \
    netlist_with_frequencies
from repro.ensembles import (
    DisorderSpec,
    EnsembleScores,
    FrozenLayoutScorer,
    bootstrap_ci,
    sample_batch,
    summarize_scores,
)


@pytest.fixture(scope="module")
def scorer(grid9_placed):
    return FrozenLayoutScorer(grid9_placed.layout)


class TestScorerEquivalence:
    def test_matches_hotspot_report_per_sample(self, grid9_placed, scorer):
        """Batch row i == the full object-pipeline score of sample i."""
        layout = grid9_placed.layout
        batch = sample_batch(layout.netlist, DisorderSpec(0.05, 0.05),
                             base_seed=0, count=4)
        scores = scorer.score_batch(batch.qubit_freqs,
                                    batch.resonator_freqs)
        for i in range(batch.count):
            noisy_net = netlist_with_frequencies(layout.netlist,
                                                 *batch.row(i))
            noisy = layout_with_netlist_frequencies(layout, noisy_net)
            report = hotspot_report(noisy)
            assert scores.ph_percent[i] == pytest.approx(
                report.ph_percent, abs=1e-9)
            assert scores.num_hotspots[i] == report.num_hotspots
            assert scores.impacted_qubits[i] == report.num_impacted_qubits

    def test_zero_disorder_matches_the_design(self, grid9_placed, scorer):
        layout = grid9_placed.layout
        batch = sample_batch(layout.netlist, DisorderSpec(0.0, 0.0),
                             base_seed=0, count=2)
        scores = scorer.score_batch(batch.qubit_freqs,
                                    batch.resonator_freqs)
        design = hotspot_report(layout)
        assert np.allclose(scores.ph_percent, design.ph_percent)
        assert np.all(scores.num_hotspots == design.num_hotspots)

    def test_fidelity_proxy_in_unit_interval(self, grid9_placed, scorer):
        layout = grid9_placed.layout
        batch = sample_batch(layout.netlist, DisorderSpec(0.05, 0.05),
                             base_seed=1, count=6)
        scores = scorer.score_batch(batch.qubit_freqs,
                                    batch.resonator_freqs)
        assert np.all(scores.fidelity_proxy > 0.0)
        assert np.all(scores.fidelity_proxy <= 1.0)

    def test_column_count_validated(self, scorer):
        with pytest.raises(ValueError):
            scorer.score_batch(np.zeros((1, scorer.num_qubits + 1)),
                               np.zeros((1, scorer.num_resonators)))


    def test_backend_knob_removed(self, grid9_placed):
        with pytest.raises(TypeError, match="backend"):
            FrozenLayoutScorer(grid9_placed.layout, backend="dense")

class TestScoresAndSummary:
    def _scores(self):
        return EnsembleScores(
            ph_percent=np.array([0.0, 0.5, 2.0, 0.0]),
            num_hotspots=np.array([0, 1, 3, 0]),
            impacted_qubits=np.array([0, 2, 4, 0]),
            fidelity_proxy=np.array([1.0, 0.99, 0.9, 1.0]))

    def test_passed_threshold(self):
        scores = self._scores()
        assert scores.passed(0.0).tolist() == [True, False, False, True]
        assert scores.passed(1.0).tolist() == [True, True, False, True]

    def test_summary_fields(self):
        summary = summarize_scores(self._scores(), max_ph_percent=0.0,
                                   bootstrap=50)
        assert summary["samples"] == 4
        assert summary["yield"] == pytest.approx(0.5)
        assert summary["mean_ph_percent"] == pytest.approx(0.625)
        assert summary["max_ph_percent_observed"] == pytest.approx(2.0)
        lo, hi = summary["yield_ci"]
        assert 0.0 <= lo <= summary["yield"] <= hi <= 1.0

    def test_summary_is_json_able(self):
        import json
        json.dumps(summarize_scores(self._scores(), 0.0, bootstrap=10))


class TestBootstrapCI:
    def test_deterministic(self):
        values = np.arange(20, dtype=float)
        assert bootstrap_ci(values, seed=3) == bootstrap_ci(values, seed=3)
        assert bootstrap_ci(values, seed=3) != bootstrap_ci(values, seed=4)

    def test_brackets_the_mean(self):
        values = np.random.default_rng(0).normal(5.0, 1.0, size=100)
        lo, hi = bootstrap_ci(values, num_resamples=500)
        assert lo <= values.mean() <= hi
        assert hi - lo < 1.0

    def test_degenerate_sizes(self):
        assert bootstrap_ci(np.array([2.0])) == (2.0, 2.0)
        assert bootstrap_ci(np.array([1.0, 3.0]), num_resamples=0) \
            == (2.0, 2.0)
        lo, hi = bootstrap_ci(np.array([]))
        assert np.isnan(lo) and np.isnan(hi)

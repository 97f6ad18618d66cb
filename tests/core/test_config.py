"""Unit tests for the placer configuration."""

import dataclasses

import pytest

from repro.core.config import PlacerConfig


class TestDefaults:
    def test_paper_defaults(self):
        cfg = PlacerConfig()
        assert cfg.segment_size_mm == 0.3
        assert cfg.qubit_padding_mm == 0.4
        assert cfg.resonator_padding_mm == 0.1
        assert cfg.detuning_threshold_ghz == 0.1
        assert cfg.frequency_aware

    def test_frozen(self):
        cfg = PlacerConfig()
        with pytest.raises(AttributeError):
            cfg.segment_size_mm = 0.2


class TestClassic:
    def test_classic_disables_frequency_machinery(self):
        cfg = PlacerConfig.classic()
        assert not cfg.frequency_aware
        assert not cfg.legalize_integration
        assert not cfg.chain_aware_tetris

    def test_classic_shares_other_hyperparameters(self):
        base = PlacerConfig()
        classic = PlacerConfig.classic()
        assert classic.segment_size_mm == base.segment_size_mm
        assert classic.target_density == base.target_density
        assert classic.whitespace_factor == base.whitespace_factor

    def test_classic_overrides(self):
        cfg = PlacerConfig.classic(segment_size_mm=0.2, seed=7)
        assert cfg.segment_size_mm == 0.2
        assert cfg.seed == 7
        assert not cfg.frequency_aware


class TestValidation:
    @pytest.mark.parametrize("kwargs", [
        {"segment_size_mm": 0.0},
        {"qubit_padding_mm": -0.1},
        {"qubit_clearance_mm": -0.1},
        {"target_density": 0.0},
        {"target_density": 3.0},
        {"whitespace_factor": 0.0},
        {"whitespace_factor": 1.5},
        {"num_bins": 4},
        {"max_iterations": 10, "min_iterations": 20},
        {"detailed_passes": -1},
        {"spiral_max_radius_sites": -1},
    ])
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            PlacerConfig(**kwargs)


class TestDetailedPasses:
    def test_auto_follows_problem_size(self):
        # The auto count is the problem's size-chosen number.
        cfg = PlacerConfig()
        assert cfg.detailed_passes is None
        assert cfg.resolved_detailed_passes(0) == 0  # paper tiers
        assert cfg.resolved_detailed_passes(1) == 1  # condor tiers

    def test_explicit_count_wins(self):
        assert PlacerConfig(detailed_passes=0).resolved_detailed_passes(
            1) == 0
        assert PlacerConfig(detailed_passes=3).resolved_detailed_passes(
            0) == 3


class TestDerived:
    def test_with_segment_size(self):
        cfg = PlacerConfig().with_segment_size(0.4)
        assert cfg.segment_size_mm == 0.4
        assert cfg.frequency_aware  # everything else preserved

    def test_site_pitches(self):
        cfg = PlacerConfig(qubit_clearance_mm=0.2, segment_clearance_mm=0.1)
        assert cfg.qubit_site_pitch_mm(0.4) == pytest.approx(0.6)
        assert cfg.segment_site_pitch_mm() == pytest.approx(0.4)


#: Retired fields, with their old defaults: what the placer portfolio
#: read, then the interaction-backend override and sparse knobs.
RETIRED_FIELDS = {
    "placer": "force",
    "sa_seed_placer": "trivial",
    "sa_rounds": 24,
    "sa_moves_per_round": 400,
    "sa_probe_moves": 64,
    "sa_uphill_probability": 0.85,
    "sa_cooling": 0.82,
    "sa_reheat_threshold": 0.02,
    "sa_reheat_factor": 1.6,
    "sa_move_radius_sites": 3,
    "sa_swap_probability": 0.3,
    "portfolio_members": ("force", "sa", "subgraph"),
    # The interaction-backend override and the sparse tuning knobs are
    # gone; build_problem picks the cutoff and flush interval from size.
    "interaction_backend": "auto",
    "sparse_min_instances": 2048,
    "freq_pair_cutoff_mm": 3.0,
    "freq_pair_skin_mm": 1.5,
    "density_flush_interval": 16,
    "density_move_threshold_mm": 0.01,
}


class TestRetiredFields:
    def test_field_count(self):
        names = {f.name for f in dataclasses.fields(PlacerConfig)}
        assert len(names) == 23
        assert not names & set(RETIRED_FIELDS)
        assert not hasattr(PlacerConfig, "resolved_interaction_backend")

    @pytest.mark.parametrize("name,value", list(RETIRED_FIELDS.items()),
                             ids=list(RETIRED_FIELDS))
    def test_retired_field_is_unknown(self, name, value):
        with pytest.raises(TypeError, match=name):
            PlacerConfig(**{name: value})

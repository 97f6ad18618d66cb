"""Property-based tests for metric invariances on random layouts."""

from dataclasses import replace

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crosstalk.hotspots import hotspot_report
from repro.crosstalk.violations import (find_spatial_violations,
                                       violation_columns)
from repro.devices.components import Qubit
from repro.devices.layout import Layout

positions_strategy = st.lists(
    st.tuples(st.floats(min_value=0, max_value=20, allow_nan=False),
              st.floats(min_value=0, max_value=20, allow_nan=False)),
    min_size=2, max_size=12,
)
level_strategy = st.lists(st.sampled_from([4.8, 4.933, 5.067, 5.2]),
                          min_size=2, max_size=12)


def make_layout(positions, freqs, strategy="prop"):
    n = min(len(positions), len(freqs))
    instances = [
        Qubit(name=f"q{i}", width=0.4, height=0.4, padding=0.4,
              frequency=freqs[i], index=i)
        for i in range(n)
    ]
    return Layout(instances=instances,
                  positions=np.array(positions[:n], float),
                  strategy=strategy)


class TestMetricInvariances:
    @given(positions_strategy, level_strategy)
    @settings(max_examples=50, deadline=None)
    def test_ph_nonnegative(self, positions, freqs):
        layout = make_layout(positions, freqs)
        report = hotspot_report(layout)
        assert report.ph >= 0.0
        assert report.num_impacted_qubits >= 0

    @given(positions_strategy, level_strategy,
           st.floats(min_value=-30, max_value=30),
           st.floats(min_value=-30, max_value=30))
    @settings(max_examples=50, deadline=None)
    def test_metrics_translation_invariant(self, positions, freqs, dx, dy):
        layout = make_layout(positions, freqs)
        shifted = replace(layout,
                          positions=layout.positions + np.array([dx, dy]))
        assert np.isclose(layout.amer(), shifted.amer())
        assert np.isclose(hotspot_report(layout).ph,
                          hotspot_report(shifted).ph)

    @given(positions_strategy, level_strategy)
    @settings(max_examples=50, deadline=None)
    def test_hotspots_subset_of_violations(self, positions, freqs):
        layout = make_layout(positions, freqs)
        violations = find_spatial_violations(layout)
        report = hotspot_report(layout, violations=violation_columns(layout))
        resonant = sum(1 for v in violations if v.resonant)
        assert report.num_hotspots == resonant

    @given(positions_strategy, level_strategy)
    @settings(max_examples=30, deadline=None)
    def test_spreading_never_creates_violations(self, positions, freqs):
        """Scaling all positions outward can only remove violations."""
        layout = make_layout(positions, freqs)
        before = len(find_spatial_violations(layout))
        centre = layout.positions.mean(axis=0)
        spread = replace(layout,
                         positions=centre + 3.0 * (layout.positions - centre))
        after = len(find_spatial_violations(spread))
        assert after <= before

    @given(positions_strategy, level_strategy)
    @settings(max_examples=30, deadline=None)
    def test_violation_symmetry_in_indices(self, positions, freqs):
        layout = make_layout(positions, freqs)
        for v in find_spatial_violations(layout):
            assert v.i < v.j
            assert v.gap_mm >= 0.0
            assert v.g_eff_ghz <= v.g_ghz + 1e-12

"""Regression: the coupling paths must not emit RuntimeWarnings.

The dispersive branch of :func:`effective_coupling_ghz` used to divide
``g*g / delta`` for every positive detuning before discarding the
resonant entries, overflowing for tiny-but-nonzero detunings
(``RuntimeWarning: overflow encountered in divide``).  These tests run
the suite's coupling paths with warnings promoted to errors.
"""

from __future__ import annotations

import warnings

import numpy as np
import pytest

from repro.crosstalk.violations import find_spatial_violations
from repro.physics.coupling import (
    effective_coupling_ghz,
    qubit_qubit_coupling_ghz,
    smooth_exchange_ghz,
)

pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")


class TestEffectiveCouplingGuard:
    def test_tiny_positive_detuning_does_not_overflow(self):
        detunings = np.array([0.0, 1e-300, 1e-30, 1e-9, 0.05, 0.2])
        out = effective_coupling_ghz(0.01, detunings,
                                     resonance_threshold_ghz=0.06)
        assert np.all(np.isfinite(out))
        # Resonant entries return the bare g, dispersive ones g^2/Delta.
        np.testing.assert_allclose(out[:5], 0.01)
        np.testing.assert_allclose(out[5], 0.01 ** 2 / 0.2)

    def test_scalar_path(self):
        assert effective_coupling_ghz(0.02, 1e-300) == 0.02
        assert effective_coupling_ghz(0.02, 0.0) == 0.02

    def test_dispersive_values_unchanged(self):
        g, delta = 0.015, 0.25
        assert effective_coupling_ghz(g, delta) == pytest.approx(
            g * g / delta)

    def test_array_g_with_mixed_detunings(self):
        g = np.array([0.0, 0.01, 0.02])
        delta = np.array([1e-200, 0.0, 0.5])
        out = effective_coupling_ghz(g, delta)
        assert np.all(np.isfinite(out))


class TestSuiteCouplingPathsWarningFree:
    def test_violation_scan_is_warning_free(self, grid9_placed):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            violations = find_spatial_violations(grid9_placed.layout)
        for v in violations:
            assert np.isfinite(v.g_eff_ghz)

    def test_coupling_models_on_extreme_inputs(self):
        d = np.linspace(0.0, 5.0, 50)
        assert np.all(np.isfinite(smooth_exchange_ghz(0.01, d)))
        cp = np.linspace(0.0, 10.0, 20)
        assert np.all(np.isfinite(
            np.asarray(qubit_qubit_coupling_ghz(5.0, 5.1, cp))))

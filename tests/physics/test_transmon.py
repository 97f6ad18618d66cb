"""Unit tests for the transmon energy model."""

import pytest

from repro import constants
from repro.physics.transmon import (
    TransmonParams,
    anharmonicity_ghz,
    charging_energy_ghz,
    josephson_energy_for_frequency,
    qubit_frequency_ghz,
)


class TestChargingEnergy:
    def test_paper_capacitance_gives_300mhz(self):
        # 65 fF -> EC/h ~ 0.3 GHz, matching the ~310 MHz anharmonicity.
        ec = charging_energy_ghz(constants.QUBIT_CAPACITANCE_FF)
        assert ec == pytest.approx(0.298, abs=0.01)

    def test_inverse_in_capacitance(self):
        assert charging_energy_ghz(130.0) == pytest.approx(
            charging_energy_ghz(65.0) / 2.0)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            charging_energy_ghz(0.0)


class TestFrequencyRelations:
    def test_roundtrip(self):
        ec = 0.3
        for f01 in (4.8, 5.0, 5.2):
            ej = josephson_energy_for_frequency(f01, ec)
            assert qubit_frequency_ghz(ej, ec) == pytest.approx(f01)

    def test_transmon_limit(self):
        # A 5 GHz transmon with EC = 0.3 GHz sits deep in EJ/EC >> 1.
        ej = josephson_energy_for_frequency(5.0, 0.3)
        assert ej / 0.3 > 30

    def test_anharmonicity_sign(self):
        assert anharmonicity_ghz(0.3) == -0.3

    def test_validation(self):
        with pytest.raises(ValueError):
            qubit_frequency_ghz(-1.0, 0.3)
        with pytest.raises(ValueError):
            josephson_energy_for_frequency(5.0, 0.0)


class TestTransmonParams:
    def make(self):
        return TransmonParams(f01_ghz=5.0)

    def test_anharmonicity_matches_paper(self):
        # alpha/2pi ~ -310 MHz (Sec. V-C).
        t = self.make()
        assert t.anharmonicity_ghz == pytest.approx(-0.31, abs=0.02)

    def test_level_progression(self):
        t = self.make()
        levels = t.levels_ghz(4)
        assert levels[0] == 0.0
        assert levels[1] == pytest.approx(5.0)
        # f12 = f01 + alpha < f01 (anharmonic ladder).
        f12 = t.transition_frequency_ghz(1, 2)
        assert f12 < 5.0
        assert f12 == pytest.approx(5.0 + t.anharmonicity_ghz)

    def test_transition_antisymmetry(self):
        t = self.make()
        assert t.transition_frequency_ghz(0, 2) == pytest.approx(
            -t.transition_frequency_ghz(2, 0))

    def test_ej_over_ec(self):
        # Deep transmon regime (EJ/EC >> 1; typically ~40-60 at 5 GHz
        # with EC ~ 0.3 GHz).
        t = self.make()
        assert 30 <= t.ej_over_ec <= 150

    def test_negative_level_rejected(self):
        with pytest.raises(ValueError):
            self.make().level_frequency_ghz(-1)

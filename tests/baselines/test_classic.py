"""The Classic baseline is derived from the design config in one place.

Sec. V-B: Classic shares every setting with QPlacer except the
frequency-aware mechanisms.  Every path that places Classic must hand
the engine :meth:`PlacerConfig.classic` of its design config: the base
config with ``frequency_aware``, ``legalize_integration`` and
``chain_aware_tetris`` off and every other field kept.
"""

from dataclasses import fields, replace

import pytest

import repro
from repro import baselines, cli
from repro.analysis import ablation, experiments
from repro.core.config import PlacerConfig
from repro.core.placer import QPlacer

SWITCHES = ("frequency_aware", "legalize_integration", "chain_aware_tetris")

#: A design config with non-default placement, legalization and
#: refinement settings (small iteration counts keep grid-25 fast).
BASE = PlacerConfig(detailed_passes=1, target_density=0.9,
                    qubit_padding_mm=0.25, min_iterations=30,
                    max_iterations=120, qubit_clearance_mm=0.12,
                    segment_clearance_mm=0.06, seed=5)

#: What every path must produce from ``BASE``.
EXPECTED = replace(BASE, **{name: False for name in SWITCHES})


class _Recorder(QPlacer):
    """``QPlacer`` that records the config of every instance."""

    configs = []

    def __init__(self, config=None):
        super().__init__(config)
        _Recorder.configs.append(self.config)


@pytest.fixture
def recorder():
    _Recorder.configs = []
    return _Recorder


def test_same_hyperparameters_as_qplacer():
    classic = PlacerConfig.classic(BASE)
    for f in fields(PlacerConfig):
        if f.name not in SWITCHES:
            assert getattr(classic, f.name) == getattr(BASE, f.name), f.name
    assert classic == EXPECTED
    assert all(getattr(BASE, name) for name in SWITCHES)


def test_no_argument_is_the_default_classic():
    assert PlacerConfig.classic() == PlacerConfig(
        frequency_aware=False, legalize_integration=False,
        chain_aware_tetris=False)
    assert QPlacer(PlacerConfig.classic()).strategy_name == "classic"


def test_build_suite(monkeypatch, recorder):
    monkeypatch.setattr(experiments, "QPlacer", recorder)
    suite = experiments.build_suite(
        "grid-25", segment_size_mm=BASE.segment_size_mm,
        strategies=("qplacer", "classic"), config=BASE)
    assert recorder.configs == [BASE, EXPECTED]
    assert suite.layouts["classic"].strategy == "classic"


def test_ablation_classic_variant():
    assert ablation._variant_config(BASE, "classic") == (EXPECTED, EXPECTED)


def test_disorder_robustness(monkeypatch, recorder):
    monkeypatch.setattr(ablation, "QPlacer", recorder)
    ablation.disorder_robustness("grid-25", sigmas_ghz=(0.0,), trials=1,
                                 config=BASE)
    assert recorder.configs == [BASE, EXPECTED]


def test_place_classic_command(monkeypatch, recorder, capsys):
    monkeypatch.setattr(cli, "QPlacer", recorder)
    argv = ["place", "grid-25", "--seed", "5", "--segment-size", "0.4",
            "--detailed-passes", "1"]
    assert cli.main(argv + ["--classic"]) == 0
    assert "classic" in capsys.readouterr().out
    base = PlacerConfig(segment_size_mm=0.4, seed=5, detailed_passes=1)
    assert recorder.configs == [
        replace(base, **{name: False for name in SWITCHES})]


def test_classic_placer_removed():
    assert not hasattr(repro, "ClassicPlacer")
    assert not hasattr(baselines, "ClassicPlacer")
    assert not hasattr(baselines, "classic_placement")
    with pytest.raises(ImportError):
        __import__("repro.baselines.classic")

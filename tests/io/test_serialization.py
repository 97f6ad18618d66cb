"""Unit tests for layout/plan JSON round-trips."""

import json

import numpy as np
import pytest

from repro.devices import assign_frequencies, grid_topology
from repro.io.serialization import (
    layout_from_dict,
    layout_to_dict,
    load_layout,
    plan_from_dict,
    plan_to_dict,
    save_layout,
)


class TestPlanRoundtrip:
    def test_roundtrip(self):
        plan = assign_frequencies(grid_topology(3, 3))
        rebuilt = plan_from_dict(plan_to_dict(plan))
        assert rebuilt.qubit_freq_ghz == plan.qubit_freq_ghz
        assert rebuilt.resonator_freq_ghz == plan.resonator_freq_ghz
        assert rebuilt.qubit_levels == plan.qubit_levels

    def test_json_serialisable(self):
        plan = assign_frequencies(grid_topology(2, 2))
        text = json.dumps(plan_to_dict(plan))
        assert "qubit_freq_ghz" in text


class TestLayoutRoundtrip:
    def test_roundtrip_positions_and_strategy(self, grid9_placed):
        layout = grid9_placed.layout
        data = layout_to_dict(layout, segment_size_mm=0.3)
        rebuilt = layout_from_dict(data)
        assert np.allclose(rebuilt.positions, layout.positions)
        assert rebuilt.strategy == layout.strategy
        assert [i.name for i in rebuilt.instances] == \
            [i.name for i in layout.instances]

    def test_roundtrip_preserves_metrics(self, grid9_placed):
        from repro.crosstalk import hotspot_report
        layout = grid9_placed.layout
        rebuilt = layout_from_dict(layout_to_dict(layout, 0.3))
        assert rebuilt.amer() == pytest.approx(layout.amer())
        assert hotspot_report(rebuilt).ph == pytest.approx(
            hotspot_report(layout).ph)

    @pytest.mark.parametrize("strategy", ["qplacer", "classic", "human"])
    def test_roundtrip_origin_offset(self, strategy, grid9_placed,
                                     grid9_classic, grid9_netlist):
        from repro.baselines.human import human_layout
        layout = {"qplacer": lambda: grid9_placed.layout,
                  "classic": lambda: grid9_classic.layout,
                  "human": lambda: human_layout(grid9_netlist)}[strategy]()
        assert layout.origin_offset != (0.0, 0.0)
        data = json.loads(json.dumps(layout_to_dict(layout, 0.3)))
        rebuilt = layout_from_dict(data)
        assert rebuilt.origin_offset == layout.origin_offset
        assert np.array_equal(rebuilt.problem_positions,
                              layout.problem_positions)

    def test_document_without_offset_loads_unshifted(self, grid9_placed):
        data = layout_to_dict(grid9_placed.layout, 0.3)
        del data["origin_offset"]
        rebuilt = layout_from_dict(data)
        assert rebuilt.origin_offset == (0.0, 0.0)
        assert np.array_equal(rebuilt.problem_positions, rebuilt.positions)

    def test_file_roundtrip(self, grid9_placed, tmp_path):
        path = tmp_path / "layout.json"
        save_layout(grid9_placed.layout, path, segment_size_mm=0.3)
        rebuilt = load_layout(path)
        assert np.allclose(rebuilt.positions, grid9_placed.layout.positions)

    def test_requires_netlist(self):
        from repro.devices.components import Qubit
        from repro.devices.layout import Layout
        lay = Layout(instances=[Qubit.create(0, 5.0)],
                     positions=np.zeros((1, 2)))
        with pytest.raises(ValueError, match="netlist"):
            layout_to_dict(lay, 0.3)

    def test_bad_format_rejected(self):
        with pytest.raises(ValueError, match="format"):
            layout_from_dict({"format": "something-else"})

    def test_mismatched_segment_size_rejected(self, grid9_placed):
        data = layout_to_dict(grid9_placed.layout, segment_size_mm=0.3)
        data["segment_size_mm"] = 0.4  # rebuild produces other instances
        with pytest.raises(ValueError, match="instance list"):
            layout_from_dict(data)

"""Unit tests for the Layout container and its spatial queries."""

import itertools

import numpy as np
import pytest

from repro.devices.components import Qubit, Resonator
from repro.devices.layout import Layout


def make_layout(positions, freqs=None):
    """Layout of bare 1x1 qubits at given centres."""
    n = len(positions)
    freqs = freqs or [5.0] * n
    instances = [
        Qubit(name=f"q{i}", width=1.0, height=1.0, padding=0.25,
              frequency=freqs[i], index=i)
        for i in range(n)
    ]
    return Layout(instances=instances, positions=np.array(positions, float))


class TestConstruction:
    def test_shape_validation(self):
        q = Qubit.create(0, 5.0)
        with pytest.raises(ValueError):
            Layout(instances=[q], positions=np.zeros((2, 2)))

    def test_positions_coerced_to_float(self):
        layout = make_layout([(0, 0), (2, 0)])
        assert layout.positions.dtype == float


class TestIndexMaps:
    def test_qubit_indices(self):
        layout = make_layout([(0, 0), (3, 0)])
        assert layout.qubit_indices == {0: 0, 1: 1}

    def test_segment_groups(self):
        r = Resonator(name="r0", index=7, endpoints=(0, 1), frequency=6.5)
        segs = list(r.make_segments(0.3)[:3])
        layout = Layout(instances=segs, positions=np.zeros((3, 2)))
        assert layout.segment_indices_by_resonator == {7: [0, 1, 2]}

    def test_qubit_center(self):
        layout = make_layout([(1.5, 2.5)])
        assert layout.qubit_center(0) == (1.5, 2.5)


class TestGeometry:
    def test_amer_apoly_utilization(self):
        layout = make_layout([(0.5, 0.5), (2.5, 0.5)])
        assert layout.amer() == pytest.approx(3.0)
        assert layout.apoly() == pytest.approx(2.0)
        assert layout.utilization() == pytest.approx(2.0 / 3.0)

    def test_rect_and_padded_rect(self):
        layout = make_layout([(0, 0)])
        assert layout.rect(0).w == 1.0
        assert layout.padded_rect(0).w == 1.5

    def test_translated_to_origin(self):
        layout = make_layout([(10, 20), (12, 20)]).translated_to_origin()
        mer = layout.enclosing_rect()
        assert mer.x == pytest.approx(0.0)
        assert mer.y == pytest.approx(0.0)

    def test_translation_is_kept_as_origin_offset(self):
        layout = make_layout([(10.25, 20), (12, 20.5)])
        shifted = layout.translated_to_origin()
        assert shifted.origin_offset == (9.75, 19.5)
        assert np.array_equal(shifted.problem_positions, layout.positions)
        # A second translation is a no-op on the offset.
        again = shifted.translated_to_origin()
        assert again.origin_offset == shifted.origin_offset
        assert np.array_equal(again.positions, shifted.positions)


class TestNeighborPairs:
    def brute_force(self, layout, cutoff, padded=True):
        rects = layout.padded_rects() if padded else layout.rects()
        found = set()
        for i, j in itertools.combinations(range(layout.num_instances), 2):
            if rects[i].gap(rects[j]) <= cutoff:
                found.add((i, j))
        return found

    def test_matches_brute_force_random(self):
        rng = np.random.default_rng(7)
        positions = rng.uniform(0, 10, size=(40, 2))
        layout = make_layout(positions)
        for cutoff in (0.0, 0.5, 1.5):
            fast = {(i, j) for i, j, _ in layout.neighbor_pairs(cutoff)}
            assert fast == self.brute_force(layout, cutoff)

    def test_gap_values_match(self):
        layout = make_layout([(0, 0), (3, 0)])
        pairs = list(layout.neighbor_pairs(2.0))
        assert len(pairs) == 1
        i, j, gap = pairs[0]
        # padded rects are 1.5 wide -> gap = 3 - 1.5 = 1.5
        assert gap == pytest.approx(1.5)

    def test_bare_option(self):
        layout = make_layout([(0, 0), (1.2, 0)])
        padded = list(layout.neighbor_pairs(0.0, padded=True))
        bare = list(layout.neighbor_pairs(0.0, padded=False))
        assert len(padded) == 1   # padded rects overlap
        assert len(bare) == 0     # bare rects have a 0.2 gap

    def test_negative_cutoff_rejected(self):
        layout = make_layout([(0, 0)])
        with pytest.raises(ValueError):
            list(layout.neighbor_pairs(-1.0))

    def test_single_instance_no_pairs(self):
        layout = make_layout([(0, 0)])
        assert list(layout.neighbor_pairs(10.0)) == []

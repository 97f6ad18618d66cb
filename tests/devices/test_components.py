"""Unit tests for the quantum component model."""

import math

import pytest

from repro import constants
from repro.devices.components import (
    Instance,
    Qubit,
    Resonator,
    same_resonator,
)


class TestInstance:
    def test_padded_dimensions(self):
        inst = Instance(name="i", width=0.4, height=0.4, padding=0.1,
                        frequency=5.0)
        assert inst.padded_width == pytest.approx(0.6)
        assert inst.padded_height == pytest.approx(0.6)
        assert inst.padded_area == pytest.approx(0.36)

    def test_rect_at_centering(self):
        inst = Instance(name="i", width=0.4, height=0.2, padding=0.0,
                        frequency=5.0)
        r = inst.rect_at(1.0, 2.0)
        assert r.center == (1.0, 2.0)
        assert (r.w, r.h) == (0.4, 0.2)

    def test_padded_rect_at(self):
        inst = Instance(name="i", width=0.4, height=0.4, padding=0.1,
                        frequency=5.0)
        r = inst.padded_rect_at(0.0, 0.0)
        assert (r.w, r.h) == (pytest.approx(0.6), pytest.approx(0.6))

    def test_resonance_threshold(self):
        a = Instance(name="a", width=1, height=1, padding=0, frequency=5.0)
        b = Instance(name="b", width=1, height=1, padding=0, frequency=5.09)
        c = Instance(name="c", width=1, height=1, padding=0, frequency=5.2)
        assert a.is_resonant_with(b)
        assert not a.is_resonant_with(c)


class TestQubit:
    def test_create_defaults(self):
        q = Qubit.create(index=3, frequency=5.1)
        assert q.name == "q3"
        assert q.width == constants.QUBIT_SIZE_MM
        assert q.padding == constants.QUBIT_PADDING_MM
        assert q.frequency == 5.1
        assert q.index == 3

    def test_paper_pocket_size(self):
        q = Qubit.create(index=0, frequency=5.0)
        # 400 x 400 um^2 pocket (Sec. V-C).
        assert q.area == pytest.approx(0.16)

    def test_padded_footprint(self):
        q = Qubit.create(index=0, frequency=5.0)
        assert q.padded_width == pytest.approx(1.2)


class TestResonator:
    def make(self, freq=6.5):
        return Resonator(name="r0", index=0, endpoints=(0, 1), frequency=freq)

    def test_length_from_frequency(self):
        r = self.make(6.0)
        assert r.length_mm == pytest.approx(130.0 / 12.0)

    def test_paper_length_band(self):
        # 6.0-7.0 GHz -> 10.8 down to 9.2 mm (Sec. V-C).
        assert self.make(6.0).length_mm == pytest.approx(10.83, abs=0.01)
        assert self.make(7.0).length_mm == pytest.approx(9.29, abs=0.01)

    def test_reserved_area(self):
        r = self.make(6.5)
        assert r.reserved_area == pytest.approx(r.length_mm * 0.1)

    def test_segment_count_ceiling(self):
        r = self.make(6.5)
        lb = 0.3
        expected = math.ceil(r.reserved_area / (lb * lb))
        assert r.segment_count(lb) == expected

    def test_segment_count_paper_scale(self):
        # ~11-12 segments per resonator at lb = 0.3 (Table II model).
        assert 10 <= self.make(6.5).segment_count(0.3) <= 13

    def test_segment_count_rejects_bad_size(self):
        with pytest.raises(ValueError):
            self.make().segment_count(0.0)

    def test_make_segments(self):
        r = self.make(6.5)
        segs = r.make_segments(0.3)
        assert len(segs) == r.segment_count(0.3)
        assert all(s.width == 0.3 and s.height == 0.3 for s in segs)
        assert all(s.frequency == r.frequency for s in segs)
        assert all(s.resonator_index == r.index for s in segs)
        assert [s.segment_index for s in segs] == list(range(len(segs)))
        assert segs[0].name == "r0.s0"


class TestSameResonator:
    def test_siblings(self):
        r = Resonator(name="r1", index=1, endpoints=(0, 1), frequency=6.5)
        s1, s2 = r.make_segments(0.3)[:2]
        assert same_resonator(s1, s2)

    def test_different_resonators(self):
        a = Resonator(name="r1", index=1, endpoints=(0, 1), frequency=6.5)
        b = Resonator(name="r2", index=2, endpoints=(1, 2), frequency=6.6)
        assert not same_resonator(a.make_segments(0.3)[0],
                                  b.make_segments(0.3)[0])

    def test_qubit_never_sibling(self):
        r = Resonator(name="r1", index=1, endpoints=(0, 1), frequency=6.5)
        q = Qubit.create(index=1, frequency=5.0)
        assert not same_resonator(q, r.make_segments(0.3)[0])

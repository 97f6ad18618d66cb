"""Unit tests for axis-aligned rectangle geometry."""

import math

import pytest

from repro.devices import geometry
from repro.devices.geometry import (
    Rect,
    area_utilization,
    has_overlaps,
    minimum_enclosing_rect,
    pack_rows,
    pairwise_overlap_area,
    total_polygon_area,
)

from ..oracles.geometry import (adjacency_length, centroid_distance,
                                touches_or_intersects)


class TestRectBasics:
    def test_corners_and_center(self):
        r = Rect(1.0, 2.0, 3.0, 4.0)
        assert r.x2 == 4.0
        assert r.y2 == 6.0
        assert r.center == (2.5, 4.0)

    def test_area(self):
        assert Rect(0, 0, 3, 4).area == 12.0

    def test_zero_size_allowed(self):
        assert Rect(0, 0, 0, 0).area == 0.0

    def test_negative_dims_rejected(self):
        with pytest.raises(ValueError):
            Rect(0, 0, -1, 2)
        with pytest.raises(ValueError):
            Rect(0, 0, 1, -2)

    def test_from_center_roundtrip(self):
        r = Rect.from_center(5.0, 7.0, 2.0, 4.0)
        assert r.center == (5.0, 7.0)
        assert (r.w, r.h) == (2.0, 4.0)

    def test_moved_to_center(self):
        r = Rect(0, 0, 2, 2).moved_to_center(10, 10)
        assert r.center == (10.0, 10.0)
        assert (r.w, r.h) == (2.0, 2.0)

    def test_inflated_grows_both_sides(self):
        r = Rect(0, 0, 2, 2).inflated(0.5)
        assert (r.x, r.y, r.w, r.h) == (-0.5, -0.5, 3.0, 3.0)

    def test_inflated_negative_margin(self):
        r = Rect(0, 0, 2, 2).inflated(-0.5)
        assert (r.w, r.h) == (1.0, 1.0)

    def test_inflated_rejects_overshrink(self):
        with pytest.raises(ValueError):
            Rect(0, 0, 1, 1).inflated(-0.6)


class TestRectRelations:
    def test_overlap_amounts(self):
        a = Rect(0, 0, 2, 2)
        b = Rect(1, 1, 2, 2)
        assert a.overlap_x(b) == 1.0
        assert a.overlap_y(b) == 1.0
        assert a.overlap_area(b) == 1.0

    def test_disjoint_overlap_zero(self):
        a = Rect(0, 0, 1, 1)
        b = Rect(5, 5, 1, 1)
        assert a.overlap_area(b) == 0.0
        assert not a.intersects(b)

    def test_touching_not_intersecting(self):
        a = Rect(0, 0, 1, 1)
        b = Rect(1, 0, 1, 1)
        assert not a.intersects(b)
        assert touches_or_intersects(a, b)

    def test_contains_point(self):
        r = Rect(0, 0, 2, 2)
        assert r.contains_point(1, 1)
        assert r.contains_point(0, 0)
        assert not r.contains_point(3, 1)

    def test_contains_rect(self):
        outer = Rect(0, 0, 4, 4)
        assert outer.contains_rect(Rect(1, 1, 2, 2))
        assert not outer.contains_rect(Rect(3, 3, 2, 2))

    def test_centroid_distance(self):
        a = Rect(0, 0, 2, 2)
        b = Rect(3, 4, 2, 2)
        assert centroid_distance(a, b) == pytest.approx(5.0)

    def test_gap_disjoint_orthogonal(self):
        a = Rect(0, 0, 1, 1)
        b = Rect(2, 0, 1, 1)
        assert a.gap(b) == pytest.approx(1.0)

    def test_gap_diagonal_euclidean(self):
        a = Rect(0, 0, 1, 1)
        b = Rect(2, 2, 1, 1)
        assert a.gap(b) == pytest.approx(math.sqrt(2.0))

    def test_gap_overlapping_zero(self):
        a = Rect(0, 0, 2, 2)
        b = Rect(1, 1, 2, 2)
        assert a.gap(b) == 0.0

    def test_union(self):
        a = Rect(0, 0, 1, 1)
        b = Rect(2, 3, 1, 1)
        u = a.union(b)
        assert (u.x, u.y, u.x2, u.y2) == (0, 0, 3, 4)


class TestAdjacencyLength:
    def test_side_by_side(self):
        a = Rect(0, 0, 1, 2)
        b = Rect(1, 0.5, 1, 2)
        assert adjacency_length(a, b) == pytest.approx(1.5)

    def test_overlapping_uses_longer_axis(self):
        a = Rect(0, 0, 2, 2)
        b = Rect(1, 0.5, 2, 2)
        assert adjacency_length(a, b) == pytest.approx(1.5)

    def test_disjoint_zero(self):
        assert adjacency_length(Rect(0, 0, 1, 1), Rect(5, 5, 1, 1)) == 0.0

    def test_corner_touch(self):
        a = Rect(0, 0, 1, 1)
        b = Rect(1, 1, 1, 1)
        assert adjacency_length(a, b) == 0.0


class TestRemovedSurface:
    """Pair relations only the oracles read live in ``tests/oracles``."""

    @pytest.mark.parametrize("owner,name", [
        (geometry, "adjacency_length"), (Rect, "centroid_distance"),
        (Rect, "touches_or_intersects")])
    def test_moved_to_oracles(self, owner, name):
        assert not hasattr(owner, name)


class TestAggregates:
    def test_minimum_enclosing_rect(self):
        rects = [Rect(0, 0, 1, 1), Rect(3, 4, 2, 1)]
        mer = minimum_enclosing_rect(rects)
        assert (mer.x, mer.y, mer.x2, mer.y2) == (0, 0, 5, 5)

    def test_mer_empty_rejected(self):
        with pytest.raises(ValueError):
            minimum_enclosing_rect([])

    def test_total_polygon_area(self):
        assert total_polygon_area([Rect(0, 0, 2, 2), Rect(9, 9, 1, 3)]) == 7.0

    def test_utilization_perfect_tiling(self):
        rects = [Rect(0, 0, 1, 1), Rect(1, 0, 1, 1)]
        assert area_utilization(rects) == pytest.approx(1.0)

    def test_utilization_half(self):
        rects = [Rect(0, 0, 1, 1), Rect(3, 0, 1, 1)]
        assert area_utilization(rects) == pytest.approx(0.5)

    def test_pairwise_overlap_area(self):
        rects = [Rect(0, 0, 2, 2), Rect(1, 0, 2, 2), Rect(10, 10, 1, 1)]
        assert pairwise_overlap_area(rects) == pytest.approx(2.0)

    def test_has_overlaps_true(self):
        assert has_overlaps([Rect(0, 0, 2, 2), Rect(1, 1, 2, 2)])

    def test_has_overlaps_false_for_touching(self):
        assert not has_overlaps([Rect(0, 0, 1, 1), Rect(1, 0, 1, 1)])

    def test_has_overlaps_large_legal_set(self):
        rects = [Rect(i * 1.0, j * 1.0, 0.9, 0.9)
                 for i in range(10) for j in range(10)]
        assert not has_overlaps(rects)


class TestPackRows:
    def test_single_row(self):
        rects = [Rect(0, 0, 1, 1)] * 3
        packed = pack_rows(rects, row_width=5)
        assert [r.x for r in packed] == [0, 1, 2]
        assert all(r.y == 0 for r in packed)

    def test_wraps_to_new_shelf(self):
        rects = [Rect(0, 0, 2, 1)] * 3
        packed = pack_rows(rects, row_width=4)
        assert packed[2].y == 1.0
        assert packed[2].x == 0.0

    def test_no_overlaps_after_packing(self):
        rects = [Rect(0, 0, 1.5, 1.0), Rect(0, 0, 1.0, 2.0),
                 Rect(0, 0, 2.0, 0.5), Rect(0, 0, 0.5, 0.5)]
        packed = pack_rows(rects, row_width=3)
        assert not has_overlaps(packed)

    def test_rejects_bad_width(self):
        with pytest.raises(ValueError):
            pack_rows([Rect(0, 0, 1, 1)], row_width=0)

"""Property-based tests for rectangle geometry invariants."""

import math

from hypothesis import given
from hypothesis import strategies as st

from repro.devices.geometry import (
    Rect,
    minimum_enclosing_rect,
    total_polygon_area,
)

from ..oracles.geometry import adjacency_length, touches_or_intersects

coords = st.floats(min_value=-100, max_value=100,
                   allow_nan=False, allow_infinity=False)
dims = st.floats(min_value=0.01, max_value=50,
                 allow_nan=False, allow_infinity=False)


@st.composite
def rects(draw):
    return Rect(draw(coords), draw(coords), draw(dims), draw(dims))


class TestPairInvariants:
    @given(rects(), rects())
    def test_overlap_symmetric(self, a, b):
        assert a.overlap_area(b) == b.overlap_area(a)

    @given(rects(), rects())
    def test_gap_symmetric(self, a, b):
        assert math.isclose(a.gap(b), b.gap(a), abs_tol=1e-9)

    @given(rects(), rects())
    def test_gap_zero_iff_touching(self, a, b):
        gap = a.gap(b)
        if a.intersects(b):
            assert gap == 0.0
        if gap > 1e-9:
            assert not touches_or_intersects(a, b)

    @given(rects(), rects())
    def test_overlap_bounded_by_smaller_area(self, a, b):
        assert a.overlap_area(b) <= min(a.area, b.area) + 1e-9

    @given(rects(), rects())
    def test_adjacency_length_symmetric(self, a, b):
        assert math.isclose(adjacency_length(a, b), adjacency_length(b, a),
                            abs_tol=1e-9)

    @given(rects(), rects())
    def test_adjacency_bounded_by_extents(self, a, b):
        bound = min(max(a.w, a.h), max(b.w, b.h)) + 1e-9
        assert adjacency_length(a, b) <= bound

    @given(rects(), rects())
    def test_union_contains_both(self, a, b):
        u = a.union(b)
        assert u.contains_rect(a)
        assert u.contains_rect(b)


class TestSelfInvariants:
    @given(rects())
    def test_self_overlap_is_area(self, r):
        # rel_tol covers the (x + w) - x != w floating-point roundoff.
        assert math.isclose(r.overlap_area(r), r.area, rel_tol=1e-6)

    @given(rects(), st.floats(min_value=0, max_value=10))
    def test_inflation_grows_area(self, r, margin):
        assert r.inflated(margin).area >= r.area

    @given(rects(), coords, coords)
    def test_move_preserves_dims(self, r, cx, cy):
        moved = r.moved_to_center(cx, cy)
        assert math.isclose(moved.w, r.w)
        assert math.isclose(moved.h, r.h)
        assert math.isclose(moved.cx, cx, abs_tol=1e-9)


class TestAggregateInvariants:
    @given(st.lists(rects(), min_size=1, max_size=12))
    def test_mer_contains_everything(self, rect_list):
        mer = minimum_enclosing_rect(rect_list)
        for r in rect_list:
            assert mer.contains_rect(r, tol=1e-9)

    @given(st.lists(rects(), min_size=1, max_size=12))
    def test_mer_is_tight(self, rect_list):
        mer = minimum_enclosing_rect(rect_list)
        assert any(math.isclose(r.x, mer.x, abs_tol=1e-9) for r in rect_list)
        assert any(math.isclose(r.x2, mer.x2, abs_tol=1e-9) for r in rect_list)

    @given(st.lists(rects(), min_size=1, max_size=12))
    def test_apoly_nonnegative_additive(self, rect_list):
        total = total_polygon_area(rect_list)
        assert total >= max(r.area for r in rect_list) - 1e-9

"""Property-based tests: the legalizer's array-backed slot grid.

The grid is a *superset screen*: for any query point and per-axis
radius, every tracked instance whose centre lies within that radius on
both axes must be returned (extras sharing the covered cells are fine —
callers re-check exact distances).  These properties pin that contract,
and the add/remove/move bookkeeping, against a brute-force oracle over
random operation sequences.

The order of the returned ids is part of the contract too: the detailed
placer breaks gain ties by it.  :class:`LinkedCells` is a dict-of-lists
oracle with linked-cell semantics (cells in key order, newest member
first) that the grid must match exactly, including after growing past
its initial extent in every direction and past its initial slot depth.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.legalizer import _INITIAL_SLOTS, _SlotGrid

CELL = 0.35
COORD = st.floats(min_value=-20.0, max_value=20.0,
                  allow_nan=False, allow_infinity=False)


@st.composite
def op_sequences(draw):
    """Random add/remove/move sequences over a small index space."""
    capacity = draw(st.integers(min_value=1, max_value=12))
    n_ops = draw(st.integers(min_value=1, max_value=40))
    ops = []
    for _ in range(n_ops):
        idx = draw(st.integers(min_value=0, max_value=capacity - 1))
        kind = draw(st.sampled_from(("add", "remove", "move")))
        ops.append((kind, idx, draw(COORD), draw(COORD)))
    return capacity, ops


def _apply(capacity, ops):
    """Run the ops through the hash and a dict oracle in lockstep.

    ``add`` on an already-present index and ``remove`` on an absent one
    are normalised to the legalizer's actual usage (move / no-op).
    """
    hash_ = _SlotGrid(CELL, capacity)
    oracle = {}
    for kind, idx, x, y in ops:
        if kind == "add":
            if idx in oracle:
                hash_.move(idx, x, y)
            else:
                hash_.add(idx, x, y)
            oracle[idx] = (x, y)
        elif kind == "remove":
            hash_.remove(idx)
            oracle.pop(idx, None)
        else:
            hash_.move(idx, x, y)
            oracle[idx] = (x, y)
    return hash_, oracle


class TestSupersetScreen:
    @given(op_sequences(), COORD, COORD,
           st.floats(min_value=0.0, max_value=3.0, allow_nan=False))
    @settings(max_examples=120, deadline=None)
    def test_near_array_superset(self, seq, qx, qy, radius):
        capacity, ops = seq
        hash_, oracle = _apply(capacity, ops)
        got = set(hash_.near_array(qx, qy, radius).tolist())
        for idx, (x, y) in oracle.items():
            if abs(x - qx) <= radius and abs(y - qy) <= radius:
                assert idx in got, (idx, (x, y), (qx, qy), radius)
        # Everything returned is actually tracked.
        assert got <= set(oracle)

    @given(op_sequences(),
           st.lists(st.tuples(COORD, COORD), min_size=1, max_size=6),
           st.floats(min_value=0.0, max_value=3.0, allow_nan=False))
    @settings(max_examples=120, deadline=None)
    def test_near_many_superset(self, seq, points, radius):
        capacity, ops = seq
        hash_, oracle = _apply(capacity, ops)
        xs = np.array([p[0] for p in points])
        ys = np.array([p[1] for p in points])
        result = hash_.near_many(xs, ys, radius)
        got = set(result.tolist())
        for idx, (x, y) in oracle.items():
            if any(abs(x - qx) <= radius and abs(y - qy) <= radius
                   for qx, qy in points):
                assert idx in got, (idx, (x, y), radius)
        assert got <= set(oracle)
        # Each tracked instance occupies exactly one cell: no duplicates.
        assert len(got) == result.size

    @given(op_sequences())
    @settings(max_examples=120, deadline=None)
    def test_membership_matches_oracle(self, seq):
        capacity, ops = seq
        hash_, oracle = _apply(capacity, ops)
        # A huge radius around the origin must return exactly the
        # tracked set (coords are bounded by the strategy).
        got = set(hash_.near_array(0.0, 0.0, 100.0).tolist())
        assert got == set(oracle)

    @given(op_sequences())
    @settings(max_examples=60, deadline=None)
    def test_near_generator_matches_array(self, seq):
        capacity, ops = seq
        hash_, _ = _apply(capacity, ops)
        assert set(hash_.near(1.0, -1.0, 2.0)) == \
            set(hash_.near_array(1.0, -1.0, 2.0).tolist())

    @given(op_sequences())
    @settings(max_examples=60, deadline=None)
    def test_remove_is_idempotent(self, seq):
        capacity, ops = seq
        hash_, oracle = _apply(capacity, ops)
        for idx in range(capacity):
            hash_.remove(idx)
            hash_.remove(idx)  # second remove must be a no-op
        assert hash_.near_array(0.0, 0.0, 100.0).size == 0


class LinkedCells:
    """Oracle: one newest-first member list per cell, cells in key order."""

    def __init__(self, cell):
        self.cell = cell
        self.cells = {}
        self.where = {}

    def _key(self, x, y):
        return (math.floor(x / self.cell), math.floor(y / self.cell))

    def add(self, idx, x, y):
        key = self._key(x, y)
        self.cells.setdefault(key, []).insert(0, idx)
        self.where[idx] = key

    def remove(self, idx):
        key = self.where.pop(idx, None)
        if key is not None:
            self.cells[key].remove(idx)

    def block(self, x0, x1, y0, y1):
        out = []
        for cx in range(x0, x1 + 1):
            for cy in range(y0, y1 + 1):
                out.extend(self.cells.get((cx, cy), ()))
        return out

    def near(self, x, y, radius):
        span = math.ceil(radius / self.cell)
        kx, ky = self._key(x, y)
        return self.block(kx - span, kx + span, ky - span, ky + span)

    def near_many(self, xs, ys, radius):
        span = math.ceil(radius / self.cell)
        lo = self._key(min(xs), min(ys))
        hi = self._key(max(xs), max(ys))
        return self.block(lo[0] - span, hi[0] + span,
                          lo[1] - span, hi[1] + span)


def _apply_both(capacity, ops, cell=CELL):
    """Run the ops through the grid and the linked-cell oracle."""
    grid = _SlotGrid(cell, capacity)
    oracle = LinkedCells(cell)
    for kind, idx, x, y in ops:
        if kind == "remove":
            grid.remove(idx)
            oracle.remove(idx)
        else:
            # ``add`` of a present index is a move, as in the legalizer.
            grid.move(idx, x, y)
            oracle.remove(idx)
            oracle.add(idx, x, y)
    return grid, oracle


#: Coordinates drawn from a few spots, so cells overflow their slots.
CROWDED = st.sampled_from((-7.3, -0.1, 0.0, 0.2, 5.05, 19.9))


@st.composite
def crowded_sequences(draw):
    """Op sequences over up to 24 ids that pile up in a few cells."""
    capacity = draw(st.integers(min_value=1, max_value=24))
    n_ops = draw(st.integers(min_value=1, max_value=80))
    coord = st.one_of(CROWDED, COORD)
    ops = []
    for _ in range(n_ops):
        idx = draw(st.integers(min_value=0, max_value=capacity - 1))
        kind = draw(st.sampled_from(("add", "add", "remove", "move")))
        ops.append((kind, idx, draw(coord), draw(coord)))
    return capacity, ops


class TestOrderMatchesLinkedCells:
    @given(st.one_of(op_sequences(), crowded_sequences()), COORD, COORD,
           st.floats(min_value=0.0, max_value=3.0, allow_nan=False))
    @settings(max_examples=200, deadline=None)
    def test_near_array_matches_oracle(self, seq, qx, qy, radius):
        capacity, ops = seq
        grid, oracle = _apply_both(capacity, ops)
        assert grid.near_array(qx, qy, radius).tolist() == \
            oracle.near(qx, qy, radius)
        assert list(grid.near(qx, qy, radius)) == oracle.near(qx, qy, radius)

    @given(st.one_of(op_sequences(), crowded_sequences()),
           st.lists(st.tuples(COORD, COORD), min_size=1, max_size=6),
           st.floats(min_value=0.0, max_value=3.0, allow_nan=False))
    @settings(max_examples=120, deadline=None)
    def test_near_many_matches_oracle(self, seq, points, radius):
        capacity, ops = seq
        grid, oracle = _apply_both(capacity, ops)
        xs = [p[0] for p in points]
        ys = [p[1] for p in points]
        assert grid.near_many(np.array(xs), np.array(ys), radius).tolist() \
            == oracle.near_many(xs, ys, radius)

    def test_grows_in_every_direction(self):
        grid = _SlotGrid(1.0, 8, lo=(0.0, 0.0), hi=(2.0, 2.0))
        oracle = LinkedCells(1.0)
        spots = [(1.5, 1.5), (-40.2, 0.5), (55.0, 0.5), (0.5, -33.3),
                 (0.5, 71.9), (-150.0, -150.0), (150.0, 150.0),
                 (-0.5, -0.5)]
        for idx, (x, y) in enumerate(spots):
            grid.add(idx, x, y)
            oracle.add(idx, x, y)
        for x, y in spots:
            assert grid.near_array(x, y, 0.5).tolist() == \
                oracle.near(x, y, 0.5)
        assert sorted(grid.near_array(0.0, 0.0, 200.0).tolist()) == \
            list(range(len(spots)))
        # Far-off empty queries clip to nothing.
        assert grid.near_array(-5e3, 5e3, 1.0).size == 0

    def test_cell_deeper_than_initial_slots(self):
        depth = 3 * _INITIAL_SLOTS + 1
        grid = _SlotGrid(1.0, depth + 1)
        oracle = LinkedCells(1.0)
        for idx in range(depth):
            grid.add(idx, 0.25 + 0.01 * idx, 0.5)
            oracle.add(idx, 0.25 + 0.01 * idx, 0.5)
        assert grid.near_array(0.5, 0.5, 0.0).tolist() == \
            list(range(depth - 1, -1, -1))
        # Removal from the middle keeps the survivors' order.
        for idx in (0, depth // 2, depth - 1):
            grid.remove(idx)
            oracle.remove(idx)
        grid.add(depth, 0.9, 0.9)
        oracle.add(depth, 0.9, 0.9)
        assert grid.near_array(0.5, 0.5, 0.0).tolist() == \
            oracle.near(0.5, 0.5, 0.0)

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

The engine's frequency neighbor list screens candidates through the
same kind of grid with a band dimension added
(:func:`~repro.core.interactions.frequency_bands`).  Its properties:
every resonant pair is at most one band label apart, on palette-like
frequency sets (levels with gaps just below, at and just above the
threshold, including decimal gaps such as 5.0/5.2 at 0.2 that floats
cannot hold exactly) and on continuous (disordered) ones, and the
:class:`~repro.core.interactions.PrunedCollisionPairs` pair array equals
a brute-force scan byte for byte.
"""

import math

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.interactions import PrunedCollisionPairs, frequency_bands
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
    def test_near_box_superset(self, seq, points, radius):
        capacity, ops = seq
        hash_, oracle = _apply(capacity, ops)
        xs = [p[0] for p in points]
        ys = [p[1] for p in points]
        result = hash_.near_box(min(xs), max(xs), min(ys), max(ys), radius)
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
    def test_near_array_is_the_point_box(self, seq):
        capacity, ops = seq
        hash_, _ = _apply(capacity, ops)
        assert hash_.near_array(1.0, -1.0, 2.0).tolist() == \
            hash_.near_box(1.0, 1.0, -1.0, -1.0, 2.0).tolist()

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

    def near_box(self, xs, ys, radius):
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

    @given(st.one_of(op_sequences(), crowded_sequences()),
           st.lists(st.tuples(COORD, COORD), min_size=1, max_size=6),
           st.floats(min_value=0.0, max_value=3.0, allow_nan=False))
    @settings(max_examples=120, deadline=None)
    def test_near_box_matches_oracle(self, seq, points, radius):
        capacity, ops = seq
        grid, oracle = _apply_both(capacity, ops)
        xs = [p[0] for p in points]
        ys = [p[1] for p in points]
        assert grid.near_box(min(xs), max(xs), min(ys), max(ys),
                             radius).tolist() \
            == oracle.near_box(xs, ys, radius)

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


# ---------------------------------------------------------------------------
# frequency band labels and the banded neighbor list
# ---------------------------------------------------------------------------

THRESHOLDS = st.sampled_from((0.05, 0.1, 0.125, 0.15, 0.2, 0.25, 0.3))


@st.composite
def palette_frequencies(draw):
    """Threshold plus instance frequencies drawn from a level palette.

    Level gaps sit just below, at or just above the threshold, or well
    beyond it; levels are rounded to decimals, so gaps "at" the
    threshold land on either side of it in binary floating point.
    """
    threshold = draw(THRESHOLDS)
    gaps = draw(st.lists(st.sampled_from(("below", "at", "above", "far")),
                         min_size=0, max_size=8))
    level = draw(st.sampled_from((4.8, 5.0, 5.13, 6.2)))
    levels = [level]
    for kind in gaps:
        level += {"below": threshold - 1e-6, "at": threshold,
                  "above": threshold + 1e-6,
                  "far": threshold * draw(st.sampled_from((1.11, 1.33, 2.5)))
                  }[kind]
        levels.append(round(level, 9))
    n = draw(st.integers(min_value=2, max_value=40))
    freqs = [draw(st.sampled_from(levels)) for _ in range(n)]
    return threshold, np.asarray(freqs)


@st.composite
def disordered_frequencies(draw):
    """Threshold plus continuous frequencies (a disordered chip)."""
    threshold = draw(THRESHOLDS)
    n = draw(st.integers(min_value=2, max_value=40))
    freq = st.floats(min_value=4.5, max_value=6.5, allow_nan=False)
    return threshold, np.asarray(draw(st.lists(freq, min_size=n,
                                               max_size=n)))


FREQUENCY_SETS = st.one_of(palette_frequencies(), disordered_frequencies())


def _brute_force_pairs(positions, freqs, res, threshold, reach):
    """Every resonant, non-sibling ``i < j`` pair within ``reach``, by an
    all-pairs ``triu`` scan (lex order)."""
    i, j = np.triu_indices(freqs.size, k=1)
    dx = positions[i, 0] - positions[j, 0]
    dy = positions[i, 1] - positions[j, 1]
    keep = ((np.abs(freqs[i] - freqs[j]) <= threshold)
            & ~((res[i] >= 0) & (res[i] == res[j]))
            & (dx * dx + dy * dy <= reach * reach))
    return np.stack([i[keep], j[keep]], axis=1).astype(np.int64)


class TestFrequencyBandLabels:
    @given(FREQUENCY_SETS)
    # Gaps at the threshold: 5.2 - 5.0 rounds above 0.2, 5.25 - 5.0 is
    # exactly 0.25.
    @example((0.2, np.array([5.0, 5.2, 5.4])))
    @example((0.25, np.array([5.0, 5.25, 5.5, 5.0])))
    @settings(max_examples=200, deadline=None)
    def test_resonant_pairs_at_most_one_label_apart(self, case):
        threshold, freqs = case
        bands = frequency_bands(freqs, threshold)
        for a in range(freqs.size):
            for b in range(freqs.size):
                if abs(freqs[a] - freqs[b]) <= threshold:
                    assert abs(int(bands[a]) - int(bands[b])) <= 1, \
                        (freqs[a], freqs[b], bands[a], bands[b])

    @given(FREQUENCY_SETS, st.data())
    @settings(max_examples=150, deadline=None)
    def test_neighbor_list_matches_brute_force(self, case, data):
        threshold, freqs = case
        n = freqs.size
        positions = np.asarray(data.draw(st.lists(
            st.tuples(st.floats(0.0, 8.0), st.floats(0.0, 8.0)),
            min_size=n, max_size=n)), dtype=float)
        res = np.asarray(data.draw(st.lists(
            st.integers(min_value=-1, max_value=3), min_size=n, max_size=n)),
            dtype=np.int64)
        cutoff, skin = 1.5, 0.5
        provider = PrunedCollisionPairs(freqs, res, threshold,
                                        cutoff_mm=cutoff, skin_mm=skin)
        got = provider.pairs(positions)
        expected = _brute_force_pairs(positions, freqs, res, threshold,
                                      cutoff + skin)
        assert got.dtype == expected.dtype
        assert got.shape == expected.shape
        assert got.tobytes() == expected.tobytes()

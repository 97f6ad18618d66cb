"""Incremental re-place repair against frozen design geometry."""

from __future__ import annotations

import functools
import hashlib
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import PlacerConfig, QPlacer
from repro.core.preprocess import build_problem
from repro.devices import build_netlist, get_topology, netlist_with_frequencies
from repro.ensembles import (
    DisorderSpec,
    check_layout_legal,
    problem_with_frequencies,
    repair_sample,
    sample_batch,
)
from repro.ensembles.repair import (_intended_mask, _pair_gaps,
                                    place_from_scratch)

from ..core.test_placement_golden import GOLDEN


def _oracle_failures(problem, positions, tol=1e-9):
    """Rules an all-pairs ``triu`` scan finds broken.

    The legality check as it stood before its candidates came from a
    grid: every ``i < j`` pair is screened for bare overlap and
    clearance, and the resonant collision pairs for padding.  The
    layout is legal exactly when the returned set is empty.
    """
    pos = np.asarray(positions, dtype=float)
    iu, ju = np.triu_indices(problem.num_instances, k=1)
    gap = _pair_gaps(problem, pos, iu, ju)
    failures = set()
    if (gap < -tol).any():
        failures.add("overlap")
    intended = _intended_mask(problem, iu, ju)
    required = 0.5 * (problem.clearances[iu] + problem.clearances[ju])
    if (gap[~intended] < required[~intended] - tol).any():
        failures.add("clearance")
    pairs = np.asarray(problem.collision_pairs, dtype=np.int64)
    if pairs.size:
        a, b = pairs[:, 0], pairs[:, 1]
        unintended = ~_intended_mask(problem, a, b)
        a, b = a[unintended], b[unintended]
        spacing = problem.paddings[a] + problem.paddings[b]
        if (_pair_gaps(problem, pos, a, b) < spacing - 1e-6).any():
            failures.add("padding")
    return failures


@functools.lru_cache(maxsize=None)
def _placed(topology_name):
    """Default-config QPlacer problem and positions (placed once)."""
    result = QPlacer(PlacerConfig()).place(
        build_netlist(get_topology(topology_name)))
    return result.problem, result.layout.positions


@pytest.fixture(scope="module")
def design(grid9_netlist, fast_config):
    return build_problem(grid9_netlist, fast_config)


@pytest.fixture(scope="module")
def noisy_netlist(grid9_netlist):
    batch = sample_batch(grid9_netlist, DisorderSpec(0.05, 0.05),
                         base_seed=0, count=1)
    return netlist_with_frequencies(grid9_netlist, *batch.row(0))


class TestCheckLayoutLegal:
    def test_placed_layout_is_legal(self, design, grid9_placed):
        assert check_layout_legal(design, grid9_placed.layout.positions)

    def test_overlap_detected(self, design, grid9_placed):
        positions = grid9_placed.layout.positions.copy()
        positions[1] = positions[0]  # stack two instances
        assert not check_layout_legal(design, positions)

    def test_shape_mismatch_rejected(self, design):
        with pytest.raises(ValueError):
            check_layout_legal(design, np.zeros((3, 2)))


@st.composite
def nudged_layouts(draw):
    """A placed paper layout with one or two instances nudged.

    Offsets are log-uniform between 1e-4 and 1 mm along x, y or both,
    so nudges range from harmless to overlapping a neighbour.
    """
    name = draw(st.sampled_from(("grid-25", "falcon-27")))
    problem, positions = _placed(name)
    pos = positions.copy()
    moved = draw(st.lists(st.integers(0, problem.num_instances - 1),
                          min_size=1, max_size=2, unique=True))
    for k in moved:
        for axis in draw(st.sampled_from(((0,), (1,), (0, 1)))):
            magnitude = 10.0 ** draw(st.floats(-4.0, 0.0))
            pos[k, axis] += draw(st.sampled_from((-1.0, 1.0))) * magnitude
    return problem, pos


class TestLegalityMatchesAllPairsOracle:
    @given(nudged_layouts())
    @settings(max_examples=150, deadline=None)
    def test_nudged_paper_layouts(self, case):
        problem, pos = case
        assert check_layout_legal(problem, pos) \
            == (not _oracle_failures(problem, pos))

    def test_nudged_eagle_layout(self):
        problem, positions = _placed("eagle-127")
        assert check_layout_legal(problem, positions)
        rng = np.random.default_rng(7)
        for _ in range(4):
            pos = positions.copy()
            moved = rng.choice(problem.num_instances, size=2, replace=False)
            pos[moved] += rng.choice((-1.0, 1.0), size=(2, 2)) \
                * 10.0 ** rng.uniform(-4.0, 0.0, size=(2, 2))
            assert check_layout_legal(problem, pos) \
                == (not _oracle_failures(problem, pos))


class TestOneRuleBroken:
    """Each layout breaks exactly one rule of the legality contract."""

    PITCH_MM = 5.0

    @pytest.fixture(scope="class")
    def spread(self, design):
        """Every instance on a lattice far wider than any reach: legal."""
        side = int(np.ceil(np.sqrt(design.num_instances)))
        k = np.arange(design.num_instances)
        pos = self.PITCH_MM * np.stack([k % side, k // side], axis=1) \
            .astype(float)
        assert _oracle_failures(design, pos) == set()
        assert check_layout_legal(design, pos)
        return pos

    @staticmethod
    def _beside(spread, a, b, dx, dy=0.0):
        pos = spread.copy()
        pos[b] = pos[a] + (dx, dy)
        return pos

    @staticmethod
    def _pair(design, want):
        """First unintended pair ``(a, b)`` for which ``want`` holds."""
        for a, b in itertools.combinations(range(design.num_instances), 2):
            if not design.is_intended_pair(a, b) and want(a, b):
                return a, b
        raise AssertionError("no such pair")

    def _assert_breaks(self, design, pos, rule):
        assert _oracle_failures(design, pos) == {rule}
        assert not check_layout_legal(design, pos)

    def test_bare_overlap(self, design, spread):
        res = design.resonator_index
        a = int(np.flatnonzero(res >= 0)[0])
        b = int(np.flatnonzero(res == res[a])[1])  # a sibling segment
        self._assert_breaks(design, self._beside(spread, a, b, 0.1),
                            "overlap")

    def test_clearance_only(self, design, spread):
        seg = ~design.is_qubit
        a, b = self._pair(design, lambda a, b: seg[a] and seg[b]
                          and not design.is_resonant_pair(a, b))
        width = design.sizes[a, 0]
        self._assert_breaks(
            design, self._beside(spread, a, b, width + 0.02), "clearance")

    def test_padding_only_on_resonant_pair(self, design, spread):
        seg = ~design.is_qubit
        a, b = self._pair(design, lambda a, b: seg[a] and seg[b]
                          and design.is_resonant_pair(a, b))
        width = design.sizes[a, 0]
        gap = 0.5 * (design.paddings[a] + design.paddings[b])
        assert design.required_gap(a, b, resonant=False) < gap
        self._assert_breaks(
            design, self._beside(spread, a, b, 0.0, width + gap), "padding")

    def test_pair_exactly_at_grid_reach(self, design, spread):
        reach = 2.0 * float(np.max(0.5 * design.sizes.max(axis=1)
                                   + 0.5 * design.clearances))
        widest = np.flatnonzero(
            0.5 * design.sizes.max(axis=1) + 0.5 * design.clearances
            == 0.5 * reach)
        a, b = self._pair(design, lambda a, b: a in widest and b in widest
                          and not design.is_resonant_pair(a, b))
        # Slide the pair across the plane so it straddles every grid
        # cell alignment, along each axis.
        for axis, shift in itertools.product((0, 1),
                                             np.linspace(0.0, 1.0, 41)):
            def beside(distance):
                offset = [0.0, 0.0]
                offset[axis] = distance
                pos = self._beside(spread, a, b, *offset)
                pos[[a, b], axis] += shift
                return pos

            pos = beside(reach)
            assert _oracle_failures(design, pos) == set()
            assert check_layout_legal(design, pos)
            self._assert_breaks(design, beside(reach - 1e-6), "clearance")
            # A negative tolerance tightens the rule past the reach.
            pos = beside(reach + 5e-4)
            assert _oracle_failures(design, pos, tol=-1e-3) == {"clearance"}
            assert not check_layout_legal(design, pos, tol=-1e-3)


class TestProblemWithFrequencies:
    def test_geometry_frozen(self, design, noisy_netlist):
        noisy = problem_with_frequencies(design, noisy_netlist)
        assert noisy.num_instances == design.num_instances
        assert np.array_equal(noisy.sizes, design.sizes)
        assert [i.name for i in noisy.instances] \
            == [i.name for i in design.instances]

    def test_frequencies_follow_the_realisation(self, design,
                                                noisy_netlist):
        noisy = problem_with_frequencies(design, noisy_netlist)
        qubit_freq = {q.index: q.frequency for q in noisy_netlist.qubits}
        for inst, freq in zip(noisy.instances, noisy.frequencies):
            assert inst.frequency == freq
            if not hasattr(inst, "resonator_index"):
                assert freq == qubit_freq[inst.index]
        assert not np.array_equal(noisy.frequencies, design.frequencies)

    def test_design_problem_untouched(self, design, noisy_netlist):
        before = design.frequencies.copy()
        problem_with_frequencies(design, noisy_netlist)
        assert np.array_equal(design.frequencies, before)


class TestRepairSample:
    def test_repair_is_legal_and_tagged(self, design, noisy_netlist,
                                        grid9_placed, fast_config):
        result = repair_sample(design, noisy_netlist,
                               grid9_placed.layout.positions, fast_config)
        assert result.legal
        assert result.layout.strategy == "qplacer+disorder+repair"
        assert result.moved_mm >= 0.0
        assert result.layout.netlist is noisy_netlist

    def test_misaligned_positions_rejected(self, design, noisy_netlist,
                                           fast_config):
        with pytest.raises(ValueError) as err:
            repair_sample(design, noisy_netlist, np.zeros((3, 2)),
                          fast_config)
        assert "do not align" in str(err.value)

    def test_repair_is_deterministic(self, design, noisy_netlist,
                                     grid9_placed, fast_config):
        a = repair_sample(design, noisy_netlist,
                          grid9_placed.layout.positions, fast_config)
        b = repair_sample(design, noisy_netlist,
                          grid9_placed.layout.positions, fast_config)
        assert np.array_equal(a.positions, b.positions)


class TestPlaceFromScratch:
    def test_positions_match_placement_golden(self):
        """The from-scratch baseline is the engine's layout bit-for-bit."""
        digest = next(d for t, s, o, d in GOLDEN
                      if (t, s, o) == ("falcon-27", "qplacer", False))
        netlist = build_netlist(get_topology("falcon-27"))
        layout = place_from_scratch(netlist, PlacerConfig())
        assert hashlib.sha256(
            layout.positions.tobytes()).hexdigest() == digest

    def test_layout_carries_noisy_netlist_and_tag(self, noisy_netlist,
                                                  fast_config):
        layout = place_from_scratch(noisy_netlist, fast_config)
        assert layout.netlist is noisy_netlist
        assert layout.strategy == "qplacer+disorder+scratch"
        assert layout.num_instances == len(layout.instances)

"""Unit tests for the spatial interactions and the size rule."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import interactions, preprocess
from repro.core.config import PlacerConfig
from repro.core.interactions import (
    PrunedCollisionPairs,
    RequiredGapTable,
    frequency_bands,
    grid_candidate_pairs,
    sort_pairs,
)
from repro.core.preprocess import build_problem
from repro.devices.netlist import build_netlist
from repro.devices.topology import get_topology

from ..oracles import attached_resonators
from ..oracles.legality import collision_map, collision_pairs


class TestSizeRule:
    """``build_problem`` is the one place the size rule runs; it picks
    numbers (pair cutoff, density flush interval, auto detailed
    passes), not a backend."""

    @pytest.fixture(scope="class")
    def netlist(self):
        return build_netlist(get_topology("grid-25"))

    @staticmethod
    def _exact(problem):
        region = problem.region
        return (problem.freq_pair_cutoff_mm == math.hypot(region.w, region.h)
                and problem.density_flush_interval == 1
                and problem.auto_detailed_passes == 0)

    @staticmethod
    def _pruned(problem):
        return (problem.freq_pair_cutoff_mm == preprocess.FREQ_PAIR_CUTOFF_MM
                and problem.density_flush_interval
                == preprocess.DENSITY_FLUSH_INTERVAL
                and problem.auto_detailed_passes == 1)

    def test_exact_at_threshold_pruned_above(self, netlist, monkeypatch):
        n = build_problem(netlist).num_instances
        monkeypatch.setattr(preprocess, "SPARSE_MIN_INSTANCES", n)
        assert self._exact(build_problem(netlist))
        monkeypatch.setattr(preprocess, "SPARSE_MIN_INSTANCES", n - 1)
        assert self._pruned(build_problem(netlist))

    def test_size_rule_keeps_the_pair_columns(self, netlist, monkeypatch):
        exact = build_problem(netlist)
        monkeypatch.setattr(preprocess, "SPARSE_MIN_INSTANCES", 0)
        pruned = build_problem(netlist)
        for name in ("frequencies", "resonator_index", "qubit_index",
                     "resonator_ends"):
            assert np.array_equal(getattr(pruned, name),
                                  getattr(exact, name)), name
        assert np.array_equal(collision_pairs(pruned),
                              collision_pairs(exact))

    def test_paper_tiers_exact_grid_121_pruned(self):
        assert preprocess.SPARSE_MIN_INSTANCES == 2048
        assert preprocess.FREQ_PAIR_CUTOFF_MM == 3.0
        assert preprocess.DENSITY_FLUSH_INTERVAL == 16
        eagle = build_problem(build_netlist(get_topology("eagle-127")))
        assert eagle.num_instances <= preprocess.SPARSE_MIN_INSTANCES
        assert self._exact(eagle)
        grid = build_problem(build_netlist(get_topology("grid-121")))
        assert grid.num_instances > preprocess.SPARSE_MIN_INSTANCES
        assert self._pruned(grid)

    def test_detailed_passes_follow_the_size_rule(self, netlist,
                                                  monkeypatch):
        from repro.core import QPlacer

        config = PlacerConfig(max_iterations=12, min_iterations=2)
        assert QPlacer(config).place(netlist).detailed_stats is None
        monkeypatch.setattr(preprocess, "SPARSE_MIN_INSTANCES", 0)
        assert QPlacer(config).place(netlist).detailed_stats is not None

    @pytest.mark.parametrize("name", ["resolve_backend", "BACKEND_AUTO",
                                      "BACKENDS", "BACKEND_DENSE",
                                      "BACKEND_SPARSE"])
    def test_resolver_removed(self, name):
        import repro.core

        assert not hasattr(interactions, name)
        assert not hasattr(repro.core, name)

    def test_backend_name_removed(self):
        names = {f.name for f in
                 dataclasses.fields(preprocess.PlacementProblem)}
        assert "interaction_backend" not in names
        assert "collision_pairs" not in names


class TestGridCandidatePairs:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_superset_of_chebyshev_neighbours(self, seed):
        rng = np.random.default_rng(seed)
        pts = rng.uniform(-5.0, 5.0, size=(int(rng.integers(2, 250)), 2))
        cutoff = float(rng.uniform(0.3, 3.0))
        a, b = grid_candidate_pairs(pts, cutoff)
        got = set(zip(a.tolist(), b.tolist()))
        iu, ju = np.triu_indices(len(pts), 1)
        cheb = np.abs(pts[iu] - pts[ju]).max(axis=1)
        need = set(zip(iu[cheb <= cutoff].tolist(),
                       ju[cheb <= cutoff].tolist()))
        assert need <= got
        # Nothing beyond twice the cutoff on either axis.
        far = set(zip(iu[cheb > 2.0 * cutoff + 1e-9].tolist(),
                      ju[cheb > 2.0 * cutoff + 1e-9].tolist()))
        assert not (far & got)

    def test_lex_sorted_and_unique(self):
        rng = np.random.default_rng(7)
        pts = rng.uniform(0.0, 2.0, size=(120, 2))
        a, b = grid_candidate_pairs(pts, 0.5)
        pairs = np.stack([a, b], axis=1)
        order = np.lexsort((pairs[:, 1], pairs[:, 0]))
        assert np.array_equal(pairs, pairs[order])
        assert len({(i, j) for i, j in pairs.tolist()}) == len(pairs)
        assert bool(np.all(a < b))

    def test_huge_cutoff_reproduces_dense_pairs(self):
        rng = np.random.default_rng(3)
        pts = rng.uniform(0.0, 1.0, size=(40, 2))
        a, b = grid_candidate_pairs(pts, 100.0)
        iu, ju = np.triu_indices(40, 1)
        assert np.array_equal(a, iu)
        assert np.array_equal(b, ju)

    def test_degenerate_inputs(self):
        a, b = grid_candidate_pairs(np.zeros((1, 2)), 1.0)
        assert a.size == 0 and b.size == 0
        with pytest.raises(ValueError):
            grid_candidate_pairs(np.zeros((3, 2)), 0.0)

    def test_coincident_points_all_pair(self):
        pts = np.zeros((10, 2))
        a, b = grid_candidate_pairs(pts, 0.1)
        assert a.size == 45  # 10 choose 2

    def test_sort_pairs_matches_lexsort(self):
        rng = np.random.default_rng(11)
        a = rng.integers(0, 50, size=200)
        b = rng.integers(50, 100, size=200)
        sa, sb = sort_pairs(a.copy(), b.copy(), 100)
        pairs = np.stack([a, b], axis=1)
        ref = pairs[np.lexsort((pairs[:, 1], pairs[:, 0]))]
        assert np.array_equal(np.stack([sa, sb], axis=1), ref)


def _gap_table_args(problem):
    return (problem.resonator_index, problem.frequencies,
            problem.clearances, problem.paddings,
            problem.qubit_index, problem.resonator_ends,
            problem.config.detuning_threshold_ghz)


def _dense_required_gaps(problem, rows):
    """Oracle: rows of the dense ``(n, n)`` strict/relaxed gap matrices.

    The broadcast construction the legalizer used before it switched to
    on-demand lookups, restricted to ``rows`` so eagle-127's matrices
    need not be held whole.
    """
    res = np.asarray(problem.resonator_index, dtype=np.int64)
    n = res.shape[0]
    rows = np.asarray(rows, dtype=np.int64)
    same_res = (res[rows, None] == res[None, :]) & (res[rows, None] >= 0)
    attach = np.zeros((n, n), dtype=bool)
    for qi, rids in attached_resonators(problem).items():
        if rids:
            attach[qi] = np.isin(res, np.fromiter(rids, dtype=np.int64))
    intended = same_res | attach[rows] | attach.T[rows]
    freqs = np.asarray(problem.frequencies, dtype=float)
    resonant = (np.abs(freqs[rows, None] - freqs[None, :])
                <= problem.config.detuning_threshold_ghz)
    clear = np.asarray(problem.clearances, dtype=float)
    pads = np.asarray(problem.paddings, dtype=float)
    clear_req = 0.5 * (clear[rows, None] + clear[None, :])
    pad_req = pads[rows, None] + pads[None, :]
    strict = np.where(intended, 0.0, np.where(resonant, pad_req, clear_req))
    relaxed = np.where(intended, 0.0, clear_req)
    return {True: strict, False: relaxed}


_GAP_PROBLEMS = {}


def _gap_problem(name):
    if name not in _GAP_PROBLEMS:
        _GAP_PROBLEMS[name] = build_problem(
            build_netlist(get_topology(name)), PlacerConfig())
    return _GAP_PROBLEMS[name]


class TestRequiredGapTable:
    @pytest.fixture(scope="class")
    def problem(self):
        return _gap_problem("falcon-27")

    @pytest.mark.parametrize("topology", ["grid-25", "falcon-27", "eagle-127"])
    @pytest.mark.parametrize("strict", [True, False],
                             ids=["strict", "relaxed"])
    def test_full_rows_match_dense_oracle(self, topology, strict):
        problem = _gap_problem(topology)
        table = RequiredGapTable(*_gap_table_args(problem))
        n = problem.num_instances
        every = np.arange(n)
        for start in range(0, n, 256):
            rows = np.arange(start, min(start + 256, n))
            dense = _dense_required_gaps(problem, rows)[strict]
            for k, i in enumerate(rows.tolist()):
                assert np.array_equal(table.pairs(i, every, strict),
                                      dense[k]), (topology, i)

    @pytest.mark.parametrize("topology", ["grid-25", "falcon-27", "eagle-127"])
    def test_pairs_matches_oracle(self, topology):
        problem = _gap_problem(topology)
        table = RequiredGapTable(*_gap_table_args(problem))
        n = problem.num_instances
        js = np.array([0, 3, 17, 40, n - 1, 3])  # repeats are allowed
        first_seg = int(np.argmax(problem.resonator_index >= 0))
        for i in (5, first_seg):
            dense = _dense_required_gaps(problem, [i])
            for strict in (True, False):
                assert np.array_equal(table.pairs(i, js, strict),
                                      dense[strict][0, js])
        assert table.pairs(5, np.zeros(0, dtype=np.int64), True).size == 0

    def test_intended_pairs_require_no_gap(self, problem):
        table = RequiredGapTable(*_gap_table_args(problem))
        # A segment and its sibling: same resonator index.
        res = problem.resonator_index
        segs = np.flatnonzero(res == res[np.argmax(res >= 0)])
        if segs.size >= 2:
            for strict in (True, False):
                assert np.all(table.pairs(int(segs[0]), segs[1:],
                                          strict) == 0.0)
        # A qubit and the segments of a resonator attached to it, both
        # ways round.
        qi, rids = next((q, r) for q, r in
                        attached_resonators(problem).items() if r)
        attached = np.flatnonzero(np.isin(res, list(rids)))
        for strict in (True, False):
            assert np.all(table.pairs(qi, attached, strict) == 0.0)
            for j in attached.tolist():
                assert table.pairs(j, np.array([qi]), strict)[0] == 0.0


class TestPrunedCollisionPairs:
    @pytest.fixture(scope="class")
    def problem(self):
        return build_problem(build_netlist(get_topology("grid-25")),
                             PlacerConfig())

    def test_huge_cutoff_matches_dense_collision_map(self, problem):
        provider = PrunedCollisionPairs(
            problem.frequencies, problem.resonator_index,
            problem.config.detuning_threshold_ghz,
            cutoff_mm=1e6, skin_mm=1.0)
        pairs = provider.pairs(problem.initial_positions)
        assert np.array_equal(pairs, collision_pairs(problem))

    def test_rebuild_only_after_drift(self, problem):
        provider = PrunedCollisionPairs(
            problem.frequencies, problem.resonator_index,
            problem.config.detuning_threshold_ghz,
            cutoff_mm=2.0, skin_mm=1.0)
        pos = problem.initial_positions.copy()
        provider.pairs(pos)
        assert provider.rebuilds == 1
        # Euclidean drift sqrt(2)*0.3 = 0.42 < skin/2: no rebuild.
        provider.pairs(pos + 0.3)
        assert provider.rebuilds == 1
        provider.pairs(pos + 1.0)
        assert provider.rebuilds == 2

    def test_diagonal_drift_triggers_rebuild(self, problem):
        # Per-axis drift of exactly skin/2 is a Euclidean drift of
        # sqrt(2)*skin/2 — the containment bound requires a rebuild.
        provider = PrunedCollisionPairs(
            problem.frequencies, problem.resonator_index,
            problem.config.detuning_threshold_ghz,
            cutoff_mm=2.0, skin_mm=1.0)
        pos = problem.initial_positions.copy()
        provider.pairs(pos)
        provider.pairs(pos + 0.5)
        assert provider.rebuilds == 2

    def test_region_reach_is_static(self, problem):
        region = problem.region
        provider = PrunedCollisionPairs(
            problem.frequencies, problem.resonator_index,
            problem.config.detuning_threshold_ghz,
            cutoff_mm=problem.freq_pair_cutoff_mm, skin_mm=1.0,
            span_mm=math.hypot(region.w, region.h))
        assert provider.static
        pos = problem.initial_positions.copy()
        provider.pairs(pos)
        provider.pairs(pos + 5.0)  # far past skin/2: still no rebuild
        assert (provider.rebuilds, provider.reuses) == (1, 1)
        short = PrunedCollisionPairs(
            problem.frequencies, problem.resonator_index,
            problem.config.detuning_threshold_ghz,
            cutoff_mm=2.0, skin_mm=1.0,
            span_mm=math.hypot(region.w, region.h))
        assert not short.static

    def test_cutoff_prunes_far_pairs(self, problem):
        provider = PrunedCollisionPairs(
            problem.frequencies, problem.resonator_index,
            problem.config.detuning_threshold_ghz,
            cutoff_mm=0.5, skin_mm=0.25)
        pos = problem.initial_positions
        pairs = provider.pairs(pos)
        assert pairs.shape[0] < collision_pairs(problem).shape[0]
        if pairs.size:
            delta = pos[pairs[:, 0]] - pos[pairs[:, 1]]
            dist = np.sqrt((delta * delta).sum(axis=1))
            assert float(dist.max()) <= 0.75 + 1e-9


_REGION_PROBLEMS = {}


def _region_problem(name):
    if name not in _REGION_PROBLEMS:
        _REGION_PROBLEMS[name] = build_problem(
            build_netlist(get_topology(name)), PlacerConfig())
    return _REGION_PROBLEMS[name]


@st.composite
def positions_in_region(draw):
    """A paper-tier problem and 1-3 position sets with every centre
    inside the region (where the engine's projection keeps them):
    uniform, each at a corner of its allowed box, or all clustered."""
    problem = _region_problem(draw(st.sampled_from(("grid-25",
                                                    "falcon-27"))))
    region = problem.region
    half = problem.sizes / 2.0
    lo = np.array([region.x, region.y]) + half
    hi = np.array([region.x2, region.y2]) - half
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    sets = []
    for shape in draw(st.lists(st.sampled_from(("uniform", "corners",
                                                "cluster")),
                               min_size=1, max_size=3)):
        t = rng.uniform(size=lo.shape)
        if shape == "corners":
            t = np.round(t)
        elif shape == "cluster":
            t = np.broadcast_to(rng.uniform(size=(1, 2)), lo.shape)
        sets.append(lo + t * (hi - lo))
    return problem, sets


@given(positions_in_region())
@settings(max_examples=40, deadline=None)
def test_region_reach_list_is_the_collision_map(case):
    """A neighbor list whose reach covers the region diagonal returns
    exactly the collision map (same rows, same lex order) wherever the
    instances sit, and is built once."""
    problem, sets = case
    region = problem.region
    threshold = problem.config.detuning_threshold_ghz
    expected = collision_map(problem.frequencies, problem.resonator_index,
                             threshold)
    provider = PrunedCollisionPairs(
        problem.frequencies, problem.resonator_index, threshold,
        cutoff_mm=problem.freq_pair_cutoff_mm, skin_mm=1.5,
        span_mm=math.hypot(region.w, region.h))
    for positions in sets:
        pairs = provider.pairs(positions)
        assert pairs.dtype == expected.dtype
        assert pairs.shape == expected.shape
        assert pairs.tobytes() == expected.tobytes()
    assert provider.rebuilds == 1


class TestFrequencyBanding:
    """The 3-D (band x grid) candidate generator (ISSUE 6 tentpole)."""

    def test_resonant_pairs_differ_by_at_most_one_band(self):
        rng = np.random.default_rng(0)
        threshold = 0.17
        freqs = rng.uniform(4.8, 9.6, size=400)
        bands = frequency_bands(freqs, threshold)
        i, j = np.triu_indices(freqs.size, k=1)
        resonant = np.abs(freqs[i] - freqs[j]) <= threshold
        assert (np.abs(bands[i] - bands[j])[resonant] <= 1).all()

    def test_exact_threshold_detuning_stays_adjacent(self):
        threshold = 0.2
        freqs = np.array([5.0, 5.2, 5.4])  # consecutive exact-threshold
        bands = frequency_bands(freqs, threshold)
        assert abs(bands[0] - bands[1]) <= 1
        assert abs(bands[1] - bands[2]) <= 1

    def test_banded_candidates_cover_resonant_near_pairs(self):
        rng = np.random.default_rng(1)
        n, cutoff, threshold = 300, 2.0, 0.15
        positions = rng.uniform(0, 25, size=(n, 2))
        freqs = rng.uniform(4.8, 9.6, size=n)
        bands = frequency_bands(freqs, threshold)
        a, b = grid_candidate_pairs(positions, cutoff, bands=bands)
        got = set(zip(a.tolist(), b.tolist()))
        i, j = np.triu_indices(n, k=1)
        near = (np.abs(positions[i] - positions[j]) <= cutoff).all(axis=1)
        resonant = np.abs(freqs[i] - freqs[j]) <= threshold
        for x, y in zip(i[near & resonant], j[near & resonant]):
            assert (int(x), int(y)) in got

    def test_banded_candidates_no_duplicates_and_sorted(self):
        rng = np.random.default_rng(2)
        positions = rng.uniform(0, 12, size=(150, 2))
        bands = frequency_bands(rng.uniform(4.8, 9.6, size=150), 0.15)
        a, b = grid_candidate_pairs(positions, 1.5, bands=bands)
        keys = a * 150 + b
        assert (a < b).all()
        assert np.unique(keys).size == keys.size
        assert (np.diff(keys) > 0).all()  # dense-candidate ordering

    def test_banding_prunes_off_band_candidates(self):
        rng = np.random.default_rng(3)
        positions = rng.uniform(0, 6, size=(200, 2))  # spatially dense
        freqs = np.repeat(np.linspace(5.0, 9.0, 8), 25)  # 8 far levels
        rng.shuffle(freqs)
        bands = frequency_bands(freqs, 0.1)
        a_all, _ = grid_candidate_pairs(positions, 2.0)
        a_band, _ = grid_candidate_pairs(positions, 2.0, bands=bands)
        assert a_band.size < a_all.size / 2  # most pairs never generated

    def test_banded_provider_matches_unbanded_results(self):
        """End to end: banding must not change the final pair set.

        The oracle is a brute-force scan: every resonant, non-sibling
        ``i < j`` pair within ``cutoff + skin``, in lex order.
        """
        problem = build_problem(build_netlist(get_topology("grid-25")),
                                PlacerConfig())
        freqs = problem.frequencies
        res = problem.resonator_index
        threshold = problem.config.detuning_threshold_ghz
        reach = 3.0 + 1.0
        rng = np.random.default_rng(4)
        for trial in range(3):
            positions = problem.initial_positions \
                + rng.normal(0, 1.5, size=(problem.num_instances, 2))
            banded = PrunedCollisionPairs(
                freqs, res, threshold, cutoff_mm=3.0, skin_mm=1.0)
            expected = [
                (i, j)
                for i in range(problem.num_instances)
                for j in range(i + 1, problem.num_instances)
                if abs(freqs[i] - freqs[j]) <= threshold
                and not (res[i] >= 0 and res[i] == res[j])
                and float(np.sum((positions[i] - positions[j]) ** 2))
                <= reach * reach]
            assert expected  # the oracle must see some resonant pairs
            assert banded.pairs(positions).tolist() == \
                [list(p) for p in expected]

"""The frequency collision map matches its row-wise ``np.unique`` form.

The map is built by a packed-key sort of the resonant ``(i, j)`` pairs.
These tests keep a copy of the kernel as it stood before, which sorted
and deduplicated the stacked pair rows with ``np.unique(axis=0)``, and
require identical bytes, dtype and shape on the paper tiers, a grid
above the size threshold, disorder realisations and synthetic frequency
combs with ties and detunings at exactly the threshold.  The map is a
test oracle (``tests/oracles/legality.py``); the library keeps no
chip-wide collision map.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import preprocess
from repro.core.config import PlacerConfig
from repro.core.preprocess import build_problem
from repro.devices import build_netlist, get_topology, netlist_with_frequencies
from repro.devices.topology import PAPER_TOPOLOGY_ORDER
from repro.ensembles import DisorderSpec, problem_with_frequencies, sample_batch

from ..oracles.legality import collision_map, collision_pairs


def _unique_rows_collision_pairs(frequencies, resonator_index, threshold):
    """The collision-map kernel with its original ``np.unique`` ending."""
    n = len(frequencies)
    order = np.argsort(frequencies, kind="stable")
    sorted_freqs = frequencies[order]
    hi = np.searchsorted(sorted_freqs, sorted_freqs + (threshold + 1e-9),
                         side="right")
    counts = np.maximum(hi - np.arange(n) - 1, 0)
    if counts.max(initial=0) <= 0:
        return np.zeros((0, 2), dtype=np.int64)
    a_idx = np.repeat(np.arange(n), counts)
    ends = np.cumsum(counts)
    b_idx = a_idx + (np.arange(ends[-1]) - (ends - counts)[a_idx]) + 1
    keep = sorted_freqs[b_idx] - sorted_freqs[a_idx] <= threshold
    i = order[a_idx[keep]]
    j = order[b_idx[keep]]
    ri, rj = resonator_index[i], resonator_index[j]
    keep = ~((ri >= 0) & (ri == rj))
    i, j = i[keep], j[keep]
    pairs = np.stack([np.minimum(i, j), np.maximum(i, j)], axis=1)
    return np.unique(pairs, axis=0).astype(np.int64)


def _assert_same(new, old):
    assert new.dtype == old.dtype
    assert new.shape == old.shape
    assert new.tobytes() == old.tobytes()


def _problem_map_matches(problem):
    threshold = problem.config.detuning_threshold_ghz
    old = _unique_rows_collision_pairs(problem.frequencies,
                                       problem.resonator_index, threshold)
    _assert_same(collision_pairs(problem), old)
    return old


@pytest.mark.parametrize("name", PAPER_TOPOLOGY_ORDER)
def test_paper_tiers(name):
    problem = build_problem(build_netlist(get_topology(name)),
                            PlacerConfig())
    assert _problem_map_matches(problem).shape[0] > 0


def test_sparse_grid():
    problem = build_problem(build_netlist(get_topology("grid-121")),
                            PlacerConfig())
    assert problem.num_instances > preprocess.SPARSE_MIN_INSTANCES
    assert problem.freq_pair_cutoff_mm == preprocess.FREQ_PAIR_CUTOFF_MM
    assert _problem_map_matches(problem).shape[0] > 0


def test_sparse_small_tier(monkeypatch):
    monkeypatch.setattr(preprocess, "SPARSE_MIN_INSTANCES", 0)
    problem = build_problem(build_netlist(get_topology("falcon-27")),
                            PlacerConfig())
    assert problem.freq_pair_cutoff_mm == preprocess.FREQ_PAIR_CUTOFF_MM
    assert _problem_map_matches(problem).shape[0] > 0


def test_resonant_collision_pairs_twin_removed():
    assert not hasattr(preprocess.PlacementProblem,
                       "resonant_collision_pairs")


@pytest.mark.parametrize("sigma", (0.005, 0.01, 0.05))
def test_disorder_realisations(sigma):
    netlist = build_netlist(get_topology("falcon-27"))
    design = build_problem(netlist, PlacerConfig())
    batch = sample_batch(netlist, DisorderSpec(sigma, sigma), base_seed=3,
                         count=3)
    for row in range(3):
        noisy = problem_with_frequencies(
            design, netlist_with_frequencies(netlist, *batch.row(row)))
        _problem_map_matches(noisy)


@st.composite
def frequency_combs(draw):
    """Comb frequencies with ties, with owners that share resonators.

    Levels are whole multiples of the threshold, so neighbouring levels
    sit at exactly the threshold detuning (up to float rounding).
    """
    threshold = draw(st.sampled_from((0.05, 0.1, 0.2)))
    n = draw(st.integers(0, 60))
    levels = draw(st.lists(st.integers(0, 8), min_size=n, max_size=n))
    base = draw(st.sampled_from((0.0, 4.8, 6.3)))
    frequencies = base + threshold * np.array(levels, dtype=float)
    owners = draw(st.lists(st.integers(-1, 4), min_size=n, max_size=n))
    return (frequencies, np.array(owners, dtype=np.int64).reshape(n),
            threshold)


@given(frequency_combs())
@settings(max_examples=200, deadline=None)
def test_comb_property(case):
    frequencies, owners, threshold = case
    _assert_same(collision_map(frequencies, owners, threshold),
                 _unique_rows_collision_pairs(frequencies, owners, threshold))

"""The one-pass legality check, pinned to its two-pass oracle.

:func:`~repro.ensembles.repair.check_layout_legal` screens all three
spacing rules over one set of grid candidates, with the intended
adjacencies read from the problem's key columns.
``tests/oracles/legality.py`` keeps the check as it stood before: a
clearance-reach grid pass, then the padding rule over the chip-wide
collision map, with the attachment derived from the netlist.  The two
must agree on placed, jittered and disordered layouts of three paper
tiers at every tolerance.  Both apply the padding rule under a
frequency-aware config only, the switch under which the legalizer
enforces it.
"""

from __future__ import annotations

import dataclasses
import functools

import numpy as np
import pytest

from repro.baselines.human import human_layout
from repro.core import PlacerConfig, QPlacer, interactions, preprocess
from repro.core.interactions import (RequiredGapTable, grid_candidate_pairs,
                                     intended_adjacency)
from repro.crosstalk import violations
from repro.devices import build_netlist, get_topology, netlist_with_frequencies
from repro.ensembles import (DisorderSpec, check_layout_legal,
                             problem_with_frequencies, sample_batch)
from repro.ensembles import repair

from ..oracles import legality

TOPOLOGIES = ("grid-25", "falcon-27", "eagle-127")
STRATEGIES = ("qplacer", "classic", "human")
TOLERANCES = (-1e-3, 1e-9, 1e-3)
JITTERS_MM = (1e-6, 1e-3, 3e-2)
SIGMAS_GHZ = (0.005, 0.02, 0.05)


@functools.lru_cache(maxsize=None)
def _layout(topology, strategy):
    """Problem and positions of one strategy's layout (built once)."""
    netlist = build_netlist(get_topology(topology))
    if strategy == "human":
        return (preprocess.build_problem(netlist, PlacerConfig()),
                human_layout(netlist, PlacerConfig()).positions)
    config = (PlacerConfig.classic() if strategy == "classic"
              else PlacerConfig())
    result = QPlacer(config).place(netlist)
    return result.problem, result.layout.positions


def _disordered(problem, sigma):
    netlist = problem.netlist
    batch = sample_batch(netlist, DisorderSpec(sigma, sigma), base_seed=1,
                         count=1)
    return problem_with_frequencies(
        problem, netlist_with_frequencies(netlist, *batch.row(0)))


def _cases(topology, strategy):
    """``(label, problem, positions)``: the layout, jittered copies and
    disorder realisations of its frozen positions."""
    problem, pos = _layout(topology, strategy)
    yield "layout", problem, pos
    rng = np.random.default_rng(0)
    for scale in JITTERS_MM:
        yield f"jitter-{scale}", problem, \
            pos + rng.normal(0.0, scale, size=pos.shape)
    for sigma in SIGMAS_GHZ:
        yield f"sigma-{sigma}", _disordered(problem, sigma), pos


@pytest.mark.parametrize("strategy", STRATEGIES)
@pytest.mark.parametrize("topology", TOPOLOGIES)
def test_verdict_matches_two_pass_oracle(topology, strategy):
    for label, problem, pos in _cases(topology, strategy):
        for tol in TOLERANCES:
            assert check_layout_legal(problem, pos, tol) \
                == legality.check_layout_legal(problem, pos, tol), \
                (label, tol)


def test_cases_cover_every_rule():
    """The cases above are not all one verdict: the placed layout is
    legal, and each rule is the only one broken somewhere."""
    problem, pos = _layout("eagle-127", "qplacer")
    assert check_layout_legal(problem, pos)
    # A frozen eagle-127 layout under disorder breaks the padding rule
    # alone: only the resonant pairs moved.
    noisy = _disordered(problem, 0.005)
    assert legality.legality_failures(noisy, pos, all_pairs=True) \
        == {"padding"}
    assert not check_layout_legal(noisy, pos)
    human_problem, human_pos = _layout("grid-25", "human")
    assert legality.legality_failures(human_problem, human_pos) \
        == {"overlap", "clearance"}
    assert not check_layout_legal(human_problem, human_pos)


@pytest.mark.parametrize("topology", TOPOLOGIES)
def test_classic_layouts_are_legal(topology):
    """Classic legalizes without the resonant checker, and the check
    reads the same switch: its layout is legal under its own config, and
    breaks the padding rule alone under the frequency-aware one."""
    problem, pos = _layout(topology, "classic")
    assert not problem.config.frequency_aware
    assert check_layout_legal(problem, pos)
    assert legality.check_layout_legal(problem, pos)
    aware = preprocess.build_problem(problem.netlist, PlacerConfig())
    assert legality.legality_failures(aware, pos) == {"padding"}
    assert not check_layout_legal(aware, pos)


@pytest.mark.parametrize("topology", TOPOLOGIES)
def test_gap_table_intended_set_is_the_kernel(topology):
    """``RequiredGapTable`` asks for no gap exactly on the pairs
    :func:`intended_adjacency` lets touch, for every instance against
    its grid neighbours."""
    problem, pos = _layout(topology, "qplacer")
    assert problem.clearances.min() > 0 and problem.paddings.min() > 0
    table = RequiredGapTable(
        problem.resonator_index, problem.frequencies, problem.clearances,
        problem.paddings, problem.qubit_index, problem.resonator_ends,
        problem.config.detuning_threshold_ghz)
    a, b = grid_candidate_pairs(pos, 1.5, sort=False)
    src, dst = np.concatenate([a, b]), np.concatenate([b, a])
    order = np.argsort(src, kind="stable")
    src, dst = src[order], dst[order]
    kernel = intended_adjacency(problem.qubit_index, problem.resonator_index,
                                problem.resonator_ends, src, dst)
    assert kernel.any()
    bounds = np.searchsorted(src, np.arange(problem.num_instances + 1))
    for i in range(problem.num_instances):
        js = dst[bounds[i]:bounds[i + 1]]
        for strict in (True, False):
            assert np.array_equal(table.pairs(i, js, strict) == 0.0,
                                  kernel[bounds[i]:bounds[i + 1]]), i


@pytest.mark.parametrize("topology", TOPOLOGIES)
def test_key_columns_match_the_netlist(topology):
    problem, _ = _layout(topology, "qplacer")
    netlist = problem.netlist
    nq = len(netlist.qubits)
    assert problem.qubit_index[:nq].tolist() \
        == [q.index for q in netlist.qubits]
    assert (problem.qubit_index[nq:] == -1).all()
    for resonator in netlist.resonators:
        assert tuple(problem.resonator_ends[resonator.index]) \
            == resonator.endpoints


class TestRemovedSurface:
    """The chip-wide collision map, the attachment dict and the second
    intended-pair helper left ``src/``; the map lives on as an oracle
    (:func:`tests.oracles.legality.collision_pairs`)."""

    @pytest.mark.parametrize("name", ["collision_pairs",
                                      "attached_resonators"])
    def test_problem_fields_gone(self, name):
        problem, _ = _layout("grid-25", "qplacer")
        assert name not in {f.name for f in
                            dataclasses.fields(preprocess.PlacementProblem)}
        assert not hasattr(problem, name)

    @pytest.mark.parametrize("module,name", [
        (preprocess, "_collision_pairs"), (repair, "_intended_mask")])
    def test_helpers_gone(self, module, name):
        assert not hasattr(module, name)

    def test_one_intended_adjacency_kernel(self):
        assert violations.intended_adjacency is interactions.intended_adjacency
        assert violations.resonator_endpoints \
            is interactions.resonator_endpoints
        assert repair.intended_adjacency is interactions.intended_adjacency

"""Executable specifications of the library's paper stages.

Each module here is the seed's scalar implementation of a stage the
library now runs vectorized; the equivalence tests and the identity
gates of the perf benches pin the library to them:

* :mod:`tests.oracles.legalizer` — Algorithm 1 legalization
  (:mod:`repro.core.legalizer`);
* :mod:`tests.oracles.detailed` — detailed placement
  (:mod:`repro.core.detailed`);
* :mod:`tests.oracles.mapping` — greedy initial placement and the basic
  router (:mod:`repro.circuits.mapping`);
* :mod:`tests.oracles.sabre` — the SABRE router
  (:mod:`repro.circuits.sabre`);
* :mod:`tests.oracles.transpile` — the ``Gate``-list transpiler
  (:mod:`repro.circuits.batch`);
* :mod:`tests.oracles.circuit` — the ``Gate``-list circuit scans,
  remaps and ASAP schedule (:class:`repro.circuits.batch.ArrayCircuit`);
* :mod:`tests.oracles.violations` — the all-pairs ``triu`` violation
  scan (:mod:`repro.crosstalk.violations`);
* :mod:`tests.oracles.hotspots` — the per-pair ``Rect`` evaluation of
  Eq. (18) (:func:`repro.crosstalk.hotspots.hotspot_report`);
* :mod:`tests.oracles.legality` — the two-pass legality check and the
  chip-wide collision map
  (:func:`repro.ensembles.repair.check_layout_legal`).

This package also holds the per-pair helpers only the oracles and tests
read: the topology's :func:`hop_distances` and :func:`shortest_path`,
and a placement problem's :func:`attached_resonators`,
:func:`is_intended_pair`, :func:`is_resonant_pair` and
:func:`required_gap`.

Do not optimise these modules; they are the fixed points the fast paths
are measured against.
"""

from __future__ import annotations

import functools
from typing import Dict, List, Set

import networkx as nx

from repro.core.preprocess import PlacementProblem
from repro.devices.components import Qubit
from repro.devices.topology import Topology


@functools.lru_cache(maxsize=16)
def hop_distances(topology: Topology) -> Dict[int, Dict[int, int]]:
    """All-pairs hop distances as ``{src: {dst: hops}}`` (cached).

    The scalar routers and the placement oracle look distances up per
    pair; the library reads the dense
    :meth:`~repro.devices.topology.Topology.hop_distance_matrix`
    instead.  Do not mutate the returned dicts.
    """
    return dict(nx.all_pairs_shortest_path_length(topology.graph))


def shortest_path(topology: Topology, src: int, dst: int) -> List[int]:
    """Canonical shortest coupler path between two qubits.

    Walks the cached :meth:`~repro.devices.topology.Topology.
    shortest_path_next_hop` table, so the path choice is deterministic
    (lowest-index neighbour first) rather than whatever tie networkx's
    bidirectional search breaks — the basic router's array kernel
    reconstructs the same walks from the same table, which is what
    makes its output bit-identical to the reference walker in
    :mod:`tests.oracles.mapping`.
    """
    n = topology.num_qubits
    if not (0 <= src < n and 0 <= dst < n):
        raise nx.NodeNotFound(f"node {src} or {dst} not in {topology.name}")
    if src == dst:
        return [src]
    nxt = topology.shortest_path_next_hop()
    path = [src]
    while path[-1] != dst:
        path.append(int(nxt[path[-1], dst]))
    return path


def required_gap(problem: PlacementProblem, i: int, j: int,
                 resonant: bool) -> float:
    """Minimum legal edge-to-edge gap between two instances.

    Intended pairs (handled by the caller) need none; resonant pairs
    need the full padding sum; ordinary pairs need the mean clearance.
    """
    if resonant:
        return float(problem.paddings[i] + problem.paddings[j])
    return float(0.5 * (problem.clearances[i] + problem.clearances[j]))


def attached_resonators(problem: PlacementProblem) -> Dict[int, Set[int]]:
    """Qubit instance index -> ids of the resonators attached to it.

    Derived from the netlist's resonator endpoints, as
    :mod:`tests.oracles.violations` does, not from the problem's
    ``qubit_index`` / ``resonator_ends`` columns.
    """
    instance_of = {inst.index: i for i, inst in enumerate(problem.instances)
                   if isinstance(inst, Qubit)}
    attached: Dict[int, Set[int]] = {}
    for resonator in problem.netlist.resonators:
        for q in resonator.endpoints:
            attached.setdefault(instance_of[q], set()).add(resonator.index)
    return attached


def _attached(problem: PlacementProblem, qi: int, r: int) -> bool:
    """Whether resonator ``r`` attaches to the qubit at instance ``qi``."""
    key = problem.instances[qi].index
    return any(res.index == r and key in res.endpoints
               for res in problem.netlist.resonators)


def is_intended_pair(problem: PlacementProblem, i: int, j: int) -> bool:
    """Pairs allowed to touch: siblings, or qubit + attached segment."""
    ri, rj = int(problem.resonator_index[i]), int(problem.resonator_index[j])
    if ri >= 0 and ri == rj:
        return True
    if problem.is_qubit[i] and rj >= 0:
        return _attached(problem, i, rj)
    if problem.is_qubit[j] and ri >= 0:
        return _attached(problem, j, ri)
    return False


def is_resonant_pair(problem: PlacementProblem, i: int, j: int) -> bool:
    """Eq. (9)'s tau: detuning within the threshold."""
    return (abs(float(problem.frequencies[i] - problem.frequencies[j]))
            <= problem.config.detuning_threshold_ghz)

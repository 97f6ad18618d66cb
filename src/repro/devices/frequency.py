"""Frequency assignment for qubits and resonators (Sec. IV-A input stage).

The assigner discretises each allowed band into the maximal comb of
*levels* whose spacing strictly exceeds the detuning threshold ``Delta_c``
and then colours the relevant conflict graphs:

* two **qubits** conflict when they share a coupler (optionally within a
  larger hop radius) — directly coupled components must be detuned;
* two **resonators** conflict when they attach to a common qubit.

Because the usable spectrum is narrow (Sec. III-B "frequency crowding"),
levels are necessarily *reused* across the chip: e.g. 127 qubits share 4
qubit levels.  Spatially separating the reused frequencies is exactly the
placer's job; the assigner only guarantees that *connected* components are
detuned, and reports any conflicts it could not resolve.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

import networkx as nx

from .. import constants
from .topology import Topology

Edge = Tuple[int, int]


def frequency_levels(band_ghz: Tuple[float, float],
                     detuning_threshold_ghz: float = constants.DETUNING_THRESHOLD_GHZ,
                     tol: float = 1e-9) -> List[float]:
    """Maximal evenly spaced frequency comb with spacing > ``Delta_c``.

    The crosstalk indicator tau of Eq. (9) activates when
    ``|wi - wj| <= Delta_c``, so adjacent levels must be separated by
    *strictly more* than the threshold.

    Returns:
        Levels in ascending order; a single mid-band level when the band
        is too narrow for two detuned levels.
    """
    lo, hi = band_ghz
    if hi < lo:
        raise ValueError(f"invalid band {band_ghz}")
    span = hi - lo
    if detuning_threshold_ghz <= 0:
        raise ValueError("detuning threshold must be positive")
    if span <= detuning_threshold_ghz + tol:
        return [(lo + hi) / 2.0]
    # Largest n with span / (n - 1) > threshold.
    n = int(span / (detuning_threshold_ghz + tol)) + 1
    while n > 2 and span / (n - 1) <= detuning_threshold_ghz + tol:
        n -= 1
    step = span / (n - 1)
    return [lo + k * step for k in range(n)]


@dataclass
class FrequencyPlan:
    """Result of frequency assignment for one topology.

    Attributes:
        qubit_freq_ghz: Frequency per qubit index.
        resonator_freq_ghz: Frequency per coupler edge ``(lo, hi)``.
        qubit_levels: The qubit frequency comb used.
        resonator_levels: The resonator frequency comb used.
        unresolved_qubit_pairs: Directly conflicting qubit pairs that had
            to share a level (palette exhausted); empty on success.
        unresolved_resonator_pairs: Likewise for resonators.
    """

    qubit_freq_ghz: Dict[int, float]
    resonator_freq_ghz: Dict[Edge, float]
    qubit_levels: List[float]
    resonator_levels: List[float]
    unresolved_qubit_pairs: List[Tuple[int, int]] = field(default_factory=list)
    unresolved_resonator_pairs: List[Tuple[Edge, Edge]] = field(default_factory=list)

    @property
    def is_conflict_free(self) -> bool:
        """True when every connected pair could be detuned."""
        return not self.unresolved_qubit_pairs and not self.unresolved_resonator_pairs

    def detuning_ghz(self, freq_a: float, freq_b: float) -> float:
        """Absolute detuning between two frequencies."""
        return abs(freq_a - freq_b)


def _limited_palette_coloring(graph: nx.Graph, num_colors: int,
                              ) -> Tuple[Dict[int, int], List[Tuple[int, int]]]:
    """Greedy DSATUR-style colouring with a fixed palette size.

    Nodes are coloured in decreasing saturation order; each node takes the
    least-loaded palette colour not used by already-coloured neighbours.
    When all colours are blocked the least-conflicting colour is chosen
    and the clashing edges are reported.
    """
    if num_colors < 1:
        raise ValueError("palette must contain at least one colour")
    colors: Dict[int, int] = {}
    usage = [0] * num_colors
    unresolved: List[Tuple[int, int]] = []
    # DSATUR: repeatedly pick the uncoloured node with the most distinctly
    # coloured neighbours (ties by degree, then smallest id for determinism).
    uncolored = sorted(graph.nodes)
    while uncolored:
        def saturation(node) -> Tuple[int, int]:
            sat = len({colors[n] for n in graph.neighbors(node) if n in colors})
            return (sat, graph.degree(node))

        node = max(uncolored, key=saturation)
        uncolored.remove(node)
        blocked = {colors[n] for n in graph.neighbors(node) if n in colors}
        available = [c for c in range(num_colors) if c not in blocked]
        if available:
            choice = min(available, key=lambda c: (usage[c], c))
        else:
            # Palette exhausted: minimise the number of clashing neighbours.
            def clash_count(c: int) -> Tuple[int, int, int]:
                clashes = sum(1 for n in graph.neighbors(node) if colors.get(n) == c)
                return (clashes, usage[c], c)

            choice = min(range(num_colors), key=clash_count)
            for n in graph.neighbors(node):
                if colors.get(n) == choice:
                    unresolved.append((min(node, n), max(node, n)))
        colors[node] = choice
        usage[choice] += 1
    return colors, unresolved


def qubit_conflict_graph(topology: Topology, radius: int = 1) -> nx.Graph:
    """Qubit pairs that must be detuned: within ``radius`` hops."""
    if radius < 1:
        raise ValueError("conflict radius must be >= 1")
    graph = nx.Graph()
    graph.add_nodes_from(topology.graph.nodes)
    if radius == 1:
        graph.add_edges_from(topology.graph.edges)
        return graph
    lengths = dict(nx.all_pairs_shortest_path_length(topology.graph, cutoff=radius))
    for u, dists in lengths.items():
        for v, d in dists.items():
            if u < v and 1 <= d <= radius:
                graph.add_edge(u, v)
    return graph


def resonator_conflict_graph(topology: Topology) -> nx.Graph:
    """Resonator pairs that must be detuned: couplers sharing a qubit.

    This is the line graph of the topology over canonical ``(lo, hi)``
    edge keys.
    """
    graph: nx.Graph = nx.Graph()
    edges = topology.coupling_map
    graph.add_nodes_from(edges)
    by_qubit: Dict[int, List[Edge]] = {}
    for e in edges:
        for q in e:
            by_qubit.setdefault(q, []).append(e)
    for incident in by_qubit.values():
        for i in range(len(incident)):
            for j in range(i + 1, len(incident)):
                graph.add_edge(incident[i], incident[j])
    return graph


def assign_frequencies(topology: Topology,
                       qubit_band_ghz: Tuple[float, float] = constants.QUBIT_FREQ_BAND_GHZ,
                       resonator_band_ghz: Tuple[float, float] = constants.RESONATOR_FREQ_BAND_GHZ,
                       detuning_threshold_ghz: float = constants.DETUNING_THRESHOLD_GHZ,
                       qubit_conflict_radius: int = 1) -> FrequencyPlan:
    """Assign frequencies to every qubit and coupler of ``topology``.

    Args:
        topology: Target device topology.
        qubit_band_ghz: Allowed qubit band (Sec. V-C: 4.8--5.2 GHz).
        resonator_band_ghz: Allowed resonator band (6.0--7.0 GHz).
        detuning_threshold_ghz: Resonance threshold ``Delta_c``.
        qubit_conflict_radius: Hop radius within which qubits must be
            detuned (1 = directly coupled only).

    Returns:
        A :class:`FrequencyPlan`; ``unresolved_*`` lists any connected
        pairs that could not be detuned with the available levels.
    """
    qubit_levels = frequency_levels(qubit_band_ghz, detuning_threshold_ghz)
    resonator_levels = frequency_levels(resonator_band_ghz, detuning_threshold_ghz)

    q_graph = qubit_conflict_graph(topology, qubit_conflict_radius)
    q_colors, q_unresolved = _limited_palette_coloring(q_graph, len(qubit_levels))
    qubit_freqs = {q: qubit_levels[c] for q, c in q_colors.items()}

    r_graph = resonator_conflict_graph(topology)
    r_colors, r_unresolved = _limited_palette_coloring(r_graph, len(resonator_levels))
    resonator_freqs = {e: resonator_levels[c] for e, c in r_colors.items()}

    return FrequencyPlan(
        qubit_freq_ghz=qubit_freqs,
        resonator_freq_ghz=resonator_freqs,
        qubit_levels=qubit_levels,
        resonator_levels=resonator_levels,
        unresolved_qubit_pairs=sorted(set(q_unresolved)),
        unresolved_resonator_pairs=sorted(set(r_unresolved)),
    )

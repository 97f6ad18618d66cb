"""Device connectivity topologies (Table I of the paper).

Six topologies are evaluated:

===========  ======  ==============================================
name         qubits  description
===========  ======  ==============================================
grid-25      25      5x5 grid, QEC-friendly (Google Sycamore style)
falcon-27    27      IBM Falcon heavy-hex (27 qubits, 28 couplers)
eagle-127    127     IBM Eagle heavy-hex (127 qubits, 144 couplers)
aspen11-40   40      Rigetti Aspen-11 octagon lattice
aspenm-80    80      Rigetti Aspen-M octagon lattice (two 40q rows)
xtree-53     53      X-tree level-3 Pauli-string-efficient tree [51]
===========  ======  ==============================================

Every topology carries canonical planar coordinates (in abstract lattice
units where adjacent qubits sit ~1 unit apart).  These coordinates drive
the ``Human`` baseline layout and give the placers a deterministic
initial-position hint.

Beyond Table I, two synthetic *condor-class* heavy-hex tiers exercise
the pruned frequency pairs and incremental density at production scale:

============== ====== =============================================
name           qubits description
============== ====== =============================================
condor-sm-433  433    heavy-hex scale smoke tier (13 long rows x 27)
condor-1121    1121   IBM Condor-class heavy-hex (21 long rows x 43)
============== ====== =============================================
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import (Callable, Dict, Iterable, List, Optional, Sequence,
                    Tuple)

import networkx as nx

Coord = Tuple[float, float]

#: IBM Falcon (27-qubit heavy-hex) coupling map, e.g. ibmq_montreal.
FALCON_27_EDGES: Tuple[Tuple[int, int], ...] = (
    (0, 1), (1, 2), (1, 4), (2, 3), (3, 5), (4, 7), (5, 8), (6, 7),
    (7, 10), (8, 9), (8, 11), (10, 12), (11, 14), (12, 13), (12, 15),
    (13, 14), (14, 16), (15, 18), (16, 19), (17, 18), (18, 21), (19, 20),
    (19, 22), (21, 23), (22, 25), (23, 24), (24, 25), (25, 26),
)

#: Canonical (col, row) drawing of the Falcon device (Qiskit gate map).
FALCON_27_COORDS: Tuple[Coord, ...] = (
    (0, 1), (1, 1), (1, 2), (1, 3), (2, 1), (2, 3), (3, 0), (3, 1),
    (3, 3), (3, 4), (4, 1), (4, 3), (5, 1), (5, 2), (5, 3), (6, 1),
    (6, 3), (7, 0), (7, 1), (7, 3), (7, 4), (8, 1), (8, 3), (9, 1),
    (9, 2), (9, 3), (10, 3),
)


@dataclass(frozen=True)
class Topology:
    """A quantum-device connectivity topology.

    Attributes:
        name: Registry key, e.g. ``"falcon-27"``.
        description: Human-readable provenance (Table I).
        graph: Undirected connectivity graph over nodes ``0..n-1``.
        coords: Canonical planar coordinates per qubit (lattice units).
    """

    name: str
    description: str
    graph: nx.Graph
    coords: Dict[int, Coord] = field(compare=False)

    def __post_init__(self) -> None:
        nodes = set(self.graph.nodes)
        if nodes != set(range(len(nodes))):
            raise ValueError(f"{self.name}: nodes must be 0..n-1")
        if set(self.coords) != nodes:
            raise ValueError(f"{self.name}: coords must cover every node")
        if not nx.is_connected(self.graph):
            raise ValueError(f"{self.name}: topology must be connected")

    @property
    def num_qubits(self) -> int:
        """Number of qubits (graph nodes)."""
        return self.graph.number_of_nodes()

    @property
    def num_couplers(self) -> int:
        """Number of qubit-qubit couplers (graph edges)."""
        return self.graph.number_of_edges()

    @property
    def coupling_map(self) -> List[Tuple[int, int]]:
        """Sorted list of coupler endpoint pairs ``(lo, hi)``."""
        return sorted((min(u, v), max(u, v)) for u, v in self.graph.edges)

    @property
    def max_degree(self) -> int:
        """Maximum qubit connectivity degree."""
        return max(d for _, d in self.graph.degree)

    def neighbors(self, qubit: int) -> List[int]:
        """Neighbours of ``qubit`` in the coupling graph."""
        return sorted(self.graph.neighbors(qubit))

    def hop_distance_matrix(self) -> "np.ndarray":
        """Cached dense all-pairs hop distances as an int64 matrix.

        The placement, the basic router and the batched SABRE kernel
        score candidates with numpy gathers, which needs random access
        to arbitrary ``(src, dst)`` hop distances.  Computed once per
        topology via scipy's C breadth-first search (condor-1121: ~1.3 M
        entries, 10 MB).  Do not mutate the returned array.
        """
        cached = self.__dict__.get("_hop_distance_matrix")
        if cached is None:
            import numpy as np
            from scipy.sparse.csgraph import shortest_path

            adjacency = nx.to_scipy_sparse_array(
                self.graph, nodelist=range(self.num_qubits), format="csr")
            cached = shortest_path(adjacency, method="D",
                                   unweighted=True).astype(np.int64)
            self.__dict__["_hop_distance_matrix"] = cached
        return cached

    def hop_distance_submatrix(self, rows: Sequence[int],
                               cols: Optional[Sequence[int]] = None
                               ) -> "np.ndarray":
        """Hop distances gathered for ``rows`` x ``cols`` node subsets.

        The vectorized mapper scores whole candidate sets at once, which
        needs the ``len(rows) x len(cols)`` block of the dense matrix
        (``cols`` defaults to ``rows``, the subset-vs-subset case).
        Indices are validated so a bad node raises ``KeyError`` instead
        of silently wrapping negative indices.
        """
        import numpy as np

        dist = self.hop_distance_matrix()
        row_idx = np.asarray(rows, dtype=np.int64)
        col_idx = row_idx if cols is None else np.asarray(cols,
                                                         dtype=np.int64)
        for idx in (row_idx, col_idx):
            if idx.size and (idx.min() < 0 or idx.max() >= self.num_qubits):
                bad = idx[(idx < 0) | (idx >= self.num_qubits)][0]
                raise KeyError(int(bad))
        return dist[row_idx[:, None], col_idx[None, :]]

    def shortest_path_next_hop(self) -> "np.ndarray":
        """Cached canonical next-hop table for shortest-path walking.

        ``next_hop[s, d]`` is the first step of the canonical shortest
        path from ``s`` to ``d``: the lowest-indexed neighbour of ``s``
        whose hop distance to ``d`` is one less than ``s``'s own
        (``next_hop[d, d] = d``).  Walking the table therefore always
        yields a shortest path, and the same deterministic one for
        every caller — the basic router's batched SWAP emission and the
        reference walker in ``tests/oracles/mapping.py`` both route
        along it, which pins their outputs to each other.  Do not
        mutate the returned array.
        """
        cached = self.__dict__.get("_shortest_path_next_hop")
        if cached is None:
            import numpy as np

            dist = self.hop_distance_matrix()
            n = self.num_qubits
            cached = np.empty((n, n), dtype=np.int64)
            for s in range(n):
                nbrs = np.fromiter(sorted(self.graph.neighbors(s)),
                                   dtype=np.int64)
                if nbrs.size == 0:  # single-node chip: only s -> s
                    cached[s] = s
                    continue
                # First (lowest-index) neighbour strictly closer to d.
                closer = dist[nbrs] == dist[s] - 1
                cached[s] = nbrs[np.argmax(closer, axis=0)]
                cached[s, s] = s
            self.__dict__["_shortest_path_next_hop"] = cached
        return cached


def _build(name: str, description: str,
           edges: Iterable[Tuple[int, int]],
           coords: Dict[int, Coord]) -> Topology:
    graph = nx.Graph()
    graph.add_nodes_from(range(len(coords)))
    graph.add_edges_from(edges)
    return Topology(name=name, description=description, graph=graph, coords=coords)


def grid_topology(rows: int = 5, cols: int = 5) -> Topology:
    """Rectangular grid topology (Table I: "Grid", QEC-friendly [3])."""
    if rows < 1 or cols < 1:
        raise ValueError("grid dimensions must be positive")
    coords: Dict[int, Coord] = {}
    edges: List[Tuple[int, int]] = []
    for r in range(rows):
        for c in range(cols):
            node = r * cols + c
            coords[node] = (float(c), float(r))
            if c + 1 < cols:
                edges.append((node, node + 1))
            if r + 1 < rows:
                edges.append((node, node + cols))
    return _build(f"grid-{rows * cols}",
                  f"{rows}x{cols} grid, quantum-error-correction friendly",
                  edges, coords)


def falcon_topology() -> Topology:
    """IBM Falcon 27-qubit heavy-hex processor (Table I)."""
    coords = {i: FALCON_27_COORDS[i] for i in range(27)}
    return _build("falcon-27", "Heavy Hex, Falcon processor from IBM",
                  FALCON_27_EDGES, coords)


def heavy_hex_lattice(long_rows: int = 7, row_len: int = 15) -> Topology:
    """Generic IBM-style heavy-hex lattice.

    Long rows of ``row_len`` qubits alternate with connector rows whose
    columns alternate between offsets 0 and 2 with spacing 4 (one
    connector per reachable column, so wider lattices scale the
    connector count with ``row_len``; at the Eagle width of 15 exactly
    four per row, as before).  The first long row drops its last qubit
    and the final long row drops its first one, following the IBM Eagle
    (127-qubit) pattern: ``heavy_hex_lattice(7, 15)`` yields exactly
    127 qubits / 144 couplers, and ``heavy_hex_lattice(21, 43)`` the
    1121-qubit Condor-class lattice.
    """
    if long_rows < 2:
        raise ValueError("need at least two long rows")
    if row_len < 5:
        raise ValueError("row_len must be at least 5")
    coords: Dict[int, Coord] = {}
    edges: List[Tuple[int, int]] = []
    node = 0
    # cols_by_row[r] maps column -> node id for long row r.
    previous_row: Dict[int, int] = {}
    for r in range(long_rows):
        if r == 0:
            cols = range(0, row_len - 1)
        elif r == long_rows - 1:
            cols = range(1, row_len)
        else:
            cols = range(0, row_len)
        row_nodes: Dict[int, int] = {}
        for c in cols:
            row_nodes[c] = node
            coords[node] = (float(c), float(2 * r))
            node += 1
        for c in row_nodes:
            if c + 1 in row_nodes:
                edges.append((row_nodes[c], row_nodes[c + 1]))
        if r > 0:
            offset = 0 if (r - 1) % 2 == 0 else 2
            connector_cols = range(offset, row_len, 4)
            for c in connector_cols:
                if c not in previous_row or c not in row_nodes:
                    continue
                coords[node] = (float(c), float(2 * r - 1))
                edges.append((previous_row[c], node))
                edges.append((node, row_nodes[c]))
                node += 1
        previous_row = row_nodes
    # Re-number connectors so ids are dense 0..n-1 in creation order; the
    # loop above already assigns dense ids, so just build the topology.
    return _build(f"heavy-hex-{len(coords)}",
                  f"Heavy-hex lattice with {long_rows} long rows",
                  edges, coords)


def eagle_topology() -> Topology:
    """IBM Eagle 127-qubit heavy-hex processor (Table I)."""
    topo = heavy_hex_lattice(7, 15)
    if topo.num_qubits != 127:
        raise AssertionError(f"Eagle generator produced {topo.num_qubits} qubits")
    return Topology(name="eagle-127",
                    description="Heavy Hex, Eagle processor from IBM",
                    graph=topo.graph, coords=topo.coords)


def condor_topology() -> Topology:
    """Synthetic IBM Condor-class 1121-qubit heavy-hex lattice.

    21 long rows of 43 qubits with 11 connectors per connector row:
    ``21 * 43 - 2 + 20 * 11 = 1121`` qubits — the production-scale tier
    the pruned placement numbers target (qGDP's condor-1121 scale).
    """
    topo = heavy_hex_lattice(21, 43)
    if topo.num_qubits != 1121:
        raise AssertionError(
            f"Condor generator produced {topo.num_qubits} qubits")
    return Topology(name="condor-1121",
                    description="Heavy Hex, Condor-class synthetic lattice",
                    graph=topo.graph, coords=topo.coords)


def condor_sm_topology() -> Topology:
    """Condor smoke tier: 433-qubit heavy-hex (13 long rows of 27).

    ``13 * 27 - 2 + 12 * 7 = 433`` qubits — large enough to exercise
    the pruned placement numbers and the scale benches, small enough
    for CI.
    """
    topo = heavy_hex_lattice(13, 27)
    if topo.num_qubits != 433:
        raise AssertionError(
            f"Condor-SM generator produced {topo.num_qubits} qubits")
    return Topology(name="condor-sm-433",
                    description="Heavy Hex, Condor-class smoke tier",
                    graph=topo.graph, coords=topo.coords)


#: Unit-octagon vertex angles (degrees) for local indices 0..7.
_OCTAGON_ANGLES_DEG = (67.5, 112.5, 157.5, 202.5, 247.5, 292.5, 337.5, 22.5)


def octagon_topology(octagon_rows: int, octagon_cols: int,
                     name: str = "", description: str = "") -> Topology:
    """Rigetti Aspen-style lattice of 8-qubit octagon rings.

    Each octagon contributes its 8 ring edges.  Horizontally adjacent
    octagons couple through their two facing vertex pairs, vertically
    adjacent ones likewise (two couplers per adjacency), matching the
    Aspen family's inter-ring connectivity.
    """
    if octagon_rows < 1 or octagon_cols < 1:
        raise ValueError("octagon grid dimensions must be positive")
    radius = 1.3066  # unit edge length: R = 1 / (2 sin(pi/8))
    spacing = 2.0 * radius + 1.0
    coords: Dict[int, Coord] = {}
    edges: List[Tuple[int, int]] = []

    def node_id(row: int, col: int, k: int) -> int:
        return (row * octagon_cols + col) * 8 + k

    for row in range(octagon_rows):
        for col in range(octagon_cols):
            cx = col * spacing
            cy = row * spacing
            for k, angle in enumerate(_OCTAGON_ANGLES_DEG):
                rad = math.radians(angle)
                coords[node_id(row, col, k)] = (cx + radius * math.cos(rad),
                                                cy + radius * math.sin(rad))
            for k in range(8):
                edges.append((node_id(row, col, k), node_id(row, col, (k + 1) % 8)))
            if col + 1 < octagon_cols:
                # right nodes {7 (upper), 6 (lower)} meet left nodes {2, 3}.
                edges.append((node_id(row, col, 7), node_id(row, col + 1, 2)))
                edges.append((node_id(row, col, 6), node_id(row, col + 1, 3)))
            if row + 1 < octagon_rows:
                # top nodes {0 (right), 1 (left)} of this octagon meet the
                # bottom nodes {5, 4} of the octagon above.
                edges.append((node_id(row, col, 0), node_id(row + 1, col, 5)))
                edges.append((node_id(row, col, 1), node_id(row + 1, col, 4)))
    n = octagon_rows * octagon_cols * 8
    return _build(name or f"octagon-{n}",
                  description or f"{octagon_rows}x{octagon_cols} octagon lattice",
                  edges, coords)


def aspen11_topology() -> Topology:
    """Rigetti Aspen-11 40-qubit octagon processor (Table I)."""
    topo = octagon_topology(1, 5, name="aspen11-40",
                            description="Octagon, Aspen-11 processor from Rigetti")
    if topo.num_qubits != 40:
        raise AssertionError("Aspen-11 generator must produce 40 qubits")
    return topo


def aspen_m_topology() -> Topology:
    """Rigetti Aspen-M 80-qubit octagon processor (Table I)."""
    topo = octagon_topology(2, 5, name="aspenm-80",
                            description="Octagon, Aspen-M processor from Rigetti")
    if topo.num_qubits != 80:
        raise AssertionError("Aspen-M generator must produce 80 qubits")
    return topo


def xtree_topology(branching: Sequence[int] = (4, 3, 3),
                   name: str = "xtree-53") -> Topology:
    """Pauli-string-efficient X-tree architecture (Table I, ref. [51]).

    A rooted tree whose level ``k`` nodes each have ``branching[k]``
    children.  The default ``(4, 3, 3)`` gives 1 + 4 + 12 + 36 = 53
    qubits, the "Level 3" X-tree evaluated in the paper.
    """
    if any(b < 1 for b in branching):
        raise ValueError("branching factors must be >= 1")
    coords: Dict[int, Coord] = {}
    edges: List[Tuple[int, int]] = []
    level_nodes: List[List[int]] = [[0]]
    node = 1
    for b in branching:
        next_level: List[int] = []
        for parent in level_nodes[-1]:
            for _ in range(b):
                edges.append((parent, node))
                next_level.append(node)
                node += 1
        level_nodes.append(next_level)
    total = node
    max_width = max(len(level) for level in level_nodes)
    for depth, level in enumerate(level_nodes):
        span = float(max_width)
        step = span / len(level)
        for i, nid in enumerate(level):
            coords[nid] = ((i + 0.5) * step, float(depth) * 1.5)
    topo = _build(name, "Pauli-String efficient X-tree architecture, Level 3",
                  edges, coords)
    if name == "xtree-53" and topo.num_qubits != 53:
        raise AssertionError("level-3 X-tree must have 53 qubits")
    return topo


#: Registry of the six Table I topologies plus the condor scale tiers,
#: keyed by canonical name.
TOPOLOGY_FACTORIES: Dict[str, Callable[[], Topology]] = {
    "grid-25": grid_topology,
    "xtree-53": xtree_topology,
    "falcon-27": falcon_topology,
    "eagle-127": eagle_topology,
    "aspen11-40": aspen11_topology,
    "aspenm-80": aspen_m_topology,
    "condor-sm-433": condor_sm_topology,
    "condor-1121": condor_topology,
}

#: Evaluation ordering used by the paper's figures.
PAPER_TOPOLOGY_ORDER: Tuple[str, ...] = (
    "grid-25", "xtree-53", "falcon-27", "eagle-127", "aspen11-40", "aspenm-80",
)

#: Synthetic scale tiers beyond the paper evaluation (smallest first).
SCALE_TOPOLOGY_ORDER: Tuple[str, ...] = ("condor-sm-433", "condor-1121")

#: Short display labels matching the paper's figure axes.
TOPOLOGY_LABELS: Dict[str, str] = {
    "grid-25": "Grid",
    "xtree-53": "Xtree",
    "falcon-27": "Falcon",
    "eagle-127": "Eagle",
    "aspen11-40": "Aspen-11",
    "aspenm-80": "Aspen-M",
    "condor-sm-433": "Condor-SM",
    "condor-1121": "Condor",
}


def get_topology(name: str) -> Topology:
    """Instantiate a registered topology by name.

    Besides the Table I registry, square grids of any size resolve
    generically: ``"grid-9"`` builds a 3x3 grid, ``"grid-36"`` a 6x6.

    Raises:
        KeyError: with the list of known names for unknown keys.
    """
    factory = TOPOLOGY_FACTORIES.get(name)
    if factory is not None:
        return factory()
    if name.startswith("grid-"):
        try:
            count = int(name.split("-", 1)[1])
        except ValueError:
            count = -1
        side = math.isqrt(count) if count > 0 else 0
        if side * side == count and side >= 1:
            return grid_topology(side, side)
    known = ", ".join(sorted(TOPOLOGY_FACTORIES))
    raise KeyError(f"unknown topology {name!r}; known: {known} "
                   f"(or generic 'grid-N' with square N)")


def all_paper_topologies() -> List[Topology]:
    """All six Table I topologies in paper order."""
    return [get_topology(name) for name in PAPER_TOPOLOGY_ORDER]

"""Coupling maps and topology metrics.

IBM superconducting devices restrict two-qubit gates to nearest-neighbour
pairs of a sparse coupling graph.  This module provides:

* :class:`CouplingMap` — the undirected connectivity graph with distance
  queries (used by routing) and the **bisection bandwidth** metric that
  Fig. 6 of the paper plots against machine size.
* Constructors for the topology families used by the machine catalog:
  lines, rings, grids, the 5-qubit T/bowtie layouts, the 16/27-qubit Falcon
  lattices and the 53/65-qubit Hummingbird heavy-hex lattices.
"""

from __future__ import annotations

import itertools
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.core.exceptions import DeviceError

Edge = Tuple[int, int]

#: A dict-of-dicts adjacency: each qubit's neighbours, in insertion order.
Adjacency = Dict[int, Dict[int, None]]


class CouplingMap:
    """Undirected qubit-connectivity graph of a quantum machine.

    The adjacency is filled as ``networkx.Graph`` fills its own: qubits in
    index order, each qubit's neighbours in the order their first edge was
    given.  Searches visit neighbours in that order, so a shortest path is
    the one networkx returns, and the Kernighan-Lin heuristic gets the
    graph networkx would have built from the same edges.
    """

    def __init__(self, num_qubits: int, edges: Iterable[Edge]):
        if num_qubits < 1:
            raise DeviceError("a coupling map needs at least one qubit")
        self.num_qubits = int(num_qubits)
        self._adj: Adjacency = {qubit: {} for qubit in range(self.num_qubits)}
        #: each edge once, as first given
        self._edge_order: List[Edge] = []
        for a, b in edges:
            if a == b:
                raise DeviceError(f"self-loop edge ({a}, {b}) is invalid")
            if not (0 <= a < num_qubits and 0 <= b < num_qubits):
                raise DeviceError(
                    f"edge ({a}, {b}) out of range for {num_qubits} qubits"
                )
            a, b = int(a), int(b)
            if b not in self._adj[a]:
                self._adj[a][b] = None
                self._adj[b][a] = None
                self._edge_order.append((a, b))
        self._edges = sorted((min(a, b), max(a, b)) for a, b in self._edge_order)
        #: breadth-first distances from each source asked for so far
        self._distance_rows: Dict[int, Dict[int, int]] = {}

    # -- basic structure -----------------------------------------------------------

    @property
    def edges(self) -> List[Edge]:
        return list(self._edges)

    @property
    def num_edges(self) -> int:
        return len(self._edges)

    def neighbors(self, qubit: int) -> List[int]:
        self._check_qubit(qubit)
        return sorted(self._adj[qubit])

    def degree(self, qubit: int) -> int:
        self._check_qubit(qubit)
        return len(self._adj[qubit])

    def are_connected(self, qubit_a: int, qubit_b: int) -> bool:
        self._check_qubit(qubit_a)
        self._check_qubit(qubit_b)
        return qubit_b in self._adj[qubit_a]

    def is_connected_graph(self) -> bool:
        """Whether the device graph is a single connected component."""
        return len(self._distances_from(0)) == self.num_qubits

    def _check_qubit(self, qubit: int) -> None:
        if not 0 <= qubit < self.num_qubits:
            raise DeviceError(
                f"qubit {qubit} out of range for {self.num_qubits}-qubit map"
            )

    # -- distances -----------------------------------------------------------------

    def _distances_from(self, source: int) -> Dict[int, int]:
        """Hop counts from ``source`` to every qubit it reaches."""
        row = self._distance_rows.get(source)
        if row is None:
            row = {source: 0}
            frontier = [source]
            hops = 0
            while frontier:
                hops += 1
                reached = []
                for node in frontier:
                    for neighbour in self._adj[node]:
                        if neighbour not in row:
                            row[neighbour] = hops
                            reached.append(neighbour)
                frontier = reached
            self._distance_rows[source] = row
        return row

    def distance(self, qubit_a: int, qubit_b: int) -> int:
        """Shortest-path distance in the coupling graph."""
        self._check_qubit(qubit_a)
        self._check_qubit(qubit_b)
        try:
            return self._distances_from(qubit_a)[qubit_b]
        except KeyError:
            raise DeviceError(
                f"qubits {qubit_a} and {qubit_b} are not connected"
            ) from None

    def shortest_path(self, qubit_a: int, qubit_b: int) -> List[int]:
        """The qubits of a shortest path from ``qubit_a`` to ``qubit_b``.

        Of several shortest paths this is the one ``nx.shortest_path``
        returns: the search is networkx's bidirectional breadth-first
        search, step for step.  Routing swaps along it.
        """
        self._check_qubit(qubit_a)
        self._check_qubit(qubit_b)
        found = _bidirectional_search(self._adj, qubit_a, qubit_b)
        if found is None:
            raise DeviceError(
                f"qubits {qubit_a} and {qubit_b} are not connected"
            )
        pred, succ, node = found
        path = []
        while node is not None:
            path.append(node)
            node = pred[node]
        path.reverse()
        node = succ[path[-1]]
        while node is not None:
            path.append(node)
            node = succ[node]
        return path

    def diameter(self) -> int:
        if not self.is_connected_graph():
            raise DeviceError("diameter undefined for disconnected coupling map")
        return max(max(self._distances_from(qubit).values())
                   for qubit in range(self.num_qubits))

    # -- bisection bandwidth (Fig. 6) ------------------------------------------------

    def bisection_bandwidth(self, exact_limit: int = 14) -> int:
        """Minimum number of edges crossing a balanced bipartition.

        For machines up to ``exact_limit`` qubits the exact optimum is found
        by enumerating balanced partitions; beyond that a Kernighan-Lin style
        heuristic (with several seeds) is used, which matches the accuracy
        needed to reproduce Fig. 6's qualitative claim that quantum devices
        have far lower bisection bandwidth than classical meshes.
        """
        if self.num_qubits == 1:
            return 0
        nodes = list(range(self.num_qubits))
        half = self.num_qubits // 2
        if self.num_qubits <= exact_limit:
            best = None
            anchored = nodes[0]
            others = nodes[1:]
            for combo in itertools.combinations(others, half - 1 if half >= 1 else 0):
                side = set(combo) | {anchored}
                if len(side) != half:
                    continue
                cut = self._cut_size(side)
                if best is None or cut < best:
                    best = cut
            if best is None:
                # num_qubits == 2 edge case: the only balanced split.
                best = self._cut_size({nodes[0]})
            return best
        return self._heuristic_bisection(half)

    def _cut_size(self, side: Set[int]) -> int:
        return sum(
            1 for a, b in self._edges if (a in side) != (b in side)
        )

    def _heuristic_bisection(self, half: int) -> int:
        # The only use of networkx on a coupling map, so it is imported
        # here.  Kernighan-Lin walks the nodes and their neighbours in the
        # graph's insertion order, which adding the edges as first given
        # reproduces.
        import networkx as nx

        graph = nx.Graph()
        graph.add_nodes_from(range(self.num_qubits))
        graph.add_edges_from(self._edge_order)
        best = None
        for seed in range(5):
            try:
                partition = nx.algorithms.community.kernighan_lin_bisection(
                    graph, max_iter=20, seed=seed
                )
            except Exception:  # pragma: no cover - networkx internal failure
                continue
            cut = self._cut_size(partition[0])
            if best is None or cut < best:
                best = cut
        if best is None:  # pragma: no cover - fallback
            best = self._cut_size(set(range(half)))
        return best

    def subgraph_is_connected(self, qubits: Sequence[int]) -> bool:
        """Whether the induced subgraph over ``qubits`` is connected."""
        if not qubits:
            return False
        region = set(qubits)
        for qubit in region:
            self._check_qubit(qubit)
        start = next(iter(region))
        seen = {start}
        stack = [start]
        while stack:
            for neighbour in self._adj[stack.pop()]:
                if neighbour in region and neighbour not in seen:
                    seen.add(neighbour)
                    stack.append(neighbour)
        return len(seen) == len(region)

    def __repr__(self) -> str:
        return f"CouplingMap(qubits={self.num_qubits}, edges={self.num_edges})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CouplingMap):
            return NotImplemented
        return self.num_qubits == other.num_qubits and self.edges == other.edges


def _bidirectional_search(adj: Adjacency, source: int, target: int
                          ) -> Optional[Tuple[Dict[int, Optional[int]],
                                              Dict[int, Optional[int]], int]]:
    """networkx's ``_bidirectional_pred_succ`` on a dict-of-dicts adjacency.

    Returns ``(pred, succ, meet)``: the forward search's predecessors back
    to ``source``, the reverse search's successors on to ``target`` and the
    qubit where they met; ``None`` when no path exists.
    """
    pred: Dict[int, Optional[int]] = {source: None}
    succ: Dict[int, Optional[int]] = {target: None}
    if source == target:
        return pred, succ, source
    forward, reverse = [source], [target]
    while forward and reverse:
        if len(forward) <= len(reverse):
            level, forward = forward, []
            for node in level:
                for neighbour in adj[node]:
                    if neighbour not in pred:
                        forward.append(neighbour)
                        pred[neighbour] = node
                    if neighbour in succ:
                        return pred, succ, neighbour
        else:
            level, reverse = reverse, []
            for node in level:
                for neighbour in adj[node]:
                    if neighbour not in succ:
                        succ[neighbour] = node
                        reverse.append(neighbour)
                    if neighbour in pred:
                        return pred, succ, neighbour
    return None


# ---------------------------------------------------------------------------
# Topology constructors
# ---------------------------------------------------------------------------

def line_topology(num_qubits: int) -> CouplingMap:
    """A 1-D chain of qubits."""
    return CouplingMap(num_qubits, [(i, i + 1) for i in range(num_qubits - 1)])


def ring_topology(num_qubits: int) -> CouplingMap:
    """A 1-D ring."""
    if num_qubits < 3:
        return line_topology(num_qubits)
    edges = [(i, (i + 1) % num_qubits) for i in range(num_qubits)]
    return CouplingMap(num_qubits, edges)


def star_topology(num_qubits: int) -> CouplingMap:
    """Qubit 0 connected to every other qubit."""
    return CouplingMap(num_qubits, [(0, i) for i in range(1, num_qubits)])


def fully_connected_topology(num_qubits: int) -> CouplingMap:
    """All-to-all connectivity (used for fake/ideal comparisons)."""
    edges = list(itertools.combinations(range(num_qubits), 2))
    return CouplingMap(num_qubits, edges)


def grid_topology(rows: int, cols: int) -> CouplingMap:
    """A rows x cols 2-D mesh (the classical comparator in Fig. 6)."""
    if rows < 1 or cols < 1:
        raise DeviceError("grid dimensions must be positive")
    edges = []
    for r in range(rows):
        for c in range(cols):
            node = r * cols + c
            if c + 1 < cols:
                edges.append((node, node + 1))
            if r + 1 < rows:
                edges.append((node, node + cols))
    return CouplingMap(rows * cols, edges)


def t_topology() -> CouplingMap:
    """The 5-qubit "T" layout of ibmq_ourense / vigo / valencia."""
    return CouplingMap(5, [(0, 1), (1, 2), (1, 3), (3, 4)])


def bowtie_topology() -> CouplingMap:
    """The 5-qubit bowtie layout of ibmqx2 (yorktown)."""
    return CouplingMap(5, [(0, 1), (0, 2), (1, 2), (2, 3), (2, 4), (3, 4)])


def falcon_topology(num_qubits: int) -> CouplingMap:
    """Falcon-family lattices (7, 16 or 27 qubits).

    These follow the heavy-hexagon fragments IBM used for the Falcon
    processors (casablanca/guadalupe/toronto/paris and peers).
    """
    if num_qubits == 7:
        edges = [(0, 1), (1, 2), (1, 3), (3, 5), (4, 5), (5, 6)]
        return CouplingMap(7, edges)
    if num_qubits == 16:
        edges = [
            (0, 1), (1, 2), (2, 3), (3, 5), (4, 1), (5, 8), (6, 7), (7, 10),
            (8, 9), (8, 11), (10, 12), (11, 14), (12, 13), (12, 15), (13, 14),
        ]
        return CouplingMap(16, edges)
    if num_qubits == 27:
        edges = [
            (0, 1), (1, 2), (1, 4), (2, 3), (3, 5), (4, 7), (5, 8), (6, 7),
            (7, 10), (8, 9), (8, 11), (10, 12), (11, 14), (12, 13), (12, 15),
            (13, 14), (14, 16), (15, 18), (16, 19), (17, 18), (18, 21),
            (19, 20), (19, 22), (21, 23), (22, 25), (23, 24), (24, 25),
            (25, 26),
        ]
        return CouplingMap(27, edges)
    raise DeviceError(f"no Falcon layout defined for {num_qubits} qubits")


def heavy_hex_topology(rows: int, cols: int) -> CouplingMap:
    """A generic heavy-hexagon-like sparse lattice.

    Construction: take a ``rows x cols`` mesh and delete alternating vertical
    links so the average degree drops to ~2.3, which matches the sparsity of
    IBM heavy-hex devices closely enough for bisection-bandwidth and routing
    studies.
    """
    if rows < 1 or cols < 1:
        raise DeviceError("heavy-hex dimensions must be positive")
    edges = []
    for r in range(rows):
        for c in range(cols):
            node = r * cols + c
            if c + 1 < cols:
                edges.append((node, node + 1))
            if r + 1 < rows and (c % 4 == r % 2 * 2):
                edges.append((node, node + cols))
    cmap = CouplingMap(rows * cols, edges)
    if not cmap.is_connected_graph():
        # Guarantee connectivity by stitching rows at the left edge.
        extra = [(r * cols, (r + 1) * cols) for r in range(rows - 1)]
        cmap = CouplingMap(rows * cols, edges + extra)
    return cmap


def hummingbird_topology(num_qubits: int) -> CouplingMap:
    """Hummingbird-family lattices (53 or 65 qubits, heavy-hex)."""
    if num_qubits == 65:
        return heavy_hex_topology(5, 13)
    if num_qubits == 53:
        cmap = heavy_hex_topology(5, 11)
        # trim to 53 qubits by removing the two highest-index nodes' edges
        keep = 53
        edges = [(a, b) for a, b in cmap.edges if a < keep and b < keep]
        trimmed = CouplingMap(keep, edges)
        if not trimmed.is_connected_graph():
            edges.append((keep - 2, keep - 1))
            edges.append((keep - 12, keep - 1))
            trimmed = CouplingMap(keep, edges)
        return trimmed
    raise DeviceError(f"no Hummingbird layout defined for {num_qubits} qubits")

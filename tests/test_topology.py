"""Tests for repro.devices.topology."""

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.exceptions import DeviceError
from repro.devices import fleet_in_study
from repro.devices.topology import (
    CouplingMap,
    bowtie_topology,
    falcon_topology,
    fully_connected_topology,
    grid_topology,
    heavy_hex_topology,
    hummingbird_topology,
    line_topology,
    ring_topology,
    star_topology,
    t_topology,
)


class TestCouplingMap:
    def test_invalid_edges_rejected(self):
        with pytest.raises(DeviceError):
            CouplingMap(3, [(0, 3)])
        with pytest.raises(DeviceError):
            CouplingMap(3, [(1, 1)])
        with pytest.raises(DeviceError):
            CouplingMap(0, [])

    def test_neighbors_and_degree(self):
        cmap = line_topology(4)
        assert cmap.neighbors(0) == [1]
        assert cmap.neighbors(1) == [0, 2]
        assert cmap.degree(1) == 2

    def test_distance_on_a_line(self):
        cmap = line_topology(5)
        assert cmap.distance(0, 4) == 4
        assert cmap.distance(2, 2) == 0

    def test_shortest_path_endpoints(self):
        cmap = line_topology(5)
        path = cmap.shortest_path(0, 3)
        assert path[0] == 0 and path[-1] == 3
        assert len(path) == 4

    def test_disconnected_distance_raises(self):
        cmap = CouplingMap(4, [(0, 1), (2, 3)])
        assert not cmap.is_connected_graph()
        with pytest.raises(DeviceError):
            cmap.distance(0, 3)

    def test_out_of_range_qubit_rejected(self):
        with pytest.raises(DeviceError):
            line_topology(3).neighbors(5)

    def test_equality(self):
        assert line_topology(3) == line_topology(3)
        assert line_topology(3) != ring_topology(3)


class TestBisectionBandwidth:
    def test_line_is_one(self):
        assert line_topology(8).bisection_bandwidth() == 1

    def test_ring_is_two(self):
        assert ring_topology(8).bisection_bandwidth() == 2

    def test_grid_matches_mesh_formula(self):
        # The paper's comparison: an 8x8 mesh has bisection bandwidth 8.
        assert grid_topology(4, 4).bisection_bandwidth() == 4

    def test_fully_connected(self):
        # K4 split 2/2 has 4 crossing edges.
        assert fully_connected_topology(4).bisection_bandwidth() == 4

    def test_single_qubit_is_zero(self):
        assert line_topology(1).bisection_bandwidth() == 0

    def test_heuristic_close_to_exact_on_medium_graph(self):
        cmap = grid_topology(3, 4)  # 12 qubits: exact path
        exact = cmap.bisection_bandwidth(exact_limit=14)
        heuristic = cmap.bisection_bandwidth(exact_limit=2)
        assert heuristic >= exact
        assert heuristic <= 2 * exact + 1


class TestTopologyConstructors:
    def test_t_and_bowtie_sizes(self):
        assert t_topology().num_qubits == 5
        assert bowtie_topology().num_qubits == 5

    @pytest.mark.parametrize("qubits", [7, 16, 27])
    def test_falcon_layouts_connected(self, qubits):
        cmap = falcon_topology(qubits)
        assert cmap.num_qubits == qubits
        assert cmap.is_connected_graph()

    def test_falcon_unknown_size_rejected(self):
        with pytest.raises(DeviceError):
            falcon_topology(11)

    @pytest.mark.parametrize("qubits", [53, 65])
    def test_hummingbird_layouts(self, qubits):
        cmap = hummingbird_topology(qubits)
        assert cmap.num_qubits == qubits
        assert cmap.is_connected_graph()
        # Heavy-hex lattices are sparse: average degree well under 3.
        assert 2.0 * cmap.num_edges / cmap.num_qubits < 3.0

    def test_heavy_hex_connected(self):
        assert heavy_hex_topology(4, 9).is_connected_graph()

    def test_star_topology(self):
        cmap = star_topology(5)
        assert cmap.degree(0) == 4
        assert cmap.bisection_bandwidth() >= 2

    def test_grid_invalid_dimensions(self):
        with pytest.raises(DeviceError):
            grid_topology(0, 3)


# -- equivalence with networkx ---------------------------------------------------


def built_maps(monkeypatch):
    """Record every :class:`CouplingMap` built from here on, with the edges
    it was given, in order: ``[(map, num_qubits, edges)]``."""
    built = []
    original = CouplingMap.__init__

    def recording(self, num_qubits, edges):
        edges = list(edges)
        built.append((self, num_qubits, edges))
        original(self, num_qubits, edges)

    monkeypatch.setattr(CouplingMap, "__init__", recording)
    return built


def reference_graph(num_qubits, edges):
    """The ``nx.Graph`` a coupling map was once backed by: the qubits in
    index order, then each edge as given."""
    graph = nx.Graph()
    graph.add_nodes_from(range(num_qubits))
    for a, b in edges:
        graph.add_edge(int(a), int(b))
    return graph


def reference_bisection(graph):
    """``bisection_bandwidth(exact_limit=2)`` computed on the reference: the
    least cut of five seeded Kernighan-Lin bisections above two qubits."""
    if len(graph) <= 2:
        return graph.number_of_edges()
    cuts = []
    for seed in range(5):
        side = nx.algorithms.community.kernighan_lin_bisection(
            graph, max_iter=20, seed=seed)[0]
        cuts.append(sum(1 for a, b in graph.edges
                        if (a in side) != (b in side)))
    return min(cuts)


def assert_matches_networkx(cmap, graph, regions=()):
    qubits = range(cmap.num_qubits)
    assert cmap.edges == sorted(tuple(sorted(edge)) for edge in graph.edges)
    for qubit in qubits:
        assert cmap.neighbors(qubit) == sorted(graph.neighbors(qubit))
    lengths = dict(nx.all_pairs_shortest_path_length(graph))
    for a in qubits:
        for b in qubits:
            if b in lengths[a]:
                assert cmap.distance(a, b) == lengths[a][b]
                # Routing swaps along this sequence, so ties must break
                # as networkx breaks them.
                assert cmap.shortest_path(a, b) == nx.shortest_path(graph, a, b)
            else:
                with pytest.raises(DeviceError):
                    cmap.distance(a, b)
                with pytest.raises(DeviceError):
                    cmap.shortest_path(a, b)
    connected = nx.is_connected(graph)
    assert cmap.is_connected_graph() == connected
    if connected:
        assert cmap.diameter() == nx.diameter(graph)
    else:
        with pytest.raises(DeviceError):
            cmap.diameter()
    prefixes = [list(range(size)) for size in range(1, cmap.num_qubits + 1)]
    for region in [*prefixes, list(qubits)[::2], *regions]:
        assert cmap.subgraph_is_connected(region) == nx.is_connected(
            graph.subgraph(region))
    assert cmap.bisection_bandwidth(exact_limit=2) == reference_bisection(graph)


CONSTRUCTED = {
    "line-1": lambda: line_topology(1),
    "line-2": lambda: line_topology(2),
    "line-9": lambda: line_topology(9),
    "ring-2": lambda: ring_topology(2),
    "ring-12": lambda: ring_topology(12),
    "star-9": lambda: star_topology(9),
    "full-7": lambda: fully_connected_topology(7),
    "grid-4x5": lambda: grid_topology(4, 5),
    "t": t_topology,
    "bowtie": bowtie_topology,
    "falcon-7": lambda: falcon_topology(7),
    "falcon-16": lambda: falcon_topology(16),
    "falcon-27": lambda: falcon_topology(27),
    "heavy-hex-4x9": lambda: heavy_hex_topology(4, 9),
    "hummingbird-53": lambda: hummingbird_topology(53),
    "hummingbird-65": lambda: hummingbird_topology(65),
}


def _graph_of(built, cmap):
    for candidate, num_qubits, edges in built:
        if candidate is cmap:
            return reference_graph(num_qubits, edges)
    raise AssertionError(f"{cmap!r} was not built through the constructor")


@st.composite
def coupling_graphs(draw):
    """``(num_qubits, edges, region)``: 2-70 qubits, edges in any order and
    orientation with repeats, made connected by an interleaved spanning tree
    half the time, and a qubit region to test for connectivity."""
    num_qubits = draw(st.integers(2, 70))
    qubit = st.integers(0, num_qubits - 1)
    edges = draw(st.lists(st.tuples(qubit, qubit).filter(lambda e: e[0] != e[1]),
                          max_size=2 * num_qubits))
    if draw(st.booleans()):
        tree = []
        for child in range(1, num_qubits):
            parent = draw(st.integers(0, child - 1))
            tree.append((child, parent) if draw(st.booleans())
                        else (parent, child))
        edges = draw(st.permutations(edges + tree))
    region = draw(st.lists(qubit, min_size=1, max_size=num_qubits))
    return num_qubits, edges, region


class TestNetworkxEquivalence:
    """The dict-of-dicts map answers every query as the ``nx.Graph`` it
    replaced, built from the same edges in the same order."""

    @pytest.mark.parametrize("name", sorted(CONSTRUCTED))
    def test_every_constructor(self, monkeypatch, name):
        built = built_maps(monkeypatch)
        cmap = CONSTRUCTED[name]()
        assert_matches_networkx(cmap, _graph_of(built, cmap))

    def test_the_study_fleet(self, monkeypatch):
        built = built_maps(monkeypatch)
        fleet = fleet_in_study()
        assert len(fleet) == 28
        for backend in fleet.values():
            cmap = backend.coupling_map
            assert_matches_networkx(cmap, _graph_of(built, cmap))

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(coupling_graphs())
    def test_drawn_graphs(self, drawn):
        num_qubits, edges, region = drawn
        assert_matches_networkx(CouplingMap(num_qubits, edges),
                                reference_graph(num_qubits, edges), [region])

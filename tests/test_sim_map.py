"""Unit tests for the town map."""

import numpy as np
import networkx as nx
import pytest

from repro.sim import TownMap


@pytest.fixture(scope="module")
def small_town():
    return TownMap(size=400.0, grid_n=3, seed=0)


class TestConstruction:
    def test_graph_connected(self, small_town):
        assert nx.is_connected(nx.Graph(small_town.adjacency))

    def test_node_count(self, small_town):
        # 3x3 town grid + 4 rural corners.
        assert len(small_town.adjacency) == 13

    def test_no_rural_option(self):
        town = TownMap(size=400.0, grid_n=3, rural=False, seed=0)
        assert len(town.adjacency) == 9
        assert town.town_nodes() == town.nodes()

    def test_one_shared_record_per_road(self, small_town):
        for k, (a, b) in enumerate(small_town.edges()):
            assert small_town.adjacency[a][b] is small_town.adjacency[b][a]
            assert small_town.adjacency[a][b]["index"] == k

    def test_town_nodes_within_bounds(self, small_town):
        for node in small_town.town_nodes():
            pos = small_town.node_position(node)
            assert 0 <= pos[0] <= 400 and 0 <= pos[1] <= 400

    def test_grid_too_small_rejected(self):
        with pytest.raises(ValueError):
            TownMap(grid_n=1)


class TestQueries:
    def test_nearest_node(self, small_town):
        node = small_town.town_nodes()[0]
        pos = small_town.node_position(node)
        assert small_town.nearest_node(pos + 1.0) == node

    def test_shortest_path_endpoints(self, small_town):
        nodes = small_town.town_nodes()
        path = small_town.shortest_path(nodes[0], nodes[-1])
        assert path[0] == nodes[0] and path[-1] == nodes[-1]

    def test_jittered_path_valid(self, small_town):
        nodes = small_town.town_nodes()
        rng = np.random.default_rng(0)
        path = small_town.shortest_path(nodes[0], nodes[-1], rng=rng)
        for a, b in zip(path, path[1:]):
            assert b in small_town.adjacency[a]

    def test_on_road_at_edge_midpoint(self, small_town):
        a, b = small_town.edges()[0]
        mid = (small_town.node_position(a) + small_town.node_position(b)) / 2
        assert small_town.is_on_road(mid)

    def test_off_road_far_from_everything(self, small_town):
        assert not small_town.is_on_road(np.array([200.0, 1.0]))

    def test_margin_widens_road(self, small_town):
        a, b = small_town.edges()[0]
        pa, pb = small_town.node_position(a), small_town.node_position(b)
        direction = pb - pa
        normal = np.array([-direction[1], direction[0]]) / np.linalg.norm(direction)
        point = (pa + pb) / 2 + normal * (small_town.road_half_width + 1.0)
        assert not small_town.is_on_road(point)
        assert small_town.is_on_road(point, margin=2.0)

    def test_occupancy_vectorized_matches_scalar(self, small_town):
        rng = np.random.default_rng(2)
        points = rng.uniform(0, 400, size=(200, 2))
        vectorized = small_town.occupancy_at(points)
        scalar = np.array([small_town.is_on_road(p) for p in points])
        assert np.array_equal(vectorized, scalar)

    def test_occupancy_out_of_bounds_false(self, small_town):
        points = np.array([[-10.0, 50.0], [500.0, 50.0]])
        assert not small_town.occupancy_at(points).any()

    def test_random_road_point_on_road(self, small_town):
        rng = np.random.default_rng(3)
        for _ in range(50):
            point = small_town.random_road_point(rng)
            # Allow grid-resolution slack at the pavement edge.
            assert small_town.is_on_road(point, margin=1.0)

    def test_determinism(self):
        a = TownMap(size=400.0, grid_n=3, seed=5)
        b = TownMap(size=400.0, grid_n=3, seed=5)
        for node in a.nodes():
            assert np.allclose(a.node_position(node), b.node_position(node))


class _NetworkxMirror(TownMap):
    """A town that replays its construction into an ``nx.Graph``: the
    graph ``TownMap`` built when its roads were networkx's."""

    def __init__(self, **kwargs):
        self.nx_graph = nx.Graph()
        super().__init__(**kwargs)

    def _add_node(self, name, pos, kind):
        self.nx_graph.add_node(name, pos=pos, kind=kind)
        super()._add_node(name, pos, kind)

    def _add_road(self, a, b, arterial=False):
        super()._add_road(a, b, arterial)
        self.nx_graph.add_edge(a, b, length=self.adjacency[a][b]["length"], arterial=arterial)


def _networkx_route(graph, a, b, rng=None):
    """``TownMap.shortest_path`` as it was on networkx."""
    if rng is None:
        return nx.shortest_path(graph, a, b, weight="length")
    jitter = {frozenset(edge): rng.uniform(0.8, 1.2) for edge in graph.edges()}

    def weight(u, v, data):
        return data["length"] * jitter[frozenset((u, v))]

    return nx.shortest_path(graph, a, b, weight=weight)


def _oracle_towns():
    """The town of every built-in scale and of every selfcheck world."""
    from repro.experiments.configs import iter_scales
    from repro.selfcheck import ORACLE_WORLDS, build_scale
    from repro.sim.world import WorldConfig

    worlds = {scale.name: scale.world for scale in iter_scales()}
    for name in ("hotpath", "overlap", "city"):
        worlds[f"selfcheck-{name}"] = build_scale(name).world
    for name, (config, _) in ORACLE_WORLDS.items():
        worlds[f"oracle-{name}"] = WorldConfig(**config)
    return worlds


_TOWNS = _oracle_towns()


class TestRoutingOracle:
    """The in-repo bidirectional Dijkstra against ``nx.shortest_path`` on
    the graph networkx built from the same construction calls: the same
    road order, neighbour order and jitter draws, the same path, and the
    route generator left in the same state."""

    @pytest.fixture(scope="class", params=sorted(_TOWNS))
    def mirrored(self, request):
        world = _TOWNS[request.param]
        return _NetworkxMirror(
            size=world.map_size, grid_n=world.grid_n, rural=world.rural,
            seed=world.seed, districts_per_side=world.city_blocks,
        )

    def test_roads_and_neighbours_in_networkx_order(self, mirrored):
        graph = mirrored.nx_graph
        assert mirrored.nodes() == list(graph.nodes)
        assert mirrored.edges() == list(graph.edges())
        assert {n: list(nbrs) for n, nbrs in mirrored.adjacency.items()} == {
            n: list(nbrs) for n, nbrs in graph.adj.items()
        }

    @pytest.mark.parametrize("jittered", [False, True])
    def test_routes_equal_networkx(self, mirrored, jittered):
        nodes = mirrored.nodes()
        pairs = np.random.default_rng(len(nodes)).integers(len(nodes), size=(200, 2))
        ours, theirs = np.random.default_rng(5), np.random.default_rng(5)
        for i, j in pairs:
            a, b = nodes[i], nodes[j]
            got = mirrored.shortest_path(a, b, rng=ours if jittered else None)
            want = _networkx_route(mirrored.nx_graph, a, b, rng=theirs if jittered else None)
            assert got == want, (a, b)
            assert ours.bit_generator.state == theirs.bit_generator.state

    def test_unknown_node_raises(self, small_town):
        with pytest.raises(KeyError):
            small_town.shortest_path(("t", 0, 0), ("nowhere",))

"""The town road network.

Mirrors the paper's setting: the largest CARLA built-in map covers about
1 km x 1 km with both town and rural areas.  Here the town is a jittered
grid of intersections and the rural part is a sparse outer loop with
long road segments.  Roads are undirected two-way edges of an adjacency
dict; geometry is straight segments between intersection positions.
Routes are bidirectional Dijkstra over it (:func:`_bidirectional_dijkstra`,
a port of networkx's, so every route is the one networkx would find).

The map also owns a static occupancy grid ("is this point on a road?")
used both by the BEV rasterizer and by off-road detection during online
evaluation.
"""

from __future__ import annotations

import math
from heapq import heappop, heappush
from itertools import count

import numpy as np

from repro.sim.geometry import point_segment_distance

__all__ = ["TownMap"]


class TownMap:
    """A road network over a square area.

    Parameters
    ----------
    size:
        Side of the square map in meters (paper: ~1000).
    grid_n:
        Number of town intersections per side.
    road_half_width:
        Half the paved width of a road in meters.
    rural:
        Whether to attach the rural outer loop.
    seed:
        Seed for intersection jitter.
    cell:
        Resolution of the static occupancy grid in meters.
    districts_per_side:
        1 builds the paper's single town grid.  ``s > 1`` builds a
        city: an s x s array of district grids (each a jittered
        ``grid_n`` x ``grid_n`` town occupying the central ~70% of its
        block) connected by arterial links between adjacent districts.
    """

    def __init__(
        self,
        size: float = 1000.0,
        grid_n: int = 6,
        road_half_width: float = 4.0,
        rural: bool = True,
        seed: int = 0,
        cell: float = 2.0,
        districts_per_side: int = 1,
    ):
        if grid_n < 2:
            raise ValueError(f"grid_n must be >= 2: {grid_n}")
        if districts_per_side < 1:
            raise ValueError(f"districts_per_side must be >= 1: {districts_per_side}")
        self.size = float(size)
        self.road_half_width = float(road_half_width)
        self.cell = float(cell)
        self.districts_per_side = int(districts_per_side)
        #: node -> {neighbour: edge data}: one data dict per road, shared
        #: by both directions, holding ``length``, ``arterial`` and
        #: ``index`` (the road's place in :meth:`edges`).  Neighbours are
        #: in the order their roads were added.
        self.adjacency: dict = {}
        self._node_pos: dict = {}  # node -> (2,) position
        self._node_kind: dict = {}  # node -> "town" | "rural"
        rng = np.random.default_rng(seed)
        if districts_per_side == 1:
            self._build_town(grid_n, rng)
            town_corners = [
                ("t", 0, 0),
                ("t", grid_n - 1, 0),
                ("t", grid_n - 1, grid_n - 1),
                ("t", 0, grid_n - 1),
            ]
        else:
            self._build_city(grid_n, districts_per_side, rng)
            s = districts_per_side
            town_corners = [
                ("t", 0, 0, 0, 0),
                ("t", s - 1, 0, grid_n - 1, 0),
                ("t", s - 1, s - 1, grid_n - 1, grid_n - 1),
                ("t", 0, s - 1, 0, grid_n - 1),
            ]
        if rural:
            self._build_rural(rng, town_corners)
        self._edges = _edge_order(self.adjacency)
        for k, (a, b) in enumerate(self._edges):
            self.adjacency[a][b]["index"] = k
        self._lengths = [self.adjacency[a][b]["length"] for a, b in self._edges]
        self._node_names: list | None = None
        self._node_stack: np.ndarray | None = None
        self._occupancy = self._rasterize_roads()

    # -- construction ------------------------------------------------------

    def _build_town(self, grid_n: int, rng: np.random.Generator) -> None:
        # Town occupies the central ~70% of the map.
        lo, hi = 0.15 * self.size, 0.85 * self.size
        xs = np.linspace(lo, hi, grid_n)
        ys = np.linspace(lo, hi, grid_n)
        jitter = 0.08 * (xs[1] - xs[0])
        for i in range(grid_n):
            for j in range(grid_n):
                pos = np.array(
                    [
                        xs[i] + rng.uniform(-jitter, jitter),
                        ys[j] + rng.uniform(-jitter, jitter),
                    ]
                )
                self._add_node(("t", i, j), pos, "town")
        for i in range(grid_n):
            for j in range(grid_n):
                if i + 1 < grid_n:
                    self._add_road(("t", i, j), ("t", i + 1, j))
                if j + 1 < grid_n:
                    self._add_road(("t", i, j), ("t", i, j + 1))

    def _build_city(
        self, grid_n: int, blocks: int, rng: np.random.Generator
    ) -> None:
        # An s x s array of district grids.  Each district occupies the
        # central ~70% of its block (the same proportion the single town
        # keeps to the map), leaving arterial corridors between blocks.
        block = self.size / blocks
        for bi in range(blocks):
            for bj in range(blocks):
                xs = np.linspace(bi * block + 0.15 * block, bi * block + 0.85 * block, grid_n)
                ys = np.linspace(bj * block + 0.15 * block, bj * block + 0.85 * block, grid_n)
                jitter = 0.08 * (xs[1] - xs[0])
                for i in range(grid_n):
                    for j in range(grid_n):
                        pos = np.array(
                            [
                                xs[i] + rng.uniform(-jitter, jitter),
                                ys[j] + rng.uniform(-jitter, jitter),
                            ]
                        )
                        self._add_node(("t", bi, bj, i, j), pos, "town")
                for i in range(grid_n):
                    for j in range(grid_n):
                        if i + 1 < grid_n:
                            self._add_road(("t", bi, bj, i, j), ("t", bi, bj, i + 1, j))
                        if j + 1 < grid_n:
                            self._add_road(("t", bi, bj, i, j), ("t", bi, bj, i, j + 1))
        # Arterial links stitch adjacent districts together at one or two
        # boundary rows/columns, so inter-district trips funnel through a
        # few corridors (and the graph stays connected).
        lanes = sorted({grid_n // 3, grid_n - 1 - grid_n // 3})
        for bi in range(blocks - 1):
            for bj in range(blocks):
                for j in lanes:
                    self._add_road(
                        ("t", bi, bj, grid_n - 1, j), ("t", bi + 1, bj, 0, j), arterial=True
                    )
        for bi in range(blocks):
            for bj in range(blocks - 1):
                for i in lanes:
                    self._add_road(
                        ("t", bi, bj, i, grid_n - 1), ("t", bi, bj + 1, i, 0), arterial=True
                    )

    def _build_rural(self, rng: np.random.Generator, town_corners: list) -> None:
        # Four rural waypoints near the map corners, chained into a loop
        # and attached to the nearest town corner intersections.
        margin = 0.05 * self.size
        corners = [
            np.array([margin, margin]),
            np.array([self.size - margin, margin]),
            np.array([self.size - margin, self.size - margin]),
            np.array([margin, self.size - margin]),
        ]
        names = []
        for k, base in enumerate(corners):
            pos = base + rng.uniform(-margin / 2, margin / 2, size=2)
            name = ("r", k)
            self._add_node(name, pos, "rural")
            names.append(name)
        for k in range(4):
            self._add_road(names[k], names[(k + 1) % 4])
        for rural_node, town_node in zip(names, town_corners):
            self._add_road(rural_node, town_node)

    def _add_node(self, name, pos: np.ndarray, kind: str) -> None:
        self._node_pos[name] = pos
        self._node_kind[name] = kind
        self.adjacency[name] = {}

    def _add_road(self, a, b, arterial: bool = False) -> None:
        pa = self._node_pos[a]
        pb = self._node_pos[b]
        data = {"length": float(np.linalg.norm(pa - pb)), "arterial": arterial}
        self.adjacency[a][b] = self.adjacency[b][a] = data

    def _rasterize_roads(self) -> np.ndarray:
        n_cells = int(np.ceil(self.size / self.cell))
        occ = np.zeros((n_cells, n_cells), dtype=bool)
        half = self.road_half_width
        for a, b in self._edges:
            pa, pb = self._node_pos[a], self._node_pos[b]
            lo = np.minimum(pa, pb) - half - self.cell
            hi = np.maximum(pa, pb) + half + self.cell
            i0, j0 = np.maximum(np.floor(lo / self.cell).astype(int), 0)
            i1 = min(int(np.ceil(hi[0] / self.cell)), n_cells - 1)
            j1 = min(int(np.ceil(hi[1] / self.cell)), n_cells - 1)
            if i0 > i1 or j0 > j1:
                continue
            ii, jj = np.meshgrid(
                np.arange(i0, i1 + 1), np.arange(j0, j1 + 1), indexing="ij"
            )
            centers = np.stack(
                [(ii.ravel() + 0.5) * self.cell, (jj.ravel() + 0.5) * self.cell], axis=1
            )
            dist = point_segment_distance(centers, pa, pb)
            mask = (dist <= half).reshape(ii.shape)
            occ[i0 : i1 + 1, j0 : j1 + 1] |= mask
        return occ

    # -- queries -----------------------------------------------------------

    def node_position(self, node) -> np.ndarray:
        """(x, y) position of an intersection node."""
        return self._node_pos[node]

    def nodes(self) -> list:
        """All intersection nodes."""
        return list(self.adjacency)

    def edges(self) -> list:
        """Every road once, as ``(a, b)``: each node's roads to nodes
        not listed before it, in node order (networkx's ``edges()``)."""
        return list(self._edges)

    def town_nodes(self) -> list:
        """Intersections belonging to the town grid (not rural)."""
        return [n for n, kind in self._node_kind.items() if kind == "town"]

    def _node_table(self) -> tuple[list, np.ndarray]:
        """Node names and their stacked (n, 2) positions, built lazily.

        Lazy (and guarded with ``getattr``) so ``TownMap`` instances
        unpickled from older context caches grow the table on first use.
        """
        names = getattr(self, "_node_names", None)
        if names is None:
            names = list(self._node_pos)
            self._node_names = names
            self._node_stack = np.array([self._node_pos[n] for n in names])
        return names, self._node_stack

    def nearest_node(self, point: np.ndarray):
        """The intersection closest to ``point``."""
        point = np.asarray(point, dtype=float)
        names, stack = self._node_table()
        if not names:
            return None
        # Same per-node norm as the former min-loop; np.argmin keeps the
        # loop's first-minimum tie-break.
        return names[int(np.argmin(np.linalg.norm(stack - point, axis=1)))]

    def shortest_path(self, a, b, rng: np.random.Generator | None = None) -> list:
        """Node sequence of the shortest road path from ``a`` to ``b``.

        With ``rng``, edge lengths are jittered (+-20%) for this query
        only, so repeated trips between the same areas take varied paths
        — drivers do not all follow one canonical shortest path, and the
        variety balances left/right turn exposure in collected data.
        The jitter is one draw per road in :meth:`edges` order.
        """
        cost = self._lengths
        if rng is not None:
            jitter = rng.uniform(0.8, 1.2, size=len(cost))
            cost = (np.asarray(cost) * jitter).tolist()
        return _bidirectional_dijkstra(self.adjacency, a, b, cost)

    def is_on_road(self, point: np.ndarray, margin: float = 0.0) -> bool:
        """Whether ``point`` lies on the paved road (plus ``margin``)."""
        point = np.asarray(point, dtype=float)
        if margin > 0.0:
            # Exact check against segments; used sparingly.
            for a, b in self._edges:
                d = point_segment_distance(point[None, :], self._node_pos[a], self._node_pos[b])[0]
                if d <= self.road_half_width + margin:
                    return True
            return False
        i = int(point[0] / self.cell)
        j = int(point[1] / self.cell)
        n = self._occupancy.shape[0]
        if not (0 <= i < n and 0 <= j < n):
            return False
        return bool(self._occupancy[i, j])

    def occupancy_at(self, points: np.ndarray) -> np.ndarray:
        """Vectorized road-occupancy lookup for ``(n, 2)`` world points."""
        points = np.asarray(points, dtype=float)
        return self._occupied(np.floor(points / self.cell).astype(int))

    def on_road(self, points: np.ndarray) -> np.ndarray:
        """:meth:`is_on_road` of each row of ``(n, 2)`` points: its cell
        index truncates toward zero, where :meth:`occupancy_at` floors
        (the two differ on ``(-cell, 0)``)."""
        points = np.asarray(points, dtype=float)
        return self._occupied((points / self.cell).astype(int))

    def _occupied(self, idx: np.ndarray) -> np.ndarray:
        n = self._occupancy.shape[0]
        valid = (
            (idx[:, 0] >= 0) & (idx[:, 0] < n) & (idx[:, 1] >= 0) & (idx[:, 1] < n)
        )
        out = np.zeros(len(idx), dtype=bool)
        inside = idx[valid]
        out[valid] = self._occupancy[inside[:, 0], inside[:, 1]]
        return out

    def district_of(self, point: np.ndarray, n_districts: int = 4) -> int:
        """District index of a point (row-major grid over the map).

        Districts model the home zones vehicles mostly drive in; they
        are the source of data heterogeneity across the fleet.
        Supported counts are 1, 2 (half split) and any perfect square
        s² (an s x s grid; 4 is the paper's quadrant split, 9 matches
        the city map's 3x3 district blocks).
        """
        if n_districts == 1:
            return 0
        point = np.asarray(point, dtype=float)
        half = self.size / 2.0
        if n_districts == 2:
            return int(point[0] >= half)
        if n_districts == 4:
            return int(point[0] >= half) * 2 + int(point[1] >= half)
        side = math.isqrt(n_districts)
        if side * side != n_districts:
            raise ValueError(f"n_districts must be 1, 2 or a perfect square: {n_districts}")
        block = self.size / side
        i = min(max(int(point[0] // block), 0), side - 1)
        j = min(max(int(point[1] // block), 0), side - 1)
        return i * side + j

    def district_nodes(self, district: int, n_districts: int = 4) -> list:
        """Intersections inside one district (never empty for supported counts)."""
        nodes = [
            n
            for n in self.adjacency
            if self.district_of(self._node_pos[n], n_districts) == district
        ]
        return nodes or self.nodes()

    def random_road_point(self, rng: np.random.Generator) -> np.ndarray:
        """A uniformly random point on the paved road surface."""
        a, b = self._edges[rng.integers(len(self._edges))]
        pa, pb = self._node_pos[a], self._node_pos[b]
        t = rng.uniform()
        direction = pb - pa
        norm = np.linalg.norm(direction)
        normal = (
            np.array([-direction[1], direction[0]]) / norm if norm > 0 else np.zeros(2)
        )
        offset = rng.uniform(-self.road_half_width, self.road_half_width)
        return pa + t * direction + offset * normal


def _edge_order(adjacency: dict) -> list:
    """Each undirected road once, in networkx's ``Graph.edges()`` order."""
    seen, edges = set(), []
    for node, neighbours in adjacency.items():
        edges.extend((node, other) for other in neighbours if other not in seen)
        seen.add(node)
    return edges


def _bidirectional_dijkstra(adjacency: dict, source, target, cost: list) -> list:
    """The node path of least total ``cost[edge["index"]]`` from
    ``source`` to ``target``.

    A port of ``networkx.bidirectional_dijkstra`` for an undirected
    graph: the same alternation of the two searches, the same neighbour
    order, the same heap entries ``(distance, tie-break count, node)``
    and the same meeting rule, so ties resolve as networkx resolves them
    and every route equals ``nx.shortest_path``'s
    (``tests/test_sim_map.py::TestRoutingOracle``).
    """
    if source not in adjacency or target not in adjacency:
        raise KeyError(f"{source if source not in adjacency else target} is not a node")
    if source == target:
        return [source]
    dists = [{}, {}]  # final distances, forward and backward
    preds = [{source: None}, {target: None}]
    seen = [{source: 0}, {target: 0}]  # tentative distances
    tie = count()
    fringe = [[(0, next(tie), source)], [(0, next(tie), target)]]
    finaldist = meetnode = None
    direction = 1
    while fringe[0] and fringe[1]:
        direction = 1 - direction
        dist, _, v = heappop(fringe[direction])
        if v in dists[direction]:
            continue
        dists[direction][v] = dist
        if v in dists[1 - direction]:
            forward, node = [], meetnode
            while node is not None:
                forward.append(node)
                node = preds[0][node]
            backward, node = [], preds[1][meetnode]
            while node is not None:
                backward.append(node)
                node = preds[1][node]
            return forward[::-1] + backward
        for w, data in adjacency[v].items():
            length = dist + cost[data["index"]]
            if w in dists[direction]:
                continue  # no negative costs: a settled node stays settled
            if w not in seen[direction] or length < seen[direction][w]:
                seen[direction][w] = length
                heappush(fringe[direction], (length, next(tie), w))
                preds[direction][w] = v
                if w in seen[1 - direction]:
                    total = length + seen[1 - direction][w]
                    if finaldist is None or finaldist > total:
                        finaldist, meetnode = total, w
    raise ValueError(f"no road path from {source} to {target}")

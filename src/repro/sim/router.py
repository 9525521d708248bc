"""Route planning and high-level command generation.

A :class:`RoutePlan` is the navigation-service output the paper assumes
every vehicle has: the geometric path to follow plus, at every point on
it, the high-level command ("follow lane", "turn left", "turn right",
"go straight through") that conditions the driving model.
"""

from __future__ import annotations

import numpy as np

from repro.nn.model import COMMAND_NAMES
from repro.sim.geometry import polyline_lengths, resample_polyline, wrap_angle
from repro.sim.map import TownMap

__all__ = ["RoutePlan", "RouteBank", "plan_route", "random_route"]

CMD_FOLLOW = COMMAND_NAMES.index("follow")
CMD_LEFT = COMMAND_NAMES.index("left")
CMD_RIGHT = COMMAND_NAMES.index("right")
CMD_STRAIGHT = COMMAND_NAMES.index("straight")

#: Distance before an intersection at which its command becomes active.
COMMAND_HORIZON = 30.0
#: Turn angles below this (radians) count as "go straight".
STRAIGHT_THRESHOLD = np.deg2rad(25.0)


class RoutePlan:
    """A resampled route polyline with arc-length queries.

    Parameters
    ----------
    vertices:
        Route waypoints (intersection positions), ``(n, 2)``.
    spacing:
        Resampling spacing in meters for the dense polyline.
    """

    def __init__(self, vertices: np.ndarray, spacing: float = 2.0):
        vertices = np.asarray(vertices, dtype=float)
        if len(vertices) < 2:
            raise ValueError("a route needs at least two vertices")
        self.vertices = vertices
        self.polyline = resample_polyline(vertices, spacing)
        self.cum_lengths = polyline_lengths(self.polyline)
        self.total_length = float(self.cum_lengths[-1])
        self.vertex_s = polyline_lengths(vertices)
        self._turns = self._compute_turns()

    def _compute_turns(self) -> list[tuple[float, int]]:
        """(arc position, command) for every interior route vertex."""
        turns: list[tuple[float, int]] = []
        vertex_s = polyline_lengths(self.vertices)
        for i in range(1, len(self.vertices) - 1):
            incoming = self.vertices[i] - self.vertices[i - 1]
            outgoing = self.vertices[i + 1] - self.vertices[i]
            angle = wrap_angle(
                np.arctan2(outgoing[1], outgoing[0]) - np.arctan2(incoming[1], incoming[0])
            )
            if abs(angle) < STRAIGHT_THRESHOLD:
                cmd = CMD_STRAIGHT
            elif angle > 0:
                cmd = CMD_LEFT
            else:
                cmd = CMD_RIGHT
            turns.append((float(vertex_s[i]), cmd))
        return turns

    # -- queries -----------------------------------------------------------

    def point_at(self, s: float) -> np.ndarray:
        """Point on the route at arc length ``s`` (clamped).

        Scalar linear interpolation with ``np.interp``'s exact branch
        and arithmetic order (segment lookup, equal-knot shortcut,
        ``slope * (s - knot) + value``), inlined because this is the
        single hottest query of the simulation's control loop.
        """
        cum = self.cum_lengths
        total = self.total_length
        s = 0.0 if s < 0.0 else (total if s > total else float(s))
        poly = self.polyline
        j = int(np.searchsorted(cum, s, side="right")) - 1
        if j >= len(cum) - 1:
            return np.array([poly[-1, 0], poly[-1, 1]])
        if j < 0:
            return np.array([poly[0, 0], poly[0, 1]])
        cj = cum[j]
        if cj == s:
            return np.array([poly[j, 0], poly[j, 1]])
        dxp = cum[j + 1] - cj
        t = s - cj
        x = (poly[j + 1, 0] - poly[j, 0]) / dxp * t + poly[j, 0]
        y = (poly[j + 1, 1] - poly[j, 1]) / dxp * t + poly[j, 1]
        return np.array([x, y])

    def heading_at(self, s: float) -> float:
        """Tangent heading of the route at arc length ``s``."""
        ds = 1.0
        ahead = self.point_at(min(s + ds, self.total_length))
        here = self.point_at(max(min(s, self.total_length) - ds, 0.0))
        delta = ahead - here
        return float(np.arctan2(delta[1], delta[0]))

    def command_at(self, s: float) -> int:
        """High-level command active at arc length ``s``.

        The command of the next turning vertex applies once the vehicle
        is within :data:`COMMAND_HORIZON` of it; otherwise "follow".
        """
        for turn_s, cmd in self._turns:
            if s <= turn_s <= s + COMMAND_HORIZON:
                return cmd
        return CMD_FOLLOW

    def project(self, position: np.ndarray, hint: float | None = None) -> float:
        """Arc length of the route point nearest ``position``.

        ``hint`` (a previous projection) restricts the search to a local
        window, which both speeds up the query and prevents snapping to a
        later self-crossing of the route.
        """
        position = np.asarray(position, dtype=float)
        if hint is None:
            lo, hi = 0, len(self.polyline)
        else:
            idx = int(np.searchsorted(self.cum_lengths, hint))
            window = getattr(self, "_window", None)
            if window is None:
                window = max(int(60.0 / max(self.cum_lengths[1], 1e-9)), 5)
                self._window = window
            lo, hi = max(idx - window, 0), min(idx + window, len(self.polyline))
        segment = self.polyline[lo:hi]
        # norm inlined (sqrt kept: argmin on rounded distances, not the
        # squares, preserves the original tie-breaking bit for bit).
        d = segment - position
        dists = np.sqrt(np.add.reduce(d * d, axis=1))
        return float(self.cum_lengths[lo + int(np.argmin(dists))])

    def route_cells(self, cell: float) -> set[tuple[int, int]]:
        """Grid cells (at resolution ``cell``) the route passes through."""
        dense = resample_polyline(self.polyline, cell / 2.0)
        idx = np.floor(dense / cell).astype(int)
        return set(map(tuple, idx.tolist()))

    def distance_to_intersection(self, s: float) -> float:
        """Arc distance from ``s`` to the nearest upcoming route vertex.

        Used by drivers to slow down on intersection approach; returns
        infinity past the last interior vertex.
        """
        interior = self.vertex_s[1:-1]
        # First interior vertex at or beyond s - 5.0 (vertex_s ascends).
        k = int(np.searchsorted(interior, s - 5.0))
        if k >= len(interior):
            return np.inf
        return float(max(interior[k] - s, 0.0))

    def lane_point_at(self, s: float, lane_offset: float) -> np.ndarray:
        """Route point shifted ``lane_offset`` meters to the right.

        Right-hand traffic: vehicles track this offset line rather than
        the centerline, so opposing flows do not share a path.
        """
        point = self.point_at(s)
        heading = self.heading_at(s)
        return np.array(
            [
                point[0] + lane_offset * np.sin(heading),
                point[1] + lane_offset * -np.cos(heading),
            ]
        )

    def done(self, s: float, tolerance: float = 5.0) -> bool:
        """Whether arc position ``s`` is within ``tolerance`` of the end."""
        return s >= self.total_length - tolerance


def plan_route(
    town: TownMap, start, goal, spacing: float = 2.0, rng: np.random.Generator | None = None
) -> RoutePlan:
    """Shortest-path route between two intersections.

    With ``rng`` the path is sampled with jittered edge weights (see
    :meth:`TownMap.shortest_path`) for route variety.
    """
    path = town.shortest_path(start, goal, rng=rng)
    vertices = np.array([town.node_position(n) for n in path])
    return RoutePlan(vertices, spacing=spacing)


def random_route(
    town: TownMap,
    rng: np.random.Generator,
    min_length: float = 200.0,
    start=None,
    max_tries: int = 64,
    nodes=None,
) -> RoutePlan:
    """A random route of at least ``min_length`` meters.

    When ``start`` is given the route begins there; otherwise both ends
    are random intersections.  ``nodes`` restricts candidate endpoints
    (e.g. to a vehicle's home district) — intermediate intersections may
    still lie outside it, as real trips do.
    """
    nodes = list(nodes) if nodes is not None else town.nodes()
    for _ in range(max_tries):
        a = start if start is not None else nodes[rng.integers(len(nodes))]
        b = nodes[rng.integers(len(nodes))]
        if a == b:
            continue
        plan = plan_route(town, a, b, rng=rng)
        if plan.total_length >= min_length:
            return plan
    raise RuntimeError(f"no route of length >= {min_length} found in {max_tries} tries")


def _widen(table: np.ndarray, width: int, fill) -> np.ndarray:
    """``table`` with at least ``width`` columns, new ones set to ``fill``."""
    if table.shape[1] >= width:
        return table
    wide = np.full((table.shape[0], width), fill, dtype=table.dtype)
    wide[:, : table.shape[1]] = table
    return wide


def _searchsorted_rows(
    table: np.ndarray, base: np.ndarray, values: np.ndarray, guess: np.ndarray, side: str
) -> np.ndarray:
    """``np.searchsorted(table[c], values[..., c], side)`` for every row at once.

    ``table`` is ``(C, L)`` with ascending rows that end in at least one
    ``+inf`` pad column; ``base`` is ``arange(C) * L``; ``values`` and
    ``guess`` are ``(..., C)``.  Starting from ``guess`` the insertion
    index climbs while the entry under it is below ``values`` and then
    descends while the entry before it is not — the fixed point is
    exactly ``searchsorted``'s answer whatever the guess, and a guess
    that is off by one costs one extra pass over the cars, so a lookup
    is O(cars), not O(cars x row length).
    """
    below = np.less if side == "left" else np.less_equal
    flat = table.reshape(-1)
    k = np.minimum(np.maximum(guess, 0), table.shape[1] - 1)
    # (count_nonzero, not .any(): this runs four times per car bank per
    # tick and ndarray.any() goes through a Python-level wrapper.)
    while True:
        up = below(flat.take(base + k), values)
        if not np.count_nonzero(up):
            break
        k = k + up
    while True:
        down = (k > 0) & ~below(flat.take(base + np.maximum(k - 1, 0)), values)
        if not np.count_nonzero(down):
            break
        k = k - down
    return k


class RouteBank:
    """The current routes of a bank of cars as struct-of-arrays tables.

    Row ``c`` of every table is car ``c``'s :class:`RoutePlan`, rewritten
    by :meth:`set_route` when the car renews its route; rows are padded
    to the longest route installed so far (``+inf`` in the arc-length
    tables, so comparisons against padding always fail).  Every query is
    the batched form of the :class:`RoutePlan` method of the same name:
    ``s`` holds one arc position per car along its **last** axis, each
    element goes through the same float64 expressions in the same order
    as the scalar method, and the results are equal bit for bit
    (``tests/test_property_sim.py``).  The point queries also take
    stacked ``(k, C)`` positions; ``project`` and the two vertex queries
    take ``(C,)``.
    """

    def __init__(self, plans):
        n = len(plans)
        self.plans: list[RoutePlan] = [None] * n  # type: ignore[list-item]
        self.n_points = np.zeros(n, dtype=np.intp)
        self.total_length = np.zeros(n)
        self._spacing = np.ones(n)  # first knot spacing: the lookup guess
        self._window = np.zeros(n, dtype=np.intp)
        # Knot tables (C, L): arc length and coordinates of the polyline.
        self._cum = np.full((n, 1), np.inf)
        self._px = np.zeros((n, 1))
        self._py = np.zeros((n, 1))
        # Interior-vertex tables (C, V): arc position and turn command.
        self._vertex_s = np.full((n, 1), np.inf)
        self._turn_cmd = np.full((n, 1), CMD_FOLLOW, dtype=np.intp)
        # Last tick's answers of the two vertex lookups: next tick's guess.
        self._vertex_guess = np.zeros((2, n), dtype=np.intp)
        self._reserve(
            max((len(plan.polyline) for plan in plans), default=0),
            max((len(plan.vertices) - 2 for plan in plans), default=0),
        )
        for i, plan in enumerate(plans):
            self.set_route(i, plan)

    def __len__(self) -> int:
        return len(self.plans)

    @property
    def knot_capacity(self) -> int:
        """Width of the knot tables (longest route so far, plus the pad)."""
        return self._cum.shape[1]

    def _reserve(self, knots: int, vertices: int) -> None:
        """Make every row wide enough for a route of ``knots`` knots and
        ``vertices`` interior vertices, plus the pad column."""
        if knots >= self._cum.shape[1] or vertices >= self._vertex_s.shape[1]:
            self._cum = _widen(self._cum, knots + 1, np.inf)
            self._px = _widen(self._px, knots + 1, 0.0)
            self._py = _widen(self._py, knots + 1, 0.0)
            self._vertex_s = _widen(self._vertex_s, vertices + 1, np.inf)
            self._turn_cmd = _widen(self._turn_cmd, vertices + 1, CMD_FOLLOW)
        rows = np.arange(len(self.plans))
        self._knot_base = rows * self._cum.shape[1]
        self._vertex_base = rows * self._vertex_s.shape[1]

    def set_route(self, i: int, plan: RoutePlan) -> None:
        """Install ``plan`` as car ``i``'s route (widening the tables if
        it is longer than every row so far)."""
        m = len(plan.polyline)
        interior = plan.vertex_s[1:-1]
        v = len(interior)
        self._reserve(m, v)
        spacing = max(plan.cum_lengths[1], 1e-9)
        self.plans[i] = plan
        self.n_points[i] = m
        self.total_length[i] = plan.total_length
        self._spacing[i] = spacing
        self._window[i] = max(int(60.0 / spacing), 5)  # RoutePlan.project's
        self._cum[i, :m] = plan.cum_lengths
        self._cum[i, m:] = np.inf
        self._px[i, :m] = plan.polyline[:, 0]
        self._py[i, :m] = plan.polyline[:, 1]
        self._vertex_s[i, :v] = interior
        self._vertex_s[i, v:] = np.inf
        self._turn_cmd[i, :v] = [cmd for _, cmd in plan._turns]
        self._vertex_guess[:, i] = 0

    # -- queries (batched RoutePlan methods) -----------------------------------

    def point_at(self, s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``(x, y)`` of each car's route at arc length ``s`` (clamped)."""
        s = np.minimum(np.maximum(s, 0.0), self.total_length)
        guess = (s / self._spacing).astype(np.intp) + 1
        j = _searchsorted_rows(self._cum, self._knot_base, s, guess, "right") - 1
        last = j >= self.n_points - 1
        at = self._knot_base + np.minimum(j, self.n_points - 2)
        cj = self._cum.take(at)
        t = s - cj
        dxp = self._cum.take(at + 1) - cj
        on_knot = cj == s
        out = []
        for table in (self._px, self._py):
            p0 = table.take(at)
            p1 = table.take(at + 1)
            out.append(np.where(last, p1, np.where(on_knot, p0, (p1 - p0) / dxp * t + p0)))
        return out[0], out[1]

    def _tangent_span(self, s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        total = self.total_length
        return np.minimum(s + 1.0, total), np.maximum(np.minimum(s, total) - 1.0, 0.0)

    def heading_at(self, s: np.ndarray) -> np.ndarray:
        """Tangent heading of each car's route at arc length ``s``."""
        x, y = self.point_at(np.stack(self._tangent_span(s)))
        return np.arctan2(y[0] - y[1], x[0] - x[1])

    def lane_point_at(self, s: np.ndarray, lane_offset: float) -> tuple[np.ndarray, np.ndarray]:
        """Each car's route point shifted ``lane_offset`` m to the right."""
        x, y = self.point_at(np.stack([s, *self._tangent_span(s)]))
        heading = np.arctan2(y[1] - y[2], x[1] - x[2])
        return x[0] + lane_offset * np.sin(heading), y[0] + lane_offset * -np.cos(heading)

    def project(self, x: np.ndarray, y: np.ndarray, hint: np.ndarray) -> np.ndarray:
        """Arc length of the route knot nearest ``(x, y)`` inside the
        window around ``hint`` (``RoutePlan.project`` with a hint; ties
        go to the lower knot, as ``np.argmin`` does)."""
        guess = (hint / self._spacing).astype(np.intp)
        idx = _searchsorted_rows(self._cum, self._knot_base, hint, guess, "left")
        lo = np.maximum(idx - self._window, 0)
        hi = np.minimum(idx + self._window, self.n_points)
        # The widest window any car can have (a row holds no more knots).
        width = min(2 * int(self._window.max()), int(self.n_points.max()))
        cols = lo[:, None] + np.arange(width)
        valid = cols < hi[:, None]
        at = self._knot_base[:, None] + np.minimum(cols, self._cum.shape[1] - 1)
        dx = self._px.take(at) - x[:, None]
        dy = self._py.take(at) - y[:, None]
        dists = np.where(valid, np.sqrt(dx * dx + dy * dy), np.inf)
        return self._cum.take(self._knot_base + lo + dists.argmin(axis=1))

    def _vertex_lookup(self, slot: int, value: np.ndarray) -> np.ndarray:
        k = _searchsorted_rows(
            self._vertex_s, self._vertex_base, value, self._vertex_guess[slot], "left"
        )
        self._vertex_guess[slot] = k
        return self._vertex_base + k

    def distance_to_intersection(self, s: np.ndarray) -> np.ndarray:
        """Arc distance to each car's next route vertex (``inf`` past the last)."""
        at = self._vertex_lookup(0, s - 5.0)
        return np.maximum(self._vertex_s.take(at) - s, 0.0)

    def command_at(self, s: np.ndarray) -> np.ndarray:
        """High-level command active at each car's arc length ``s``."""
        at = self._vertex_lookup(1, s)
        in_horizon = self._vertex_s.take(at) <= s + COMMAND_HORIZON
        return np.where(in_horizon, self._turn_cmd.take(at), CMD_FOLLOW)

    def done(self, s: np.ndarray) -> np.ndarray:
        """Which cars are within 5 m (``RoutePlan.done``'s tolerance) of
        their route's end."""
        return s >= self.total_length - 5.0

"""Driving controllers: the expert autopilot and the model-driven pilot.

The expert mirrors CARLA's built-in autopilot: it uses privileged
information (exact route geometry, exact positions of all other agents)
to drive safely — pure-pursuit steering, speed limits through turns, and
hard braking for obstacles in its path.  Its trajectories are the
imitation targets.  A running world drives all its experts at once
through :class:`DriverBank`, the same controller as one array program
over struct-of-arrays state; :class:`ExpertAutopilot` is the per-object
form and the reference the bank is tested against, bit for bit.

The model pilot drives from the learned :class:`~repro.nn.model.WaypointNet`
alone: every decision interval it renders a BEV, queries the network for
waypoints, and then steers/accelerates to track them.  Driving quality
therefore reflects model quality, which is what the online evaluation
(driving success rate) measures.
"""

from __future__ import annotations

import numpy as np

from repro.nn.bank import FleetWaypointNet, ParamBank
from repro.nn.params import get_flat_params
from repro.sim.geometry import to_vehicle_frame
from repro.sim.kinematics import MAX_TURN_RATE, VehicleState, advance_fleet
from repro.sim.router import CMD_FOLLOW, RouteBank, RoutePlan
from repro.sim.spatial import strip_pairs

__all__ = [
    "ExpertAutopilot",
    "DriverBank",
    "BankDriver",
    "ModelPilot",
    "CRUISE_SPEED",
    "TURN_SPEED",
    "OBSTACLE_RADIUS",
    "WAYPOINT_INTERVAL",
]

CRUISE_SPEED = 12.0  # m/s on open road
TURN_SPEED = 5.5  # m/s approaching/inside turns
LANE_OFFSET = 2.0  # m right of centerline (right-hand traffic)
_STEER_GAIN = 2.2
_SPEED_GAIN = 1.8
_OBSTACLE_LANE_HALF_WIDTH = 2.6
_INTERSECTION_SLOW_DISTANCE = 14.0
OBSTACLE_RADIUS = 45.0  # road_obstacles' default: how far a driver looks
#: Time spacing of a driving model's waypoints, and how often a pilot
#: asks its model for new ones: the paper collects and acts at 2 fps
#: (§IV-A), seconds.
WAYPOINT_INTERVAL = 0.5


class ExpertAutopilot:
    """Privileged rule-based driver following a :class:`RoutePlan`."""

    def __init__(self, plan: RoutePlan, lane_offset: float = LANE_OFFSET):
        self.plan = plan
        self.lane_offset = lane_offset
        self._s = 0.0
        self._stopped_time = 0.0
        self._creep_time_left = 0.0

    @property
    def route_progress(self) -> float:
        """Current arc-length position along the route."""
        return self._s

    def command(self) -> int:
        """The high-level command active at the current route position."""
        return self.plan.command_at(self._s)

    def done(self) -> bool:
        """Whether the route end has been reached."""
        return self.plan.done(self._s)

    def control(
        self, state: VehicleState, obstacles: np.ndarray, dt: float = 0.1
    ) -> tuple[float, float]:
        """Compute (turn_rate, accel) for one step.

        ``obstacles`` is an ``(n, 2)`` array of other agents' positions
        (the privileged information CARLA experts enjoy).
        """
        self._s = self.plan.project(state.position, hint=self._s)
        if state.speed < 0.3:
            self._stopped_time += dt
        else:
            self._stopped_time = 0.0
        # Pure pursuit toward a speed-scaled lookahead point on the
        # right-hand lane line.  The single-point frame transform is
        # inlined (same expressions as ``to_vehicle_frame``) and the
        # scalar clip is a min/max — this runs for every car every tick.
        lookahead = max(5.0, 0.9 * state.speed)
        target = self.plan.lane_point_at(self._s + lookahead, self.lane_offset)
        cos_h, sin_h = np.cos(state.heading), np.sin(state.heading)
        sx = target[0] - state.x
        sy = target[1] - state.y
        local_x = sx * cos_h + sy * sin_h
        local_y = -sx * sin_h + sy * cos_h
        heading_error = float(np.arctan2(local_y, max(local_x, 1e-3)))
        turn_rate = float(
            min(max(_STEER_GAIN * heading_error, -MAX_TURN_RATE), MAX_TURN_RATE)
        )

        near_intersection = (
            self.plan.distance_to_intersection(self._s) < _INTERSECTION_SLOW_DISTANCE
        )
        if near_intersection or self.command() != CMD_FOLLOW:
            target_speed = TURN_SPEED
        else:
            target_speed = CRUISE_SPEED
        # Slow down proportionally to how hard we are turning.
        target_speed *= max(0.35, 1.0 - abs(heading_error) * 1.2)
        # Deadlock breaking: after being stopped a while, negotiate past
        # the blocker with a narrow corridor at creep speed (real drivers
        # edge around a standoff rather than waiting forever).  Creep is
        # sticky for a few seconds so it survives the first meter of
        # motion instead of flapping back to a full stop.
        if self._stopped_time > 6.0:
            self._creep_time_left = 5.0
        creeping = self._creep_time_left > 0.0
        if creeping:
            self._creep_time_left -= dt
        limit = self._obstacle_speed_limit(
            state, obstacles, wide=near_intersection and not creeping, narrow=creeping
        )
        if creeping:
            if limit <= 0.0:
                # Hard-blocked dead ahead: edge around the blocker on its
                # freer side at walking pace.
                limit = 1.2
                edged = turn_rate - np.sign(self._blocker_side(state, obstacles)) * 0.5
                turn_rate = float(min(max(edged, -MAX_TURN_RATE), MAX_TURN_RATE))
            else:
                limit = max(limit, 2.0)
        target_speed = min(target_speed, limit)
        accel = _SPEED_GAIN * (target_speed - state.speed)
        return turn_rate, float(accel)

    def _blocker_side(self, state: VehicleState, obstacles: np.ndarray) -> float:
        """Lateral sign of the nearest obstacle ahead (+1 left, -1 right).

        Used while creeping to pick which way to edge around a blocker;
        0 when nothing is ahead.
        """
        if len(obstacles) == 0:
            return 0.0
        local = to_vehicle_frame(obstacles, state.position, state.heading)
        ahead = local[(local[:, 0] > 0.0) & (local[:, 0] < 8.0)]
        if len(ahead) == 0:
            return 0.0
        nearest = ahead[np.argmin(ahead[:, 0])]
        if nearest[1] == 0.0:
            return 1.0  # dead center: arbitrarily pass on the right
        return float(np.sign(nearest[1]))

    def _obstacle_speed_limit(
        self,
        state: VehicleState,
        obstacles: np.ndarray,
        wide: bool = False,
        narrow: bool = False,
    ) -> float:
        """Speed cap from the nearest obstacle in the driving corridor.

        ``wide`` broadens the watched corridor (intersection approach,
        where cross traffic enters from the side); ``narrow`` shrinks it
        for deadlock-breaking creep.
        """
        if len(obstacles) == 0:
            return np.inf
        local = to_vehicle_frame(obstacles, state.position, state.heading)
        horizon = 6.0 + 1.6 * state.speed
        half_width = _OBSTACLE_LANE_HALF_WIDTH
        if wide:
            half_width += 2.0
        if narrow:
            half_width = 1.6
        stop_gap = 3.5 if narrow else 6.0
        in_corridor = (
            (local[:, 0] > 0.5)
            & (local[:, 0] < horizon)
            & (np.abs(local[:, 1]) < half_width)
        )
        if not in_corridor.any():
            return np.inf
        gap = float(local[in_corridor, 0].min())
        # Full stop inside the stop gap, linear ramp back to cruise.
        if gap < stop_gap:
            return 0.0
        return CRUISE_SPEED * (gap - stop_gap) / max(horizon - stop_gap, 1e-6)


class DriverBank:
    """Every expert-driven car of one world as a single array program.

    The struct-of-arrays twin of a list of :class:`ExpertAutopilot` +
    :class:`~repro.sim.kinematics.VehicleState` pairs, and the only
    owner of their state: kinematic state (``position``/``x``/``y``,
    ``heading``, ``speed``), pilot state (``s``, ``stopped_time``,
    ``creep_time_left``) and ``speed_factor`` are ``(n,)`` arrays
    (``position`` is ``(n, 2)``, ``x`` and ``y`` its columns), the
    routes are rows of a :class:`~repro.sim.router.RouteBank`.

    :meth:`step` is one control tick for all cars: within a tick every
    car reads the same pre-step positions and touches no other car's
    state, so the per-car loop is data-parallel.  Each stage is the
    scalar code's float64 expression applied elementwise in the scalar
    code's order — :meth:`ExpertAutopilot.control`, brute-force
    :func:`~repro.sim.traffic.road_obstacles` and
    :func:`~repro.sim.kinematics.advance` remain as the reference the
    ``world.batched`` selfcheck row compares against, bit for bit.
    Only route renewal is per car: it draws from the car's own
    generator (``renew(i, position) -> RoutePlan``), a few times per
    car per simulated minute.
    """

    def __init__(self, plans, renew):
        n = len(plans)
        self.routes = RouteBank(plans)
        self._renew = renew
        self.position = np.zeros((n, 2))
        self.x = self.position[:, 0]
        self.y = self.position[:, 1]
        start = np.zeros(n)
        self.x[:], self.y[:] = self.routes.point_at(start)
        self.heading = self.routes.heading_at(start)
        self.speed = np.zeros(n)
        self.s = np.zeros(n)
        self.stopped_time = np.zeros(n)
        self.creep_time_left = np.zeros(n)
        #: Scales the steering rate (1 for every car a world spawns).
        self.speed_factor = np.ones(n)

    def __len__(self) -> int:
        return len(self.routes)

    def step(self, agents: np.ndarray, on_road: np.ndarray, dt: float) -> None:
        """Advance every car one control tick.

        ``agents`` is the ``(m, 2)`` pre-step position of every agent in
        the world, this bank's cars first (rows ``0..n-1``, so a car
        never sees itself); ``on_road`` is ``occupancy_at(agents)`` —
        drivers do not brake for agents standing off the pavement.
        """
        n = len(self)
        if n == 0:
            return
        routes = self.routes
        for i in np.flatnonzero(routes.done(self.s)):
            routes.set_route(i, self._renew(int(i), self.position[i].copy()))
            self.s[i] = self.stopped_time[i] = self.creep_time_left[i] = 0.0
        x, y, heading, speed = self.x, self.y, self.heading, self.speed

        # ExpertAutopilot.control: progress, pure pursuit, target speed.
        s = self.s[:] = routes.project(x, y, self.s)
        stopped = self.stopped_time[:] = np.where(speed < 0.3, self.stopped_time + dt, 0.0)
        lookahead = np.maximum(5.0, 0.9 * speed)
        target_x, target_y = routes.lane_point_at(s + lookahead, LANE_OFFSET)
        cos_h, sin_h = np.cos(heading), np.sin(heading)
        sx = target_x - x
        sy = target_y - y
        local_x = sx * cos_h + sy * sin_h
        local_y = -sx * sin_h + sy * cos_h
        heading_error = np.arctan2(local_y, np.maximum(local_x, 1e-3))
        turn_rate = np.minimum(
            np.maximum(_STEER_GAIN * heading_error, -MAX_TURN_RATE), MAX_TURN_RATE
        )
        near_intersection = routes.distance_to_intersection(s) < _INTERSECTION_SLOW_DISTANCE
        slow = near_intersection | (routes.command_at(s) != CMD_FOLLOW)
        target_speed = np.where(slow, TURN_SPEED, CRUISE_SPEED)
        target_speed = target_speed * np.maximum(0.35, 1.0 - np.abs(heading_error) * 1.2)
        creep_left = np.where(stopped > 6.0, 5.0, self.creep_time_left)
        creeping = creep_left > 0.0
        self.creep_time_left[:] = np.where(creeping, creep_left - dt, creep_left)

        # _obstacle_speed_limit over every (car, on-road agent in range,
        # not itself) pair: the corridor gap is a minimum, so the order
        # the candidates arrive in does not matter.
        road = np.flatnonzero(on_road)
        agent_x = agents[road, 0]
        agent_y = agents[road, 1]
        car, hit, starts = strip_pairs(x, agent_x, OBSTACLE_RADIUS + 1.0)
        agent = road[hit]
        dx = agent_x[hit] - x[car]
        dy = agent_y[hit] - y[car]
        seen = (np.sqrt(dx * dx + dy * dy) < OBSTACLE_RADIUS) & (agent != car)
        cos_c = cos_h[car]
        sin_c = sin_h[car]
        ahead = dx * cos_c + dy * sin_c
        lateral = -dx * sin_c + dy * cos_c
        horizon = 6.0 + 1.6 * speed
        wide = near_intersection & ~creeping
        half_width = np.where(
            creeping, 1.6, np.where(wide, _OBSTACLE_LANE_HALF_WIDTH + 2.0, _OBSTACLE_LANE_HALF_WIDTH)
        )
        stop_gap = np.where(creeping, 3.5, 6.0)
        in_corridor = (
            seen & (ahead > 0.5) & (ahead < horizon[car]) & (np.abs(lateral) < half_width[car])
        )
        gaps = np.append(np.where(in_corridor, ahead, np.inf), np.inf)
        gap = np.where(starts[1:] > starts[:-1], np.minimum.reduceat(gaps, starts[:-1]), np.inf)
        limit = np.where(
            gap < stop_gap,
            0.0,
            CRUISE_SPEED * (gap - stop_gap) / np.maximum(horizon - stop_gap, 1e-6),
        )

        # Creep: edge around a hard blocker, or keep rolling at 2 m/s.
        blocked = creeping & (limit <= 0.0)
        if blocked.any():
            facing = np.flatnonzero(seen & blocked[car] & (ahead > 0.0) & (ahead < 8.0))
            side = np.zeros(n)
            if len(facing):
                # _blocker_side: the nearest obstacle ahead, the lowest
                # agent index among equals (np.argmin's first minimum).
                ranked = facing[np.lexsort((agent[facing], ahead[facing], car[facing]))]
                first = np.concatenate([[True], car[ranked][1:] != car[ranked][:-1]])
                nearest = ranked[first]
                side[car[nearest]] = np.where(
                    lateral[nearest] == 0.0, 1.0, np.sign(lateral[nearest])
                )
            edged = turn_rate - np.sign(side) * 0.5
            turn_rate = np.where(
                blocked, np.minimum(np.maximum(edged, -MAX_TURN_RATE), MAX_TURN_RATE), turn_rate
            )
        limit = np.where(creeping, np.where(blocked, 1.2, np.maximum(limit, 2.0)), limit)
        accel = _SPEED_GAIN * (np.minimum(target_speed, limit) - speed)

        advance_fleet(x, y, heading, speed, turn_rate * self.speed_factor, accel, dt)


class BankDriver:
    """One row of a :class:`DriverBank`: a view of its route plan, so it
    is current after every ``step()``."""

    def __init__(self, bank: DriverBank, index: int):
        self._bank = bank
        self._index = index

    @property
    def plan(self) -> RoutePlan:
        """The car's current route plan."""
        return self._bank.routes.plans[self._index]


class ModelPilot:
    """Drives from learned waypoints; no privileged obstacle access.

    Parameters
    ----------
    model:
        A trained :class:`~repro.nn.model.WaypointNet`.  The pilot drives
        a copy of its parameters, taken here, in a one-row
        :class:`~repro.nn.bank.ParamBank` of its own, so the model (a
        vehicle's detached copy) may change afterwards.
    plan:
        The navigation route (supplies the high-level command and the
        BEV route channel — exactly what a navigation service provides).
    bev_fn:
        Callable ``(state, plan) -> bev`` rendering the current BEV
        observation; injected so the pilot stays decoupled from world
        internals.

    The model is queried every :data:`WAYPOINT_INTERVAL`, the spacing of
    the waypoints it predicts.
    """

    def __init__(self, model, plan: RoutePlan, bev_fn):
        bank = ParamBank(model, 1)
        bank.flat[0] = get_flat_params(model)
        # The pilot only runs forwards, which never write the gradient row.
        grad = np.empty((1, bank.n_params), dtype=np.float32)
        self._net = FleetWaypointNet(bank.slice_rows(0, 1, grad), model)
        self.plan = plan
        self._bev_fn = bev_fn
        self._s = 0.0
        self._since_decision = np.inf  # force a decision on first step
        self._waypoints: np.ndarray | None = None  # vehicle-frame at decision time
        self._decision_state: VehicleState | None = None

    def done(self) -> bool:
        """Whether the route end has been reached."""
        return self.plan.done(self._s)

    def control(self, state: VehicleState, dt: float) -> tuple[float, float]:
        """Compute (turn_rate, accel) for one step of length ``dt``."""
        self._s = self.plan.project(state.position, hint=self._s)
        self._since_decision += dt
        if self._since_decision >= WAYPOINT_INTERVAL or self._waypoints is None:
            self._decide(state)
            self._since_decision = 0.0
        assert self._waypoints is not None and self._decision_state is not None
        # Re-express the cached waypoints in the *current* vehicle frame.
        from repro.sim.geometry import to_world_frame

        world_wp = to_world_frame(
            self._waypoints, self._decision_state.position, self._decision_state.heading
        )
        local_wp = to_vehicle_frame(world_wp, state.position, state.heading)

        # Steering: pursue the first waypoint far enough ahead that small
        # prediction noise does not whip the steering around (same
        # speed-scaled lookahead philosophy as the expert).
        lookahead = max(4.0, 0.8 * state.speed)
        dist = np.linalg.norm(local_wp, axis=1)
        ahead = np.where(dist >= lookahead)[0]
        target = local_wp[ahead[0]] if len(ahead) else local_wp[-1]
        heading_error = float(np.arctan2(target[1], max(target[0], 1e-3)))
        turn_rate = float(np.clip(_STEER_GAIN * heading_error, -MAX_TURN_RATE, MAX_TURN_RATE))

        # Speed: implied by the spacing of consecutive predicted
        # waypoints.  Taking the minimum over the first half of the
        # horizon makes braking reactive: when the expert would be
        # slowing for an obstacle, the near-term waypoints compress and
        # the pilot brakes immediately instead of averaging it away.
        chain = np.vstack([[0.0, 0.0], self._waypoints])
        spacing = np.linalg.norm(np.diff(chain, axis=0), axis=1)
        near_term = spacing[: max(len(spacing) // 2, 1)]
        implied = min(float(near_term.min()), float(spacing.mean()))
        target_speed = float(np.clip(implied / WAYPOINT_INTERVAL, 0.0, CRUISE_SPEED))
        accel = _SPEED_GAIN * (target_speed - state.speed)
        return turn_rate, float(accel)

    def _decide(self, state: VehicleState) -> None:
        bev = self._bev_fn(state, self.plan)
        command = self.plan.command_at(self._s)
        pred = self._net.forward(bev[None, ...], np.array([command]))
        self._waypoints = pred.reshape(-1, 2).astype(float)  # one decision
        self._decision_state = state.copy()

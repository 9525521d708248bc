"""Background traffic: roaming cars and pedestrians.

Matches the paper's setup of extra cars and pedestrians "initialized at
random locations and keep roaming on the map" as realism-enhancing
hazards.  Background cars are expert autopilots on endlessly renewed
random routes; pedestrians do a random-waypoint walk biased to stay in
the road corridor, so they regularly cross in front of traffic.
"""

from __future__ import annotations

import numpy as np

from repro.sim.autopilot import OBSTACLE_RADIUS, BankDriver, DriverBank
from repro.sim.map import TownMap
from repro.sim.router import RoutePlan, random_route

__all__ = ["Pedestrian", "TrafficManager", "walk_pedestrians"]

_PED_SPEED = 1.3  # m/s
_PED_WANDER_RADIUS = 40.0
_PED_NEAR = 16.0  # m: a walker reacts to the cars this close


def _roaming_route(
    town: TownMap, rng: np.random.Generator, position: np.ndarray | None = None
) -> RoutePlan:
    """A background car's next trip: anywhere, or onward from ``position``."""
    start = None if position is None else town.nearest_node(position)
    return random_route(town, rng, min_length=150.0, start=start)


def _sidewalk_point(town: TownMap, rng: np.random.Generator, road_point: np.ndarray) -> np.ndarray:
    """Push a road point just past the pavement edge."""
    direction = rng.normal(size=2)
    direction /= max(np.linalg.norm(direction), 1e-9)
    for step_len in (1.0, 2.0, 3.0, 4.0):
        candidate = road_point + direction * (town.road_half_width + step_len)
        if not town.is_on_road(candidate):
            return np.clip(candidate, 0.0, town.size)
    return np.clip(road_point, 0.0, town.size)


def _new_target(town: TownMap, rng: np.random.Generator, position: np.ndarray) -> np.ndarray:
    """A walker's next waypoint: a sidewalk point near a random road
    within wander radius of ``position``; the straight-line walk there
    may cross pavement (the hazard)."""
    for _ in range(8):
        candidate = town.random_road_point(rng)
        if np.linalg.norm(candidate - position) <= _PED_WANDER_RADIUS:
            return _sidewalk_point(town, rng, candidate)
    offset = rng.uniform(-_PED_WANDER_RADIUS / 2, _PED_WANDER_RADIUS / 2, size=2)
    return np.clip(position + offset, 0.0, town.size)


def _spawn_walker(town: TownMap, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """A new walker's position on a sidewalk and its first waypoint."""
    position = _sidewalk_point(town, rng, town.random_road_point(rng))
    return position, _new_target(town, rng, position)


class Pedestrian:
    """Roadside walker that occasionally crosses the road.

    Pedestrians wander between points just *off* the pavement (the
    sidewalk), so their paths regularly cross roads.  Before stepping
    onto the pavement they yield at the curb while a car is close —
    exactly like real pedestrians — but once committed to a crossing
    they keep walking.  Collisions with pedestrians therefore mean the
    driver failed to brake for someone already crossing ahead, which is
    learnable behaviour, rather than pedestrians hurling themselves into
    moving cars.

    The per-object form of a walker: a :class:`TrafficManager` walks
    its pedestrians as rows of arrays instead, and this class (stepped
    by :func:`walk_pedestrians`) is the scalar reference those rows are
    tested against.  ``position``/``target`` place a walker already out
    (a row of a manager's); without them it spawns from ``rng``.
    """

    def __init__(
        self,
        town: TownMap,
        rng: np.random.Generator,
        position: np.ndarray | None = None,
        target: np.ndarray | None = None,
    ):
        self._town = town
        self._rng = rng
        if position is None:
            position, target = _spawn_walker(town, rng)
        self.position = np.array(position, dtype=float)
        self._target = np.array(target, dtype=float)

    def step(
        self,
        dt: float,
        car_positions: np.ndarray | None = None,
        car_speeds: np.ndarray | None = None,
    ) -> None:
        delta = self._target - self.position
        # np.linalg.norm's own formula, sqrt(x.dot(x)), without its
        # wrapper dispatch.
        dist = float(np.sqrt(delta.dot(delta)))
        if dist < 1.0:
            self._target = _new_target(self._town, self._rng, self.position)
            return
        next_pos = self.position + delta / dist * _PED_SPEED * dt
        if car_positions is not None and len(car_positions):
            d = car_positions - self.position
            gaps = np.sqrt(np.add.reduce(d * d, axis=1))
            nearest = float(gaps.min())
            # Personal space: never walk to within arm's reach of a car.
            d = car_positions - next_pos
            next_gap = float(np.min(np.sqrt(np.add.reduce(d * d, axis=1))))
            if next_gap < 3.0 and next_gap < nearest:
                # Blocked: walk somewhere else instead of standing next
                # to a car forever (which deadlocks traffic).
                self._target = _sidewalk_point(self._town, self._rng, self.position)
                return
            on_road_now = self._town.is_on_road(self.position)
            entering_road = not on_road_now and self._town.is_on_road(next_pos)
            if entering_road:
                if car_speeds is not None and len(car_speeds) == len(car_positions):
                    moving = car_speeds > 0.5
                    nearest_moving = (
                        float(gaps[moving].min()) if moving.any() else np.inf
                    )
                else:
                    nearest_moving = nearest
                if nearest_moving < 14.0:
                    return  # wait at the curb for moving traffic only
        self.position = next_pos


def walk_pedestrians(
    pedestrians: list[Pedestrian], cars: np.ndarray, car_speeds: np.ndarray, dt: float
) -> None:
    """Step per-object walkers one tick, each seeing the cars within
    ``_PED_NEAR`` of it: the scalar reference for
    :meth:`TrafficManager.step`'s walk."""
    for ped in pedestrians:
        d = cars - ped.position
        near = np.sqrt(np.add.reduce(d * d, axis=1)) < _PED_NEAR
        if near.any():
            ped.step(dt, car_positions=cars[near], car_speeds=car_speeds[near])
        else:
            ped.step(dt)


def _readonly_view(array: np.ndarray) -> np.ndarray:
    view = array.view()
    view.flags.writeable = False
    return view


class TrafficManager:
    """Owns and steps all background agents; exposes position arrays.

    The cars are rows of one :class:`~repro.sim.autopilot.DriverBank`
    (``bank``), which owns their state; ``cars`` are per-object views
    of those rows.  The pedestrians are rows too: a position and a
    waypoint array, and one generator per row
    (``ped_position``/``ped_target``/``ped_rngs``), walked by one array
    statement per tick that reproduces :meth:`Pedestrian.step` to the
    bit.  ``car_positions()``/``pedestrian_positions()`` serve
    read-only views of the two.  Agents are only ever advanced through
    :meth:`step`.
    """

    def __init__(
        self,
        town: TownMap,
        n_cars: int,
        n_pedestrians: int,
        rng: np.random.Generator,
        keep_clear: np.ndarray | None = None,
        keep_clear_radius: float = 20.0,
        ped_district_weights: np.ndarray | None = None,
        n_districts: int = 1,
    ):
        self._town = town
        self._car_rngs = []
        plans = []
        for _ in range(n_cars):
            # Don't spawn on top of the ego (or whatever keep_clear
            # marks): up to 16 re-draws, then take what comes.
            for _ in range(17):
                car_rng = np.random.default_rng(rng.integers(2**63))
                plan = _roaming_route(town, car_rng)
                if (
                    keep_clear is None
                    or np.linalg.norm(plan.point_at(0.0) - keep_clear) >= keep_clear_radius
                ):
                    break
            self._car_rngs.append(car_rng)
            plans.append(plan)
        #: The background cars' drivers: the single owner of their state.
        self.bank = DriverBank(plans, renew=self._new_route)
        self.cars = [BankDriver(self.bank, i) for i in range(n_cars)]
        #: Each pedestrian row's own generator: its spawn, and every
        #: waypoint it draws on arriving or on being blocked.
        self.ped_rngs: list[np.random.Generator] = []
        walkers = []
        for _ in range(n_pedestrians):
            ped_rng = np.random.default_rng(rng.integers(2**63))
            walker = _spawn_walker(town, ped_rng)
            if ped_district_weights is not None:
                # Rejection-sample the spawn into a weighted district so
                # pedestrian hazard density differs across the map.
                target = int(rng.choice(len(ped_district_weights), p=ped_district_weights))
                for _ in range(24):
                    if town.district_of(walker[0], n_districts) == target:
                        break
                    ped_rng = np.random.default_rng(rng.integers(2**63))
                    walker = _spawn_walker(town, ped_rng)
            self.ped_rngs.append(ped_rng)
            walkers.append(walker)
        #: (n, 2) pedestrian positions and waypoints, updated in place.
        self.ped_position = np.array([p for p, _ in walkers], dtype=float).reshape(-1, 2)
        self.ped_target = np.array([t for _, t in walkers], dtype=float).reshape(-1, 2)
        self._car_pos_view = _readonly_view(self.bank.position)
        self._ped_pos_view = _readonly_view(self.ped_position)

    def _new_route(self, index: int, position: np.ndarray) -> RoutePlan:
        return _roaming_route(self._town, self._car_rngs[index], position)

    def car_positions(self) -> np.ndarray:
        """(n, 2) positions of all background cars (read-only view)."""
        return self._car_pos_view

    def pedestrian_positions(self) -> np.ndarray:
        """(n, 2) positions of all pedestrians (read-only view)."""
        return self._ped_pos_view

    def step(
        self,
        extra_obstacles: np.ndarray,
        dt: float,
        extra_speeds: np.ndarray | None = None,
    ) -> None:
        """Advance all background agents one step.

        ``extra_obstacles`` are positions of agents outside the manager
        (the expert fleet / the ego) that background cars must avoid;
        ``extra_speeds`` are their speeds (pedestrians cross in front of
        stopped cars, so speed matters).
        """
        extra_obstacles = extra_obstacles.reshape(-1, 2)
        if extra_speeds is None:
            extra_speeds = np.full(len(extra_obstacles), 1.0)
        n_cars = len(self.cars)
        n_peds = len(self.ped_position)
        # Pre-step positions: the vstack copies out of the live state,
        # so every agent this tick sees where the others *were*.
        all_pos = np.vstack([self.bank.position, self.ped_position, extra_obstacles])
        if n_cars:
            # Every agent except the car itself is an obstacle.
            self.bank.step(all_pos, self._town.occupancy_at(all_pos), dt)
        # Pedestrians see pre-step car positions but post-step speeds
        # (a car that just braked to a stop is safe to cross in front of).
        self._walk(
            np.vstack([all_pos[:n_cars], all_pos[n_cars + n_peds :]]),
            np.concatenate([self.bank.speed, extra_speeds]),
            dt,
        )

    def _walk(self, cars: np.ndarray, car_speeds: np.ndarray, dt: float) -> None:
        """Every pedestrian row's :meth:`Pedestrian.step`, as one array
        statement over the rows.

        Bit for bit, because each operation is the scalar one applied
        per row: the walk length is ``sqrt`` of a stacked ``matmul``,
        which calls the same BLAS ``ddot`` per row as ``delta.dot``
        (an ``x*x + y*y`` would round differently); the step is
        ``pos + delta / dist * _PED_SPEED * dt`` in that order; the car
        terms are minima over the near pairs only, whose gaps are the
        scalar's per-pair arithmetic; the on-road test truncates like
        :meth:`~repro.sim.map.TownMap.is_on_road`.  The two branches
        that draw — arrived (a new waypoint) and blocked (a sidewalk
        point) — run per flagged row on that row's generator.
        """
        pos, target = self.ped_position, self.ped_target
        n = len(pos)
        if not n:
            return
        delta = target - pos
        dist = np.sqrt(np.matmul(delta[:, None, :], delta[:, :, None]))[:, 0, 0]
        arrived = dist < 1.0
        walking = ~arrived
        next_pos = pos + delta / np.where(arrived, 1.0, dist)[:, None] * _PED_SPEED * dt
        blocked = np.zeros(n, dtype=bool)
        waits = np.zeros(n, dtype=bool)
        if len(cars):
            d3 = pos[:, None, :] - cars[None, :, :]
            gaps = np.sqrt(np.add.reduce(d3 * d3, axis=2))
            near = gaps < _PED_NEAR
            near_gaps = np.where(near, gaps, np.inf)
            nearest = near_gaps.min(axis=1)
            nearest_moving = near_gaps[:, car_speeds > 0.5].min(axis=1, initial=np.inf)
            row, car = np.nonzero(near & walking[:, None])
            d = cars[car] - next_pos[row]
            next_gap = np.full(n, np.inf)
            np.minimum.at(next_gap, row, np.sqrt(np.add.reduce(d * d, axis=1)))
            # Personal space: never walk to within arm's reach of a car.
            blocked = (next_gap < 3.0) & (next_gap < nearest)
            town = self._town
            entering = ~town.on_road(pos) & town.on_road(next_pos)
            # Wait at the curb for moving traffic only.
            waits = walking & ~blocked & entering & (nearest_moving < 14.0)
        moves = walking & ~blocked & ~waits
        pos[moves] = next_pos[moves]
        for j in np.flatnonzero(arrived).tolist():
            target[j] = _new_target(self._town, self.ped_rngs[j], pos[j])
        for j in np.flatnonzero(blocked).tolist():
            target[j] = _sidewalk_point(self._town, self.ped_rngs[j], pos[j])


def road_obstacles(
    town: TownMap,
    positions: np.ndarray,
    center: np.ndarray,
    radius: float = OBSTACLE_RADIUS,
    exclude: int | None = None,
) -> np.ndarray:
    """Obstacles a driver actually reacts to.

    Keeps agents that are near ``center`` and on the pavement — drivers
    do not brake for people standing on the sidewalk, which would
    deadlock traffic against curb-waiting pedestrians.  ``exclude``
    drops one row (an agent querying its own neighborhood) by index.

    This is the brute-force scan over every agent, in ascending index
    order: the reference for the pair scan inside
    :meth:`~repro.sim.autopilot.DriverBank.step`, which is what a
    running world uses.
    """
    if len(positions) == 0:
        return positions
    d = positions - center
    dist = np.sqrt(np.add.reduce(d * d, axis=1))
    near = dist < radius
    if exclude is not None:
        near[exclude] = False
    candidates = positions[near]
    if len(candidates) == 0:
        return candidates
    return candidates[town.occupancy_at(candidates)]

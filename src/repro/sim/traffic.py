"""Background traffic: roaming cars and pedestrians.

Matches the paper's setup of extra cars and pedestrians "initialized at
random locations and keep roaming on the map" as realism-enhancing
hazards.  Background cars are expert autopilots on endlessly renewed
random routes; pedestrians do a random-waypoint walk biased to stay in
the road corridor, so they regularly cross in front of traffic.
"""

from __future__ import annotations

import numpy as np

from repro.sim.autopilot import OBSTACLE_RADIUS, BankDriver, DriverBank, ExpertAutopilot
from repro.sim.kinematics import VehicleState, advance
from repro.sim.map import TownMap
from repro.sim.router import RoutePlan, random_route

__all__ = ["BackgroundCar", "Pedestrian", "TrafficManager"]

_PED_SPEED = 1.3  # m/s
_PED_WANDER_RADIUS = 40.0


def _roaming_route(
    town: TownMap, rng: np.random.Generator, position: np.ndarray | None = None
) -> RoutePlan:
    """A background car's next trip: anywhere, or onward from ``position``."""
    start = None if position is None else town.nearest_node(position)
    return random_route(town, rng, min_length=150.0, start=start)


class BackgroundCar:
    """An autopilot car roaming random routes forever.

    The per-object form of a background car: a
    :class:`TrafficManager` drives its cars as rows of a
    :class:`~repro.sim.autopilot.DriverBank` instead, and this class is
    the scalar reference those rows are tested against.
    """

    def __init__(self, town: TownMap, rng: np.random.Generator, speed_factor: float = 1.0):
        self._town = town
        self._rng = rng
        self.speed_factor = speed_factor
        plan = _roaming_route(town, rng)
        start = plan.point_at(0.0)
        self.state = VehicleState(start[0], start[1], plan.heading_at(0.0), 0.0)
        self.pilot = ExpertAutopilot(plan)

    def step(self, obstacles: np.ndarray, dt: float) -> None:
        if self.pilot.done():
            plan = _roaming_route(self._town, self._rng, self.state.position)
            self.pilot = ExpertAutopilot(plan)
        turn_rate, accel = self.pilot.control(self.state, obstacles, dt=dt)
        self.state = advance(self.state, turn_rate * self.speed_factor, accel, dt)


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
    """

    def __init__(self, town: TownMap, rng: np.random.Generator):
        self._town = town
        self._rng = rng
        self.position = self._sidewalk_point(town.random_road_point(rng))
        self._target = self._new_target()

    def _sidewalk_point(self, road_point: np.ndarray) -> np.ndarray:
        """Push a road point just past the pavement edge."""
        direction = self._rng.normal(size=2)
        direction /= max(np.linalg.norm(direction), 1e-9)
        for step_len in (1.0, 2.0, 3.0, 4.0):
            candidate = road_point + direction * (self._town.road_half_width + step_len)
            if not self._town.is_on_road(candidate):
                return np.clip(candidate, 0.0, self._town.size)
        return np.clip(road_point, 0.0, self._town.size)

    def _new_target(self) -> np.ndarray:
        # A sidewalk point near a random road within wander radius; the
        # straight-line walk there may cross pavement (the hazard).
        for _ in range(8):
            candidate = self._town.random_road_point(self._rng)
            if np.linalg.norm(candidate - self.position) <= _PED_WANDER_RADIUS:
                return self._sidewalk_point(candidate)
        offset = self._rng.uniform(-_PED_WANDER_RADIUS / 2, _PED_WANDER_RADIUS / 2, size=2)
        return np.clip(self.position + offset, 0.0, self._town.size)

    def step(
        self,
        dt: float,
        car_positions: np.ndarray | None = None,
        car_speeds: np.ndarray | None = None,
        gaps: np.ndarray | None = None,
    ) -> None:
        delta = self._target - self.position
        # Scalar / axis-1 norms inlined to np.linalg.norm's own formulas
        # (sqrt(x.dot(x)) and sqrt(add.reduce(x*x, axis=1))) — identical
        # bits without the wrapper dispatch; this runs per ped per tick.
        dist = float(np.sqrt(delta.dot(delta)))
        if dist < 1.0:
            self._target = self._new_target()
            return
        next_pos = self.position + delta / dist * _PED_SPEED * dt
        if car_positions is not None and len(car_positions):
            if gaps is None:
                # ``gaps`` lets the caller hand in already-computed
                # distances to exactly ``car_positions`` (same per-pair
                # arithmetic), e.g. rows of a batched distance matrix.
                d = car_positions - self.position
                gaps = np.sqrt(np.add.reduce(d * d, axis=1))
            nearest = float(gaps.min())
            # Personal space: never walk to within arm's reach of a car.
            d = car_positions - next_pos
            next_gap = float(np.min(np.sqrt(np.add.reduce(d * d, axis=1))))
            if next_gap < 3.0 and next_gap < nearest:
                # Blocked: walk somewhere else instead of standing next
                # to a car forever (which deadlocks traffic).
                self._target = self._sidewalk_point(self.position)
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


def _readonly_view(array: np.ndarray) -> np.ndarray:
    view = array.view()
    view.flags.writeable = False
    return view


class TrafficManager:
    """Owns and steps all background agents; exposes position arrays.

    The cars are rows of one :class:`~repro.sim.autopilot.DriverBank`
    (``bank``), which owns their state; ``cars`` are per-object views
    of those rows.  Pedestrians stay objects, their positions mirrored
    in a preallocated buffer updated in place as each one steps.
    ``car_positions()``/``pedestrian_positions()`` serve read-only
    views of the two.  Agents are only ever advanced through
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
        self.pedestrians = []
        for _ in range(n_pedestrians):
            ped = Pedestrian(town, np.random.default_rng(rng.integers(2**63)))
            if ped_district_weights is not None:
                # Rejection-sample the spawn into a weighted district so
                # pedestrian hazard density differs across the map.
                target = int(rng.choice(len(ped_district_weights), p=ped_district_weights))
                for _ in range(24):
                    if town.district_of(ped.position, n_districts) == target:
                        break
                    ped = Pedestrian(town, np.random.default_rng(rng.integers(2**63)))
            self.pedestrians.append(ped)
        self._ped_pos = np.array(
            [p.position for p in self.pedestrians], dtype=float
        ).reshape(-1, 2)
        self._car_pos_view = _readonly_view(self.bank.position)
        self._ped_pos_view = _readonly_view(self._ped_pos)

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
        n_peds = len(self.pedestrians)
        # Pre-step positions: the vstack copies out of the live state,
        # so every agent this tick sees where the others *were*.
        all_pos = np.vstack([self.bank.position, self._ped_pos, extra_obstacles])
        if n_cars:
            # Every agent except the car itself is an obstacle.
            self.bank.step(all_pos, self._town.occupancy_at(all_pos), dt)
        # Pedestrians see pre-step car positions but post-step speeds
        # (a car that just braked to a stop is safe to cross in front of).
        self._step_pedestrians(
            np.vstack([all_pos[:n_cars], all_pos[n_cars + n_peds :]]),
            np.concatenate([self.bank.speed, extra_speeds]),
            dt,
        )

    def _step_pedestrians(
        self, all_cars: np.ndarray, car_speeds: np.ndarray, dt: float
    ) -> None:
        """Walk every pedestrian one step past ``all_cars``.

        Peds only care about cars within arm's-length radii, and the
        ped x car block is small and dense (250 x ~80 at paper scale),
        so one broadcast distance matrix beats per-ped grid queries;
        each row holds the same per-pair arithmetic a per-ped scan
        would produce, sliced in ascending car order.
        """
        if len(self.pedestrians) and len(all_cars):
            d3 = self._ped_pos[:, None, :] - all_cars[None, :, :]
            gap_matrix = np.sqrt(np.add.reduce(d3 * d3, axis=2))
            near_mask = gap_matrix < 16.0
            for j, ped in enumerate(self.pedestrians):
                row = near_mask[j]
                if row.any():
                    ped.step(
                        dt,
                        car_positions=all_cars[row],
                        car_speeds=car_speeds[row],
                        gaps=gap_matrix[j][row],
                    )
                else:
                    ped.step(dt)
                self._ped_pos[j] = ped.position
        else:
            for j, ped in enumerate(self.pedestrians):
                ped.step(dt)
                self._ped_pos[j] = ped.position


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

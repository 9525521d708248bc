"""The simulated world: expert fleet + background traffic + collisions."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.engine.random import spawn_rng
from repro.sim.autopilot import BankDriver, DriverBank
from repro.sim.kinematics import VehicleState
from repro.sim.map import TownMap
from repro.sim.router import RoutePlan, random_route
from repro.sim.traffic import TrafficManager

__all__ = [
    "WorldConfig",
    "ExpertVehicle",
    "World",
    "CAR_RADIUS",
    "DT",
    "OUT_OF_DISTRICT_PROB",
    "PED_RADIUS",
    "SNAPSHOT_INTERVAL",
]

CAR_RADIUS = 1.2  # collision circle of a car (~half its width + margin)
PED_RADIUS = 0.4  # collision circle of a pedestrian
#: The control tick every simulated car, pedestrian and tested model
#: pilot advances by, seconds (CARLA's 10 Hz, §IV-A).
DT = 0.1
#: Seconds between recorded snapshots: 2 fps, as the paper collects
#: data (§IV-A); also the mobility traces' sample interval.
SNAPSHOT_INTERVAL = 0.5
#: Fraction of a districted vehicle's trips whose destination leaves its
#: home district (commutes), so every road geometry — straight runs
#: through intersections in particular — is in everyone's data (§IV-A's
#: heterogeneous fleet).
OUT_OF_DISTRICT_PROB = 0.25


@dataclass
class WorldConfig:
    """World construction parameters (paper defaults, see §IV-A)."""

    map_size: float = 1000.0
    grid_n: int = 6
    n_vehicles: int = 32
    n_background_cars: int = 50
    n_pedestrians: int = 250
    min_route_length: float = 250.0
    seed: int = 0
    rural: bool = True
    #: Fleet data heterogeneity: vehicles get a home district (map
    #: quadrant) their route endpoints stay in.  1 disables districts.
    n_districts: int = 1
    #: Skew pedestrian spawn density across districts (heterogeneous
    #: hazard exposure); requires n_districts > 1.
    ped_district_skew: bool = False
    #: Map structure: 1 keeps the paper's single town grid; s > 1
    #: builds an s x s city of district grids joined by arterial links
    #: (pairs naturally with n_districts = s²).
    city_blocks: int = 1
    #: Selects nothing: it used to pick a sharded spatial grid for
    #: ``World.step``, and the driver bank's one obstacle scan
    #: (:func:`repro.sim.spatial.strip_pairs`) has no cell table to
    #: shard.  Still accepted because the frozen
    #: ``benchmarks/perf/workloads.py`` sets it and ``scale_fingerprint``
    #: hashes it; ROADMAP items 1 and 6: item 6 deletes it, with the
    #: ``_CACHE_FORMAT`` bump (8 → 9) that takes.
    shard_stepping: bool = False


@dataclass
class ExpertVehicle:
    """One expert autopilot of the learning fleet.

    ``pilot`` is the vehicle's row of the world's
    :class:`~repro.sim.autopilot.DriverBank`; ``state`` and ``plan``
    read through it, so they are current after every ``World.step``.
    """

    vehicle_id: str
    pilot: BankDriver
    rng: np.random.Generator
    district: int = 0

    @property
    def state(self) -> VehicleState:
        """The vehicle's current kinematic state."""
        return self.pilot.state

    @property
    def plan(self) -> RoutePlan:
        """The vehicle's current route plan."""
        return self.pilot.plan


@dataclass
class Snapshot:
    """Everything recorded about the world at one frame time."""

    time: float
    vehicle_states: dict[str, VehicleState]
    vehicle_commands: dict[str, int]
    vehicle_plans: dict[str, RoutePlan]
    bg_car_positions: np.ndarray  # background cars only
    pedestrian_positions: np.ndarray

    def __post_init__(self):
        self._fleet_cache: tuple[list[str], np.ndarray] | None = None

    def _fleet(self) -> tuple[list[str], np.ndarray]:
        """Vehicle ids and their stacked (n, 2) positions, built once."""
        if self._fleet_cache is None:
            ids = list(self.vehicle_states)
            stack = (
                np.array([self.vehicle_states[v].position for v in ids])
                if ids
                else np.zeros((0, 2))
            )
            self._fleet_cache = (ids, stack)
        return self._fleet_cache

    def other_car_positions(self, vehicle_id: str) -> np.ndarray:
        """All cars except ``vehicle_id``: remaining fleet + background."""
        ids, fleet = self._fleet()
        try:
            k = ids.index(vehicle_id)
        except ValueError:
            return np.vstack([fleet, self.bg_car_positions])
        return np.vstack([fleet[:k], fleet[k + 1 :], self.bg_car_positions])


class World:
    """Steps the full simulation and records snapshots at frame rate."""

    def __init__(self, config: WorldConfig, town: TownMap | None = None):
        self.config = config
        self.town = town or TownMap(
            size=config.map_size,
            grid_n=config.grid_n,
            rural=config.rural,
            seed=config.seed,
            districts_per_side=config.city_blocks,
        )
        self.time = 0.0
        self._since_snapshot = 0.0
        self.snapshots: list[Snapshot] = []
        fleet = [
            (spawn_rng(config.seed, f"vehicle-{i}"), i % config.n_districts)
            for i in range(config.n_vehicles)
        ]
        #: The fleet's drivers: the single owner of every vehicle's state.
        self.bank = DriverBank(
            [
                random_route(
                    self.town,
                    rng,
                    min_length=config.min_route_length,
                    nodes=self._route_endpoints(district, rng),
                )
                for rng, district in fleet
            ],
            renew=self._new_route,
        )
        self.vehicles: list[ExpertVehicle] = [
            ExpertVehicle(f"v{i}", BankDriver(self.bank, i), rng, district)
            for i, (rng, district) in enumerate(fleet)
        ]
        self.traffic = TrafficManager(
            self.town,
            config.n_background_cars,
            config.n_pedestrians,
            spawn_rng(config.seed, "traffic"),
            ped_district_weights=self._ped_district_weights(),
            n_districts=config.n_districts,
        )
        self._fleet_pos_view = self.bank.position.view()
        self._fleet_pos_view.flags.writeable = False

    def _route_endpoints(self, district: int, rng: np.random.Generator) -> list | None:
        """Endpoint candidates for one trip: usually the home district,
        sometimes anywhere (a commute out of the district)."""
        if self.config.n_districts <= 1:
            return None
        if rng.uniform() < OUT_OF_DISTRICT_PROB:
            return None
        return self.town.district_nodes(district, self.config.n_districts)

    def _ped_district_weights(self) -> np.ndarray | None:
        """Skewed pedestrian density: some districts are crowded, some
        nearly empty, so hazard exposure differs across the fleet."""
        if not self.config.ped_district_skew or self.config.n_districts <= 1:
            return None
        k = self.config.n_districts
        weights = np.linspace(0.2, 2.0, k)
        return weights / weights.sum()

    # -- stepping ----------------------------------------------------------

    def vehicle_positions(self) -> np.ndarray:
        """(n, 2) array of the fleet's current positions (read-only view)."""
        return self._fleet_pos_view

    def step(self) -> None:
        """Advance the world by one control timestep."""
        dt = DT
        # Pre-step positions of every agent: the vstack copies out of
        # the live state, so the whole world this tick reacts to where
        # everyone *was*, the background cars included.
        everything = np.vstack(
            [
                self.bank.position,
                self.traffic.car_positions(),
                self.traffic.pedestrian_positions(),
            ]
        )
        self.bank.step(everything, self.town.occupancy_at(everything), dt)
        n = len(self.vehicles)
        self.traffic.step(everything[:n], dt, extra_speeds=self.bank.speed)
        self.time += dt
        self._since_snapshot += dt
        if self._since_snapshot >= SNAPSHOT_INTERVAL - 1e-9:
            self._take_snapshot()
            self._since_snapshot = 0.0

    def run(self, duration: float) -> None:
        """Step the world for ``duration`` simulated seconds."""
        steps = int(round(duration / DT))
        for _ in range(steps):
            self.step()

    def _new_route(self, index: int, position: np.ndarray) -> RoutePlan:
        """The next trip of vehicle ``index``, which stands at ``position``
        (drawn from the vehicle's own generator)."""
        vehicle = self.vehicles[index]
        return random_route(
            self.town,
            vehicle.rng,
            min_length=self.config.min_route_length,
            start=self.town.nearest_node(position),
            nodes=self._route_endpoints(vehicle.district, vehicle.rng),
        )

    def _take_snapshot(self) -> None:
        ids = [v.vehicle_id for v in self.vehicles]
        bank = self.bank
        states = map(
            VehicleState,
            bank.x.tolist(), bank.y.tolist(), bank.heading.tolist(), bank.speed.tolist(),
        )
        self.snapshots.append(
            Snapshot(
                time=self.time,
                vehicle_states=dict(zip(ids, states)),
                vehicle_commands=dict(zip(ids, bank.routes.command_at(bank.s).tolist())),
                vehicle_plans=dict(zip(ids, bank.routes.plans)),
                # Snapshots outlive the tick; copy out of the live views.
                bg_car_positions=self.traffic.car_positions().copy(),
                pedestrian_positions=self.traffic.pedestrian_positions().copy(),
            )
        )

    # -- collision queries ---------------------------------------------------

    def check_collision(
        self, position: np.ndarray, exclude_index: int | None = None
    ) -> bool:
        """Whether a car at ``position`` overlaps any other agent.

        ``exclude_index`` skips one expert vehicle (the queried one).
        """
        fleet = self.vehicle_positions()
        if exclude_index is not None and len(fleet):
            fleet = np.delete(fleet, exclude_index, axis=0)
        cars = np.vstack([fleet, self.traffic.car_positions()])
        if len(cars):
            if (np.linalg.norm(cars - position, axis=1) < 2 * CAR_RADIUS).any():
                return True
        peds = self.traffic.pedestrian_positions()
        if len(peds):
            if (np.linalg.norm(peds - position, axis=1) < CAR_RADIUS + PED_RADIUS).any():
                return True
        return False

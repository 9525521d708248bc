"""Tests for district-based data heterogeneity."""

import numpy as np
import pytest

from repro.sim import TownMap, World, WorldConfig
from repro.sim import world as world_module
from repro.sim.traffic import TrafficManager


@pytest.fixture(scope="module")
def town():
    return TownMap(size=400.0, grid_n=4, seed=0)


class TestDistrictOf:
    def test_single_district(self, town):
        assert town.district_of(np.array([10.0, 10.0]), n_districts=1) == 0

    def test_quadrants(self, town):
        assert town.district_of(np.array([100.0, 100.0]), 4) == 0
        assert town.district_of(np.array([100.0, 300.0]), 4) == 1
        assert town.district_of(np.array([300.0, 100.0]), 4) == 2
        assert town.district_of(np.array([300.0, 300.0]), 4) == 3

    def test_halves(self, town):
        assert town.district_of(np.array([100.0, 350.0]), 2) == 0
        assert town.district_of(np.array([300.0, 50.0]), 2) == 1

    def test_unsupported_count(self, town):
        with pytest.raises(ValueError):
            town.district_of(np.zeros(2), 3)

    def test_district_nodes_partition(self, town):
        all_nodes = set(town.nodes())
        collected = []
        for district in range(4):
            collected.extend(town.district_nodes(district, 4))
        assert set(collected) == all_nodes
        assert len(collected) == len(all_nodes)

    def test_district_nodes_in_right_quadrant(self, town):
        for district in range(4):
            for node in town.district_nodes(district, 4):
                assert town.district_of(town.node_position(node), 4) == district


class TestDistrictWorld:
    def test_vehicles_assigned_round_robin(self):
        config = WorldConfig(
            map_size=400.0,
            grid_n=4,
            n_vehicles=6,
            n_background_cars=0,
            n_pedestrians=0,
            seed=3,
            min_route_length=100.0,
            n_districts=4,
        )
        world = World(config)
        assert [v.district for v in world.vehicles] == [0, 1, 2, 3, 0, 1]

    def test_routes_start_in_home_district(self, monkeypatch):
        monkeypatch.setattr(world_module, "OUT_OF_DISTRICT_PROB", 0.0)  # pure home-district trips
        config = WorldConfig(
            map_size=400.0,
            grid_n=4,
            n_vehicles=4,
            n_background_cars=0,
            n_pedestrians=0,
            seed=3,
            min_route_length=80.0,
            n_districts=4,
        )
        world = World(config)
        for vehicle in world.vehicles:
            start = vehicle.plan.point_at(0.0)
            assert world.town.district_of(start, 4) == vehicle.district

    def test_out_of_district_commutes_happen(self, monkeypatch):
        monkeypatch.setattr(world_module, "OUT_OF_DISTRICT_PROB", 1.0)  # every trip is a commute
        config = WorldConfig(
            map_size=400.0,
            grid_n=4,
            n_vehicles=6,
            n_background_cars=0,
            n_pedestrians=0,
            seed=3,
            min_route_length=80.0,
            n_districts=4,
        )
        world = World(config)
        world.run(60.0)
        # With unconstrained endpoints, vehicles roam beyond quadrants.
        districts_seen = set()
        for snap in world.snapshots[::10]:
            for state in snap.vehicle_states.values():
                districts_seen.add(world.town.district_of(state.position, 4))
        assert len(districts_seen) >= 3

    def test_district_data_differs(self):
        """Vehicles in different districts see different positions."""
        config = WorldConfig(
            map_size=400.0,
            grid_n=4,
            n_vehicles=4,
            n_background_cars=0,
            n_pedestrians=0,
            seed=3,
            min_route_length=80.0,
            n_districts=4,
        )
        world = World(config)
        world.run(30.0)
        centroids = []
        for vid in ("v0", "v1", "v2", "v3"):
            positions = np.array(
                [snap.vehicle_states[vid].position for snap in world.snapshots]
            )
            centroids.append(positions.mean(axis=0))
        centroids = np.array(centroids)
        # Home districts keep fleet centroids apart.
        pairwise = np.linalg.norm(centroids[:, None] - centroids[None, :], axis=-1)
        assert pairwise[np.triu_indices(4, 1)].mean() > 50.0


class TestPedestrianSkew:
    def test_weighted_spawn_concentrates(self, town):
        rng = np.random.default_rng(0)
        weights = np.array([0.0, 0.0, 0.0, 1.0])
        manager = TrafficManager(
            town, 0, 40, rng, ped_district_weights=weights, n_districts=4
        )
        districts = [town.district_of(p, 4) for p in manager.pedestrian_positions()]
        assert np.mean(np.array(districts) == 3) > 0.7

    def test_uniform_without_weights(self, town):
        rng = np.random.default_rng(0)
        manager = TrafficManager(town, 0, 40, rng)
        districts = [town.district_of(p, 4) for p in manager.pedestrian_positions()]
        assert len(set(districts)) >= 3

"""Unit tests for background traffic."""

import copy
import sys

import numpy as np
import pytest

from repro.sim import TownMap
from repro.sim.traffic import (
    Pedestrian,
    TrafficManager,
    road_obstacles,
    walk_pedestrians,
)


@pytest.fixture(scope="module")
def town():
    return TownMap(size=400.0, grid_n=3, seed=0)


class TestPedestrian:
    def test_spawns_off_road(self, town):
        for seed in range(5):
            ped = Pedestrian(town, np.random.default_rng(seed))
            # Sidewalk points sit just past the pavement edge.
            assert not town.is_on_road(ped.position) or town.is_on_road(
                ped.position, margin=5.0
            )

    def test_walks_toward_target(self, town):
        ped = Pedestrian(town, np.random.default_rng(3))
        start = ped.position.copy()
        for _ in range(200):
            ped.step(0.1)
        assert np.linalg.norm(ped.position - start) > 1.0

    def test_waits_at_curb_for_moving_car(self, town):
        ped = Pedestrian(town, np.random.default_rng(4))
        # Force a crossing: target on the other side of a road.
        a, b = town.edges()[0]
        mid = (town.node_position(a) + town.node_position(b)) / 2
        ped.position = mid + np.array([0.0, town.road_half_width + 1.0])
        ped._target = mid - np.array([0.0, town.road_half_width + 1.0])
        cars = mid[None, :] + np.array([[3.0, 0.0]])
        before = ped.position.copy()
        ped.step(0.1, car_positions=cars, car_speeds=np.array([8.0]))
        entered_road = town.is_on_road(ped.position)
        # Either it hadn't reached the curb yet (moved along sidewalk) or
        # it waited; it must not have stepped onto the pavement.
        assert not entered_road or np.allclose(ped.position, before)

    def test_crosses_for_stopped_car(self, town):
        ped = Pedestrian(town, np.random.default_rng(4))
        a, b = town.edges()[0]
        mid = (town.node_position(a) + town.node_position(b)) / 2
        ped.position = mid + np.array([0.0, town.road_half_width + 0.05])
        ped._target = mid - np.array([0.0, town.road_half_width + 1.0])
        cars = mid[None, :] + np.array([[10.0, 0.0]])
        moved = False
        for _ in range(20):
            before = ped.position.copy()
            ped.step(0.1, car_positions=cars, car_speeds=np.array([0.0]))
            if not np.allclose(ped.position, before):
                moved = True
        assert moved

    def test_personal_space_rerolls_target(self, town):
        ped = Pedestrian(town, np.random.default_rng(5))
        target_before = ped._target.copy()
        direction = target_before - ped.position
        direction /= max(np.linalg.norm(direction), 1e-9)
        blocking_car = (ped.position + direction * 2.0)[None, :]
        ped.step(0.1, car_positions=blocking_car, car_speeds=np.array([0.0]))
        assert not np.allclose(ped._target, target_before)


class TestTrafficManager:
    def test_counts(self, town):
        manager = TrafficManager(town, 3, 7, np.random.default_rng(0))
        assert manager.car_positions().shape == (3, 2)
        assert manager.pedestrian_positions().shape == (7, 2)

    def test_empty_manager(self, town):
        manager = TrafficManager(town, 0, 0, np.random.default_rng(0))
        assert manager.car_positions().shape == (0, 2)
        manager.step(np.zeros((0, 2)), dt=0.1)  # no crash

    def test_keep_clear_respected(self, town):
        center = town.node_position([n for n in town.nodes() if n[0] == "t"][0])
        manager = TrafficManager(
            town, 6, 0, np.random.default_rng(1), keep_clear=center, keep_clear_radius=30.0
        )
        dists = np.linalg.norm(manager.car_positions() - center, axis=1)
        assert (dists >= 30.0).all()

    def test_step_moves_agents(self, town):
        manager = TrafficManager(town, 2, 5, np.random.default_rng(2))
        before_cars = manager.car_positions().copy()
        for _ in range(50):
            manager.step(np.zeros((0, 2)), dt=0.1)
        assert not np.allclose(manager.car_positions(), before_cars)


def _walkers_of(manager):
    """Per-object walkers born from the manager's rows, each on a copy of
    its row's generator."""
    return [
        Pedestrian(manager._town, copy.deepcopy(rng), position, target)
        for position, target, rng in zip(
            manager.ped_position, manager.ped_target, manager.ped_rngs
        )
    ]


def _assert_rows_equal_walkers(manager, walkers):
    def bits(rows):
        return np.asarray(rows, dtype=np.float64).reshape(-1, 2).tobytes()

    assert bits(manager.ped_position) == bits([w.position for w in walkers])
    assert bits(manager.ped_target) == bits([w._target for w in walkers])
    for rng, walker in zip(manager.ped_rngs, walkers):
        assert rng.bit_generator.state == walker._rng.bit_generator.state


class TestPedestrianRows:
    """The manager's one array statement per tick against
    :func:`walk_pedestrians`' loop over per-object walkers born from the
    same rows and generator states: equal to the bit, tick by tick."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("n_peds, n_cars", [(1, 3), (12, 0), (12, 8), (40, 30)])
    def test_walk_equals_the_scalar_walk(self, town, seed, n_peds, n_cars):
        rng = np.random.default_rng(seed)
        manager = TrafficManager(town, 0, n_peds, np.random.default_rng(seed))
        walkers = _walkers_of(manager)
        fired = {"arrived": 0, "blocked": 0, "waited": 0}
        for _ in range(300):
            # Cars strewn over the map, plus some 2-14 m from walkers so
            # personal space and curb waits come up.
            crowd = manager.ped_position[rng.integers(n_peds, size=n_cars // 2)]
            angle = rng.uniform(0.0, 2 * np.pi, size=len(crowd))
            reach = rng.uniform(2.0, 14.0, size=len(crowd))[:, None]
            cars = np.vstack([
                crowd + reach * np.column_stack([np.cos(angle), np.sin(angle)]),
                rng.uniform(0.0, town.size, size=(n_cars - len(crowd), 2)),
            ])
            speeds = rng.choice([0.0, 0.4, 6.0], size=n_cars)
            before = manager.ped_position.copy(), manager.ped_target.copy()
            manager._walk(cars, speeds, 0.1)
            walk_pedestrians(walkers, cars, speeds, 0.1)
            _assert_rows_equal_walkers(manager, walkers)
            retargeted = (manager.ped_target != before[1]).any(axis=1)
            arrived = np.linalg.norm(before[1] - before[0], axis=1) < 1.0
            fired["arrived"] += int((retargeted & arrived).sum())
            fired["blocked"] += int((retargeted & ~arrived).sum())
            fired["waited"] += int(
                (~retargeted & (manager.ped_position == before[0]).all(axis=1)).sum()
            )
        assert fired["arrived"]
        if n_cars:
            assert fired["blocked"], fired
        if n_cars >= 30:  # enough curb encounters in 300 ticks
            assert fired["waited"], fired

    def test_manager_step_equals_the_scalar_walk(self, town):
        """Through ``step``: pre-step car positions, post-step speeds."""
        manager = TrafficManager(town, 6, 25, np.random.default_rng(4))
        walkers = _walkers_of(manager)
        ego, ego_speed = town.node_position([n for n in town.nodes() if n[0] == "t"][4])[None, :], np.array([0.0])
        for _ in range(400):
            cars = np.vstack([manager.car_positions(), ego])
            manager.step(ego, 0.1, extra_speeds=ego_speed)
            walk_pedestrians(walkers, cars, np.concatenate([manager.bank.speed, ego_speed]), 0.1)
            _assert_rows_equal_walkers(manager, walkers)

    def test_every_walker_arrives_on_one_tick(self, town):
        manager = TrafficManager(town, 0, 9, np.random.default_rng(6))
        manager.ped_target[:] = manager.ped_position + 0.5
        walkers = _walkers_of(manager)
        before = manager.ped_position.copy()
        cars = manager.ped_position[:3] + 2.0
        manager._walk(cars, np.zeros(3), 0.1)
        walk_pedestrians(walkers, cars, np.zeros(3), 0.1)
        _assert_rows_equal_walkers(manager, walkers)
        assert (manager.ped_position == before).all()
        assert (manager.ped_target != before + 0.5).any(axis=1).all()

    def test_walk_calls_do_not_grow_with_the_walkers(self, town):
        """A perf gate with no stopwatch: four times the walkers may cost
        at most 1.5x the function calls of 20 ticks (a loop over
        walkers costs ~4x).  No walker arrives or is blocked in the
        window: those two branches draw per row, on purpose."""

        def calls_in_20_walks(n_peds):
            manager = TrafficManager(town, 0, n_peds, np.random.default_rng(9))
            manager.ped_target[:] = manager.ped_position + 30.0
            cars = np.array([[-50.0, -50.0], [450.0, 450.0]])
            calls = 0

            def count(frame, event, arg):
                nonlocal calls
                calls += event in ("call", "c_call")

            sys.setprofile(count)
            try:
                for _ in range(20):
                    manager._walk(cars, np.ones(2), 0.1)
            finally:
                sys.setprofile(None)
            return calls

        few, many = calls_in_20_walks(40), calls_in_20_walks(160)
        assert many <= 1.5 * few, (few, many)

    def test_no_pedestrians(self, town):
        manager = TrafficManager(town, 3, 0, np.random.default_rng(7))
        for _ in range(20):
            manager.step(np.zeros((1, 2)), 0.1)
        assert manager.pedestrian_positions().shape == (0, 2)

    def test_positions_are_a_readonly_view_of_the_rows(self, town):
        manager = TrafficManager(town, 0, 4, np.random.default_rng(8))
        view = manager.pedestrian_positions()
        manager.step(np.zeros((0, 2)), 0.1)
        assert np.shares_memory(view, manager.ped_position)
        with pytest.raises(ValueError):
            view[0, 0] = 1.0


class TestRoadObstacles:
    def test_filters_off_road(self, town):
        a, b = town.edges()[0]
        mid = (town.node_position(a) + town.node_position(b)) / 2
        on_road = mid
        off_road = np.array([200.0, 2.0])
        out = road_obstacles(town, np.stack([on_road, off_road]), mid, radius=500.0)
        assert len(out) == 1
        assert np.allclose(out[0], on_road)

    def test_filters_far_away(self, town):
        a, b = town.edges()[0]
        mid = (town.node_position(a) + town.node_position(b)) / 2
        out = road_obstacles(town, mid[None, :] + 100.0, mid, radius=10.0)
        assert len(out) == 0

    def test_empty_input(self, town):
        out = road_obstacles(town, np.zeros((0, 2)), np.zeros(2))
        assert len(out) == 0

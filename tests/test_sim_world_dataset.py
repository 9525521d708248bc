"""Tests for the world, dataset collection, and mobility traces."""

import sys

import numpy as np
import pytest

from repro.nn.model import N_COMMANDS
from repro.sim import World, WorldConfig, collect_fleet_datasets, simulate_traces
from repro.sim.dataset import DrivingDataset, Frame
from tests.conftest import BEV_SPEC, N_WAYPOINTS


class TestWorld:
    def test_snapshots_at_frame_rate(self, world_config):
        world = World(world_config)
        world.run(5.0)
        assert len(world.snapshots) == 10  # 2 fps for 5 s
        times = [snap.time for snap in world.snapshots]
        assert np.allclose(np.diff(times), 0.5)

    def test_vehicles_move(self, world_config):
        world = World(world_config)
        start = world.bank.position.copy()
        world.run(20.0)
        moved = np.linalg.norm(world.bank.position - start, axis=1)
        assert moved.max() > 10.0

    def test_vehicles_stay_near_roads(self, world_config):
        world = World(world_config)
        world.run(30.0)
        for snap in world.snapshots[::10]:
            for state in snap.vehicle_states.values():
                assert world.town.is_on_road(state.position, margin=4.0)



def calls_in_20_steps(n_vehicles: int) -> int:
    """Python and C function calls 20 ``World.step``s make, fleet only."""
    world = World(
        WorldConfig(
            map_size=600.0, grid_n=4, n_vehicles=n_vehicles, n_background_cars=0,
            n_pedestrians=0, seed=5, min_route_length=400.0,
        )
    )
    world.step()
    plans = list(world.bank.routes.plans)
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        calls += event in ("call", "c_call")

    sys.setprofile(count)
    try:
        for _ in range(20):
            world.step()
    finally:
        sys.setprofile(None)
    # Renewal is the one per-car step; the window must hold none.
    assert all(a is b for a, b in zip(plans, world.bank.routes.plans))
    return calls


class TestWorldStepIsAnArrayProgram:
    def test_calls_per_step_do_not_grow_with_the_fleet(self):
        """A perf gate with no stopwatch: four times the vehicles must
        cost at most 1.5x the function calls (1.02x here; the per-car
        loop this replaced made 3.9x), on any host under any load."""
        few, many = calls_in_20_steps(8), calls_in_20_steps(32)
        assert many <= 1.5 * few, (few, many)


class TestDrivingDataset:
    def _frame(self, i, weight=1.0, command=0):
        return Frame(
            frame_id=f"f{i}",
            bev=np.zeros(BEV_SPEC.shape, dtype=np.float32),
            command=command,
            waypoints=np.zeros(2 * N_WAYPOINTS, dtype=np.float32),
            weight=weight,
        )

    def test_add_and_len(self):
        ds = DrivingDataset([self._frame(0), self._frame(1)])
        assert len(ds) == 2

    def test_duplicate_ids_skipped(self):
        ds = DrivingDataset([self._frame(0)])
        ds.add(self._frame(0, weight=99.0))
        assert len(ds) == 1
        assert ds.frame(0).weight == 1.0

    def test_arrays_shapes(self):
        ds = DrivingDataset([self._frame(i) for i in range(3)])
        bev, commands, targets, weights = ds.arrays()
        assert bev.shape == (3, *BEV_SPEC.shape)
        assert commands.shape == (3,)
        assert targets.shape == (3, 2 * N_WAYPOINTS)
        assert weights.shape == (3,)

    def test_arrays_are_read_only_views(self):
        ds = DrivingDataset([self._frame(i) for i in range(3)])
        for view in ds.arrays():
            assert not view.flags.writeable
        with pytest.raises(ValueError):
            ds.arrays()[0][0, 0, 0, 0] = 1.0

    def test_empty_arrays_raises(self):
        with pytest.raises(ValueError):
            DrivingDataset().arrays()

    def test_subset_preserves_frames(self):
        ds = DrivingDataset([self._frame(i, command=i % N_COMMANDS) for i in range(6)])
        sub = ds.subset([1, 3])
        assert sub.ids == ["f1", "f3"]

    def test_with_weights(self):
        ds = DrivingDataset([self._frame(i) for i in range(3)])
        reweighted = ds.with_weights(np.array([1.0, 2.0, 3.0]))
        assert reweighted.weights.tolist() == [1.0, 2.0, 3.0]
        assert ds.weights.tolist() == [1.0, 1.0, 1.0]

    def test_with_weights_wrong_length(self):
        ds = DrivingDataset([self._frame(0)])
        with pytest.raises(ValueError):
            ds.with_weights(np.ones(2))

    def test_command_counts(self):
        ds = DrivingDataset(
            [self._frame(i, command=c) for i, c in enumerate([0, 0, 1, 3])]
        )
        assert ds.command_counts().tolist() == [2, 1, 0, 1]

    def test_weighted_sampling_respects_weights(self):
        rng = np.random.default_rng(0)
        ds = DrivingDataset([self._frame(0, weight=1e-9), self._frame(1, weight=1.0)])
        _, _, _, idx = ds.sample_batch(64, rng)
        assert (idx == 1).mean() > 0.95

    def test_sample_empty_raises(self):
        with pytest.raises(ValueError):
            DrivingDataset().sample_batch(4, np.random.default_rng(0))

    def test_pickle_round_trip(self):
        import pickle

        ds = DrivingDataset([self._frame(i, weight=float(i + 1)) for i in range(3)])
        clone = pickle.loads(pickle.dumps(ds))
        assert clone.ids == ds.ids
        assert clone.weights.tolist() == ds.weights.tolist()
        assert np.array_equal(clone.arrays()[0], ds.arrays()[0])


class TestCollectFleetDatasets:
    def test_datasets_per_vehicle(self, fleet_datasets, world_config):
        assert len(fleet_datasets) == world_config.n_vehicles
        for dataset in fleet_datasets.values():
            assert len(dataset) > 50

    def test_waypoints_point_forward_on_average(self, fleet_datasets):
        ds = fleet_datasets["v0"]
        _, _, targets, _ = ds.arrays()
        first_x = targets[:, 0]
        assert first_x.mean() > 0.5

    def test_waypoint_magnitudes_physical(self, fleet_datasets):
        # At <= ~12 m/s and 0.5 s spacing, each hop is <= ~7 m.
        ds = fleet_datasets["v0"]
        _, _, targets, _ = ds.arrays()
        wp = targets.reshape(len(ds), -1, 2)
        hops = np.linalg.norm(np.diff(np.concatenate([np.zeros((len(ds), 1, 2)), wp], axis=1), axis=1), axis=2)
        assert hops.max() < 10.0

    def test_frame_ids_unique(self, fleet_datasets):
        ds = fleet_datasets["v0"]
        assert len(set(ds.ids)) == len(ds)

    def test_multiple_commands_present(self, fleet_datasets):
        pooled = np.zeros(N_COMMANDS, dtype=int)
        for ds in fleet_datasets.values():
            pooled += ds.command_counts()
        assert (pooled > 0).sum() >= 3


class TestTraces:
    def test_shape(self, traces, world_config):
        n_steps, n_vehicles, _ = traces.positions.shape
        assert n_vehicles == world_config.n_vehicles
        assert n_steps == pytest.approx(180.0 / 0.5, abs=2)

    def test_interval(self, traces):
        assert traces.interval == pytest.approx(0.5)

    def test_position_lookup_consistent(self, traces):
        assert np.allclose(traces.position(0, 10.0), traces.positions[traces.index_at(10.0), 0])
        assert np.allclose(traces.position("v0", 10.0), traces.position(0, 10.0))

    def test_neighbors_excludes_self(self, traces):
        neighbors = traces.neighbors(0, 60.0, radius=1e9)
        assert 0 not in neighbors
        assert len(neighbors) == traces.positions.shape[1] - 1

    def test_future_positions_window(self, traces):
        future = traces.future_positions(0, 10.0, horizon=20.0)
        assert 40 <= len(future) <= 42

    def test_index_clamps(self, traces):
        assert traces.index_at(-5.0) == 0
        assert traces.index_at(1e9) == len(traces.times) - 1

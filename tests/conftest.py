"""Shared fixtures: a small world, datasets, models, and nodes.

Expensive artifacts (the town, collected datasets, traces) are
session-scoped; tests that mutate state build their own copies from the
frozen frames.
"""

from __future__ import annotations

from repro.blas import blas_threads, pin_blas_threads

pin_blas_threads()  # recorded goldens are single-thread GEMM results

import numpy as np  # noqa: E402
import pytest  # noqa: E402

pin_blas_threads()  # again, through the OpenBLAS numpy loaded, before any test

from repro.core.fleet import FleetEngine
from repro.core.node import NodeConfig, VehicleNode
from repro.engine.random import spawn_rng
from repro.nn import make_driving_model
from repro.nn._fused import kernel_status
from repro.sim import BevSpec, TownMap, World, WorldConfig, collect_fleet_datasets
from repro.sim.dataset import DrivingDataset
from repro.sim.traces import MobilityTraces, simulate_traces


def pytest_collection_modifyitems(session, config, items):
    """``test_selfcheck.py`` first, in its own order.  Its census reads
    which functions the rows enter, and a memo an earlier test filled (a
    built world context, the Adam kernel's handle, a cached grid) would
    hide that first call from the rows."""
    items.sort(key=lambda item: item.path.name != "test_selfcheck.py")


def pytest_report_header(config):
    adam = kernel_status()
    return [
        f"BLAS threads: {blas_threads()}",
        f"FleetAdam: {adam['path']} ({adam['so'] or adam['reason']})",
    ]


BEV_SPEC = BevSpec(grid=12, cell=2.5)
N_WAYPOINTS = 4
MODEL_SHAPE = BEV_SPEC.shape


@pytest.fixture(scope="session")
def world_config() -> WorldConfig:
    return WorldConfig(
        map_size=400.0,
        grid_n=3,
        n_vehicles=4,
        n_background_cars=4,
        n_pedestrians=10,
        seed=11,
        min_route_length=120.0,
    )


@pytest.fixture(scope="session")
def town(world_config) -> TownMap:
    return TownMap(
        size=world_config.map_size, grid_n=world_config.grid_n, seed=world_config.seed
    )


@pytest.fixture(scope="session")
def fleet_datasets(world_config) -> dict[str, DrivingDataset]:
    world = World(world_config)
    return collect_fleet_datasets(
        world, duration=60.0, bev_spec=BEV_SPEC, n_waypoints=N_WAYPOINTS
    )


@pytest.fixture(scope="session")
def traces(world_config) -> MobilityTraces:
    return simulate_traces(world_config, duration=180.0)


@pytest.fixture()
def small_dataset(fleet_datasets) -> DrivingDataset:
    """A fresh, mutable copy of one vehicle's dataset."""
    source = fleet_datasets["v0"]
    return DrivingDataset(source.frames())


@pytest.fixture()
def model():
    return make_driving_model(MODEL_SHAPE, N_WAYPOINTS, hidden=32, seed=0)


def make_fleet(
    datasets: dict[str, DrivingDataset],
    coreset_size: int = 12,
    seed: int = 5,
    step_workers: int | None = None,
    **config_overrides,
) -> list[VehicleNode]:
    """Nodes born in one fleet of a small model, one per ``datasets``
    entry in id order, each over a copy of its dataset."""
    config = NodeConfig(coreset_size=coreset_size, **config_overrides)
    template = make_driving_model(MODEL_SHAPE, N_WAYPOINTS, hidden=32, seed=0)
    members = [
        (node_id, DrivingDataset(dataset.frames()), spawn_rng(seed, node_id))
        for node_id, dataset in sorted(datasets.items())
    ]
    return list(FleetEngine(template, members, config, step_workers=step_workers).nodes)


def make_node(node_id: str, dataset: DrivingDataset, **kwargs) -> VehicleNode:
    """A one-row fleet's node (:func:`make_fleet`'s arguments)."""
    return make_fleet({node_id: dataset}, **kwargs)[0]


@pytest.fixture()
def node(fleet_datasets) -> VehicleNode:
    return make_node("v0", fleet_datasets["v0"])


@pytest.fixture()
def node_pair(fleet_datasets) -> tuple[VehicleNode, VehicleNode]:
    return (
        make_node("v0", fleet_datasets["v0"]),
        make_node("v1", fleet_datasets["v1"], seed=6),
    )


@pytest.fixture()
def rng() -> np.random.Generator:
    return np.random.default_rng(0)

"""Micro-benchmarks of the hot components (true pytest-benchmark timing).

These are throughput benchmarks rather than paper artifacts: coreset
construction, top-k compression, Eq. 7 optimization, and BEV rendering
all sit on the simulation's critical path.
"""

import numpy as np
import pytest

from repro.compression import compress_topk
from repro.core.psi import PsiLossMap, optimize_compression
from repro.coreset import build_coreset
from repro.sim import BevSpec, TownMap
from repro.sim.bev import render_bev
from repro.sim.dataset import DrivingDataset, Frame
from repro.sim.kinematics import VehicleState
from repro.sim.router import RoutePlan


@pytest.fixture(scope="module")
def dataset():
    rng = np.random.default_rng(0)
    frames = [
        Frame(
            f"f{i}",
            rng.normal(size=(5, 12, 12)).astype(np.float32),
            int(rng.integers(0, 4)),
            rng.normal(size=10).astype(np.float32),
            1.0,
        )
        for i in range(500)
    ]
    return DrivingDataset(frames)


@pytest.fixture(scope="module")
def node(dataset):
    from repro.core.node import NodeConfig, VehicleNode
    from repro.engine.random import spawn_rng
    from repro.nn import make_driving_model

    model = make_driving_model((5, 12, 12), 5, hidden=48, seed=0)
    config = NodeConfig(coreset_size=50, learning_rate=1e-3)
    return VehicleNode("bench", model, dataset.copy(), config, spawn_rng(7, "bench"))


def test_dataset_arrays_speed(benchmark, dataset):
    """The per-train-step array access — pre-rewrite this re-stacked
    every BEV tensor from a Python list on every call."""
    bev, commands, targets, weights = benchmark(dataset.arrays)
    assert bev.shape == (len(dataset), 5, 12, 12)
    assert not bev.flags.writeable


def test_sample_batch_speed(benchmark, dataset):
    rng = np.random.default_rng(3)
    bev, commands, targets, idx = benchmark(
        lambda: dataset.sample_batch(64, rng, balance_commands=True)
    )
    assert bev.shape[0] == 64


def test_per_sample_losses_warm_speed(benchmark, node):
    """Fully-cached evaluation — two fancy-indexing ops, no dict walk."""
    node.per_sample_losses(node.dataset)  # populate the cache
    losses = benchmark(lambda: node.per_sample_losses(node.dataset))
    assert losses.shape == (len(node.dataset),)


def test_psi_map_speed(benchmark, node):
    """Eq. 7 map fit: one shared magnitude ordering sliced per psi."""
    from repro.core.psi import DEFAULT_PSI_GRID

    psi_map = benchmark(node.build_psi_map)
    assert len(psi_map.psis) == len(DEFAULT_PSI_GRID)


def test_coreset_construction_speed(benchmark, dataset):
    rng = np.random.default_rng(1)
    losses = np.abs(np.random.default_rng(2).normal(size=len(dataset))) + 0.01
    coreset = benchmark(lambda: build_coreset(dataset, losses, 50, rng))
    assert 30 <= len(coreset) <= 60


def test_topk_compression_speed(benchmark):
    flat = np.random.default_rng(0).normal(size=2_000_000).astype(np.float32)
    compressed = benchmark(lambda: compress_topk(flat, 0.3, 52 * 1024 * 1024))
    assert compressed.psi == pytest.approx(0.3, abs=0.01)


def test_eq7_optimization_speed(benchmark):
    map_a = PsiLossMap(np.array([0.05, 0.3, 1.0]), np.array([3.0, 1.6, 1.0]))
    map_b = PsiLossMap(np.array([0.05, 0.3, 1.0]), np.array([2.5, 1.4, 0.9]))
    decision = benchmark(
        lambda: optimize_compression(
            map_a,
            map_b,
            loss_i_on_cj=2.0,
            loss_j_on_ci=2.2,
            model_size_bytes=52 * 1024 * 1024,
            bandwidth_bps=31e6,
            time_budget=15.0,
            contact_duration=40.0,
        )
    )
    assert decision.exchange_time <= 15.0 + 1e-9


def _run_transfer():
    from repro.net.channel import ChannelConfig, simulate_transfer
    from repro.net.wireless import WirelessModel

    # A 52 MB (nominal) model over a lossy link while closing from 400 m:
    # ~30 distance/goodput chunk evaluations — the per-chat hot path.
    return simulate_transfer(
        52 * 1024 * 1024,
        lambda t: 400.0 - 10.0 * t,
        WirelessModel(),
        ChannelConfig(),
        start_time=0.0,
        deadline=40.0,
    )


def test_transfer_sim_speed(benchmark):
    """Baseline for the telemetry no-op fast path (telemetry disabled)."""
    from repro.telemetry import hooks

    assert hooks.active() is None
    result = benchmark(_run_transfer)
    assert result.completed


def test_transfer_sim_speed_traced(benchmark):
    """Same transfer with telemetry active — compare against the test
    above; the gap is the full (enabled) instrumentation cost, and the
    disabled-path overhead is bounded well below it."""
    from repro.telemetry import TelemetrySession

    with TelemetrySession():
        result = benchmark(_run_transfer)
    assert result.completed


def test_parallel_engine_speed(benchmark, context, scale):
    """Serial vs pooled execution of four independent runs.

    Always asserts bit-identical results; the >= 2x speedup target from
    the paper-reproduction roadmap only applies on >= 4 physical cores
    (CI containers are often single-core), so it is asserted
    conditionally and the measured ratio is archived either way.
    """
    import os
    import time

    from benchmarks.conftest import emit
    from repro.experiments.runner import RunSpec
    from repro.parallel import run_specs

    specs = [
        RunSpec.for_context(context, method, wireless=True, seed=seed)
        for method in ("LbChat", "DP")
        for seed in (1, 2)
    ]

    t0 = time.perf_counter()
    serial = run_specs(specs, jobs=1)
    serial_s = time.perf_counter() - t0

    def pooled():
        return run_specs(specs, jobs=4)

    parallel = benchmark.pedantic(pooled, rounds=1, iterations=1)
    parallel_s = benchmark.stats.stats.mean

    for left, right in zip(serial, parallel):
        assert np.array_equal(left.loss_curve(9)[1], right.loss_curve(9)[1])
        assert left.receive_attempted == right.receive_attempted
        for node_l, node_r in zip(left.nodes, right.nodes):
            assert np.array_equal(node_l.flat_params, node_r.flat_params)

    cores = os.cpu_count() or 1
    speedup = serial_s / parallel_s if parallel_s > 0 else float("inf")
    emit(
        "parallel_speed",
        "Parallel engine: 4 independent runs, serial vs 4-worker pool\n"
        + "=" * 60
        + f"\nserial   {serial_s:8.2f}s"
        + f"\npool (4) {parallel_s:8.2f}s"
        + f"\nspeedup  {speedup:8.2f}x on {cores} core(s)"
        + "\nresults bit-identical: yes",
    )
    if cores >= 4:
        assert speedup >= 2.0, f"expected >= 2x on {cores} cores, got {speedup:.2f}x"


def test_bev_render_speed(benchmark):
    town = TownMap(size=400.0, grid_n=3, seed=0)
    a, b = list(town.graph.edges())[0]
    plan = RoutePlan(np.stack([town.node_position(a), town.node_position(b)]))
    start = plan.point_at(0.0)
    state = VehicleState(start[0], start[1], plan.heading_at(0.0), 8.0)
    rng = np.random.default_rng(0)
    cars = rng.uniform(0, 400, size=(30, 2))
    peds = rng.uniform(0, 400, size=(100, 2))
    bev = benchmark(
        lambda: render_bev(town, BevSpec(grid=20, cell=2.0), state, plan, cars, peds)
    )
    assert bev.shape == (5, 20, 20)


@pytest.fixture(scope="module")
def paper_world():
    """The §IV-A world (32 experts + 50 cars + 250 pedestrians), warmed
    past the spawn pattern so neighbor queries see realistic density."""
    from repro.experiments.configs import PAPER
    from repro.sim.world import World

    world = World(PAPER.world)
    world.run(5.0)
    return world


def test_world_step_speed(benchmark, paper_world):
    """One 10 Hz control tick at paper scale — the context-build hot
    loop (pre-rewrite: an O(n^2) distance scan per tick)."""
    benchmark(paper_world.step)


def test_road_obstacles_grid_speed(benchmark, paper_world):
    """One tick's worth of fleet neighbor queries, grid build included."""
    from repro.sim.spatial import SpatialGrid
    from repro.sim.traffic import road_obstacles

    world = paper_world
    everything = np.vstack(
        [
            world.vehicle_positions(),
            world.traffic.car_positions(),
            world.traffic.pedestrian_positions(),
        ]
    )

    def sweep():
        grid = SpatialGrid(everything)
        return [
            road_obstacles(world.town, everything, everything[i], grid=grid, exclude=i)
            for i in range(len(world.vehicles))
        ]

    results = benchmark(sweep)
    assert len(results) == len(world.vehicles)


def test_snapshot_other_cars_speed(benchmark, paper_world):
    """Per-snapshot fleet stacking (pre-rewrite: a fresh Python list
    comprehension over all vehicle states per query)."""
    snap = paper_world.snapshots[-1]
    ids = list(snap.vehicle_states)
    out = benchmark(lambda: [snap.other_car_positions(v) for v in ids])
    assert out[0].shape == (len(ids) - 1 + len(snap.bg_car_positions), 2)


def test_render_fleet_bev_speed(benchmark, paper_world):
    """Batched per-snapshot rendering of all 32 fleet BEVs."""
    from repro.experiments.configs import PAPER
    from repro.sim.bev import render_fleet_bev

    world = paper_world
    snap = world.snapshots[-1]
    ids = list(snap.vehicle_states)
    states = [snap.vehicle_states[v] for v in ids]
    plans = [snap.vehicle_plans[v] for v in ids]
    fleet = np.array([s.position for s in states])
    bevs = benchmark(
        lambda: render_fleet_bev(
            world.town,
            PAPER.bev,
            states,
            plans,
            fleet,
            snap.bg_car_positions,
            snap.pedestrian_positions,
        )
    )
    assert bevs.shape == (len(ids),) + PAPER.bev.shape


@pytest.mark.parametrize("path", ["kernel", "numpy"])
def test_fleet_adam_step_speed(benchmark, monkeypatch, path):
    """One lock-step Adam update of the bench-paper fleet (32 x 205 288
    float32, 184 MB of g/m/v/p traffic): the fused kernel against the
    chunked numpy fallback it replaces when there is no compiler."""
    from repro.nn import FleetAdam, ParamBank, make_driving_model
    from repro.nn._fused import _DISABLE_ENV, kernel_status

    if path == "numpy":
        monkeypatch.setenv(_DISABLE_ENV, "1")
    else:
        monkeypatch.delenv(_DISABLE_ENV, raising=False)
    status = kernel_status()
    if status["path"] != path:
        pytest.skip(f"no fused kernel: {status['reason']}")
    bank = ParamBank(make_driving_model((5, 20, 20), 5, hidden=96, seed=0), 32)
    assert bank.flat.shape == (32, 205288)
    rng = np.random.default_rng(0)
    bank.grad_flat[...] = rng.normal(size=bank.flat.shape).astype(np.float32)
    optim = FleetAdam(bank, lr=1e-4)
    benchmark(optim.step)
    assert optim.steps.min() > 0 and np.isfinite(bank.flat).all()

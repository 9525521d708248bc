#!/usr/bin/env python
"""Time the data-layer/evaluation hot path and emit a JSON report.

Run once on the pre-rewrite tree and once after, then merge the two
phases into ``BENCH_hotpath.json`` (the repo-root artifact tracked by
ISSUE 4):

    PYTHONPATH=src python scripts/bench_hotpath.py --label before --out /tmp/before.json
    PYTHONPATH=src python scripts/bench_hotpath.py --label after  --out /tmp/after.json
    PYTHONPATH=src python scripts/bench_hotpath.py --merge /tmp/before.json /tmp/after.json \
        --out BENCH_hotpath.json

Component benchmarks use the 500-frame dataset the acceptance criteria
name; the end-to-end benchmarks run ``run_method`` (what ``repro run``
executes after context building) on the hotpath-smoke world and on the
paper world (32 vehicles, 1 km map) with a shortened training horizon
so a single timing run stays tractable.

``--suite fleet`` measures the fleet-batched training engine (ISSUE 7):
batched-vs-per-node train-step and evaluate throughput at 8/32/128
nodes, the paper-scale training-step segment, and the end-to-end
hotpath-smoke LbChat run.  Record the "before" phase with
``--fleet-mode per-node`` and the "after" phase with
``--fleet-mode batched``, then merge with ``--update-section fleet``
so the report nests inside ``BENCH_hotpath.json`` next to the
components report:

    PYTHONPATH=src python scripts/bench_hotpath.py --suite fleet \
        --fleet-mode per-node --label before --out /tmp/fleet-before.json
    PYTHONPATH=src python scripts/bench_hotpath.py --suite fleet \
        --fleet-mode batched --label after --out /tmp/fleet-after.json
    PYTHONPATH=src python scripts/bench_hotpath.py \
        --merge /tmp/fleet-before.json /tmp/fleet-after.json \
        --update-section fleet --out BENCH_hotpath.json

``--suite cityscale`` measures the city-scale machinery (ISSUE 8):
encounter-window extraction via the swept spatial sweep vs the
all-pairs reference, plus sharded city-world stepping, at 32/128/512
vehicles in the *constant-density* growth regime (map side scales with
sqrt(fleet), the way a city grows) — the regime where sub-O(n²)
scaling is observable.  Each fleet size runs in its own subprocess so
``peak_rss_mb`` is a per-size measurement (``ru_maxrss`` is monotonic
within a process).  Record the repo-root artifact with:

    PYTHONPATH=src python scripts/bench_hotpath.py --suite cityscale \
        --update-section cityscale --out BENCH_cityscale.json

``--suite stepshard`` measures within-run step sharding (ISSUE 9):
the paper-scale training segment at 1/2/4 step workers, the end-to-end
smoke run serial vs sharded, and the auto-tuner's pick for this host —
the artifact behind ``BENCH_stepshard.json``:

    PYTHONPATH=src python scripts/bench_hotpath.py --suite stepshard \
        --out BENCH_stepshard.json

``--suite overlap`` measures overlapped chat transfers (ISSUE 10):
end-to-end LbChat at paper scale and on the city-smoke world with
``overlap_chat`` off vs on (best-of-2 wall-clock per flag), plus the
fleet engine's mean step width and virtual-time training instants per
contact — the artifact behind ``BENCH_overlap.json``:

    PYTHONPATH=src python scripts/bench_hotpath.py --suite overlap \
        --out BENCH_overlap.json

``--suite worldsim`` instead times the world-simulation hot path at
paper scale (332 agents): ``World.step``, one tick's worth of
``road_obstacles`` neighbor queries, ``render_bev``, per-snapshot fleet
stacking, ``nearest_node``, and the end-to-end ``paper_context_build``
(the artifact behind ``BENCH_worldsim.json``, ISSUE 5).  The suite
auto-detects the spatial-hash grid so the same file runs on the
pre-rewrite tree for the "before" phase.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

N_FRAMES = 500
BEV_SHAPE = (5, 12, 12)
N_WAYPOINTS = 5


def _time(fn, repeat: int, warmup: int = 2) -> float:
    """Best-of-``repeat`` wall-clock seconds for one call of ``fn``."""
    for _ in range(warmup):
        fn()
    best = float("inf")
    for _ in range(repeat):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def make_dataset(bev_shape=BEV_SHAPE, n_frames=N_FRAMES, seed=0):
    from repro.sim.dataset import DrivingDataset, Frame

    rng = np.random.default_rng(seed)
    frames = [
        Frame(
            f"f{seed}-{i}",
            rng.normal(size=bev_shape).astype(np.float32),
            int(rng.integers(0, 4)),
            rng.normal(size=2 * N_WAYPOINTS).astype(np.float32),
            float(rng.uniform(0.5, 2.0)),
        )
        for i in range(n_frames)
    ]
    return DrivingDataset(frames)


def make_node(dataset):
    from repro.core.node import NodeConfig, VehicleNode
    from repro.engine.random import spawn_rng
    from repro.nn import make_driving_model
    from repro.sim.dataset import DrivingDataset

    model = make_driving_model(BEV_SHAPE, N_WAYPOINTS, hidden=48, seed=0)
    config = NodeConfig(coreset_size=50, learning_rate=1e-3)
    return VehicleNode(
        "bench", model, DrivingDataset(dataset.frames()), config, spawn_rng(7, "bench")
    )


def bench_components() -> dict[str, float]:
    dataset = make_dataset()
    rng = np.random.default_rng(1)
    out: dict[str, float] = {}

    out["dataset_arrays_s"] = _time(lambda: dataset.arrays(), repeat=50)
    out["sample_batch_s"] = _time(
        lambda: dataset.sample_batch(64, rng, balance_commands=True), repeat=50
    )
    out["command_counts_s"] = _time(lambda: dataset.command_counts(), repeat=200)
    out["total_weight_s"] = _time(lambda: dataset.total_weight(), repeat=200)
    out["subset_100_s"] = _time(lambda: dataset.subset(range(100)), repeat=50)
    out["with_weights_s"] = _time(
        lambda: dataset.with_weights(np.ones(len(dataset))), repeat=50
    )

    node = make_node(dataset)
    node.per_sample_losses(node.dataset)  # warm the cache
    out["per_sample_losses_warm_s"] = _time(
        lambda: node.per_sample_losses(node.dataset), repeat=50
    )

    def cold_losses():
        node.model_version += 1  # invalidate every cache entry
        node.per_sample_losses(node.dataset)

    out["per_sample_losses_cold_s"] = _time(cold_losses, repeat=20)
    out["evaluate_s"] = _time(lambda: node.evaluate(node.dataset), repeat=50)
    out["psi_map_s"] = _time(lambda: node.build_psi_map(), repeat=10)
    return out


def bench_end_to_end(which: str) -> dict[str, float]:
    from repro.experiments.runner import RunSpec, build_context, run_method

    out: dict[str, float] = {}
    if which in ("smoke", "both"):
        sys.path.insert(0, str(Path(__file__).parent))
        from hotpath_smoke import build_scale

        context = build_context(build_scale())
        spec = RunSpec.for_context(context, "LbChat", wireless=True, seed=3)
        t0 = time.perf_counter()
        run_method(context, spec)
        out["run_lbchat_smoke_s"] = time.perf_counter() - t0
    if which in ("paper", "both"):
        from dataclasses import replace

        from repro.experiments.configs import PAPER

        # The paper world (32 vehicles, 1 km map, 150-sample coresets)
        # with a shortened training horizon: the data-layer cost per
        # simulated second is what we are measuring, not convergence.
        scale = replace(
            PAPER,
            name="paper-e2e-bench",
            collect_duration=120.0,
            trace_duration=400.0,
            train_duration=300.0,
        )
        t0 = time.perf_counter()
        context = build_context(scale)
        out["paper_context_build_s"] = time.perf_counter() - t0
        spec = RunSpec.for_context(context, "LbChat", wireless=True, seed=3)
        t0 = time.perf_counter()
        run_method(context, spec)
        out["run_lbchat_paper_world_s"] = time.perf_counter() - t0
    return out


def bench_worldsim() -> dict[str, float]:
    """World-simulation hot-path timings at paper scale (332 agents)."""
    from dataclasses import replace

    from repro.experiments.configs import PAPER
    from repro.sim.bev import render_bev
    from repro.sim.traffic import road_obstacles
    from repro.sim.world import World

    try:
        from repro.sim.spatial import SpatialGrid
    except ImportError:  # pre-rewrite tree: brute-force "before" phase
        SpatialGrid = None

    out: dict[str, float] = {}
    world = World(PAPER.world)
    world.run(5.0)  # let agents disperse from their spawn pattern

    def ten_steps():
        for _ in range(10):
            world.step()

    out["world_step_s"] = _time(ten_steps, repeat=5, warmup=1) / 10.0

    # One tick's worth of fleet neighbor queries, as World.step issues
    # them (superset-from-grid + exact filter after the rewrite).
    everything = np.vstack(
        [
            np.asarray(world.vehicle_positions()),
            np.asarray(world.traffic.car_positions()),
            np.asarray(world.traffic.pedestrian_positions()),
        ]
    )
    n_fleet = len(world.vehicles)

    if SpatialGrid is None:

        def query_sweep():
            for i in range(n_fleet):
                mask = np.ones(len(everything), dtype=bool)
                mask[i] = False
                road_obstacles(world.town, everything[mask], everything[i])

    else:

        def query_sweep():
            grid = SpatialGrid(everything)
            for i in range(n_fleet):
                road_obstacles(
                    world.town, everything, everything[i], grid=grid, exclude=i
                )

    out["road_obstacles_fleet_s"] = _time(query_sweep, repeat=20)

    snap = world.snapshots[-1]
    vid = world.vehicles[0].vehicle_id
    state = snap.vehicle_states[vid]
    plan = snap.vehicle_plans[vid]
    out["render_bev_s"] = _time(
        lambda: render_bev(
            world.town,
            PAPER.bev,
            state,
            plan,
            snap.other_car_positions(vid),
            snap.pedestrian_positions,
        ),
        repeat=30,
    )

    ids = list(snap.vehicle_states)
    out["snapshot_other_cars_s"] = _time(
        lambda: [snap.other_car_positions(v) for v in ids], repeat=30
    )

    point = np.array([333.3, 777.7])
    out["nearest_node_s"] = _time(
        lambda: world.town.nearest_node(point), repeat=200
    )

    # The headline end-to-end number: context build on the paper world
    # (same shortened horizons as bench_end_to_end's paper phase).
    scale = replace(
        PAPER,
        name="paper-worldsim-bench",
        collect_duration=120.0,
        trace_duration=400.0,
        train_duration=300.0,
    )
    from repro.experiments.runner import build_context

    t0 = time.perf_counter()
    build_context(scale)
    out["paper_context_build_s"] = time.perf_counter() - t0
    return out


def bench_fleet(batched: bool) -> dict[str, float]:
    """Fleet-batched vs per-node training/evaluation throughput (ISSUE 7).

    Run once with ``--fleet-mode per-node`` (the "before" phase) and
    once with ``--fleet-mode batched``, then merge the two files with
    ``--update-section fleet`` so the report lands next to the
    components report inside ``BENCH_hotpath.json``.
    """
    from repro.core.fleet import FleetEngine
    from repro.core.node import NodeConfig, VehicleNode
    from repro.engine.random import spawn_rng
    from repro.experiments.configs import PAPER
    from repro.experiments.runner import RunSpec, build_context, run_method
    from repro.nn import make_driving_model

    out: dict[str, float] = {}

    def build_fleet(n_nodes, bev_shape, hidden, batch_size):
        config = NodeConfig(coreset_size=50, learning_rate=1e-3, batch_size=batch_size)
        base = make_dataset(bev_shape=bev_shape)
        nodes = []
        for i in range(n_nodes):
            model = make_driving_model(bev_shape, N_WAYPOINTS, hidden=hidden, seed=0)
            nodes.append(
                VehicleNode(
                    f"fleet{i}", model, base.copy(), config, spawn_rng(7, f"fleet-{i}")
                )
            )
        engine = None
        if batched:
            engine = FleetEngine.try_build(nodes)
            assert engine is not None, "bench fleet must be batchable"
        return nodes, engine

    validation = make_dataset(n_frames=300, seed=1)
    for n_nodes in (8, 32, 128):
        nodes, engine = build_fleet(n_nodes, BEV_SHAPE, hidden=48, batch_size=64)

        def train_all():
            if engine is not None:
                engine.train_step_all()
            else:
                for node in nodes:
                    node.train_step()

        out[f"train_step_{n_nodes}_s"] = _time(train_all, repeat=10)

        def eval_all():
            for node in nodes:
                node.model_version += 1  # force a full cache miss
            if engine is not None:
                engine.evaluate_fleet(validation)
            else:
                for node in nodes:
                    node.evaluate(validation, with_penalty=False)

        out[f"evaluate_{n_nodes}_s"] = _time(eval_all, repeat=5)

    # The acceptance-criteria number: the training-step segment at paper
    # scale — 32 vehicles, the paper-sized model and batch — timed over
    # five lock-step rounds (what one train_interval instant costs).
    paper_bev = PAPER.bev.shape
    nodes, engine = build_fleet(
        PAPER.world.n_vehicles, paper_bev, hidden=PAPER.hidden,
        batch_size=PAPER.batch_size,
    )

    def paper_rounds():
        for _ in range(5):
            if engine is not None:
                engine.train_step_all()
            else:
                for node in nodes:
                    node.train_step()

    out["paper_train_segment_s"] = _time(paper_rounds, repeat=3) / 5.0

    # End-to-end check on the hotpath-smoke world: the full LbChat run
    # with fleet batching toggled by config.
    sys.path.insert(0, str(Path(__file__).parent))
    from hotpath_smoke import build_scale

    context = build_context(build_scale())
    overrides = {} if batched else {"fleet_batching": False}
    spec = RunSpec.for_context(
        context, "LbChat", wireless=True, seed=3, overrides=overrides
    )
    t0 = time.perf_counter()
    run_method(context, spec)
    out["run_lbchat_smoke_s"] = time.perf_counter() - t0
    return out


CITYSCALE_SIZES = (32, 128, 512)
CITYSCALE_RADIUS = 500.0  # TrainerConfig.max_range, the scan radius


def _cityscale_one(n: int) -> dict[str, float]:
    """Measure one fleet size (runs in its own subprocess for RSS)."""
    import resource

    from repro.net.sweep import pairwise_encounters, sweep_encounters
    from repro.sim.synthetic_traces import random_waypoint_traces
    from repro.sim.world import World, WorldConfig

    # Constant fleet density: the map side grows with sqrt(n), so 512
    # vehicles patrol a 4 km city, not a 1 km town packed 16x denser.
    side = 1000.0 * (n / 32) ** 0.5
    blocks = {32: 1, 128: 2, 512: 3}.get(n, max(1, round((n / 32) ** 0.5)))
    out: dict[str, float] = {"map_side_m": side}

    traces = random_waypoint_traces(n, duration=120.0, area=side, seed=9)
    repeat = 3 if n >= 512 else 5
    out["contact_pairwise_s"] = _time(
        lambda: pairwise_encounters(traces.positions, CITYSCALE_RADIUS),
        repeat=repeat, warmup=1,
    )
    out["contact_swept_s"] = _time(
        lambda: sweep_encounters(traces.positions, CITYSCALE_RADIUS),
        repeat=repeat, warmup=1,
    )
    swept = sweep_encounters(traces.positions, CITYSCALE_RADIUS)
    reference = pairwise_encounters(traces.positions, CITYSCALE_RADIUS)
    assert swept.to_tuples() == reference.to_tuples(), "swept != pairwise"
    out["encounter_windows"] = float(len(swept))

    config = WorldConfig(
        map_size=side, grid_n=4, n_vehicles=n, n_background_cars=n // 8,
        n_pedestrians=n // 4, city_blocks=blocks, shard_stepping=True,
    )
    t0 = time.perf_counter()
    world = World(config)
    out["world_build_s"] = time.perf_counter() - t0
    world.run(2.0)  # disperse from the spawn pattern

    def ten_steps():
        for _ in range(10):
            world.step()

    out["world_step_s"] = _time(ten_steps, repeat=3, warmup=1) / 10.0
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return out


def bench_cityscale() -> dict[str, float]:
    """City-scale contact + stepping suite (ISSUE 8), per-size children.

    Each fleet size runs in a child interpreter so its ``peak_rss_mb``
    reflects that size alone; the parent flattens the per-size dicts
    into ``<key>_<n>`` entries and appends the 128→512 growth factors
    (the sub-O(n²) acceptance number: pairwise grows ~16x per 4x fleet
    at constant density, the swept path ~4x).
    """
    import os
    import subprocess

    out: dict[str, float] = {}
    for n in CITYSCALE_SIZES:
        proc = subprocess.run(
            [
                sys.executable, str(Path(__file__).resolve()),
                "--cityscale-size", str(n), "--out", "-",
            ],
            check=True, capture_output=True, text=True, env=dict(os.environ),
        )
        sized = json.loads(proc.stdout.strip().splitlines()[-1])
        for key, value in sized.items():
            out[f"{key}_{n}"] = value
    for key in ("contact_pairwise_s", "contact_swept_s", "world_step_s"):
        lo, hi = out[f"{key}_128"], out[f"{key}_512"]
        if lo > 0:
            out[f"{key}_growth_128_to_512"] = round(hi / lo, 2)
    return out


STEPSHARD_WORKERS = (1, 2, 4)


def bench_stepshard() -> dict[str, float]:
    """Within-run step sharding (ISSUE 9): per-worker-count scaling.

    Results are bit-identical for every worker count (gated by
    ``scripts/stepshard_smoke.py``), so this suite is purely about
    wall-clock: the paper-scale training segment at 1/2/4 step workers,
    the end-to-end smoke run serial vs sharded, and what the throughput
    auto-tuner picks for this host.  Numbers are honest for the machine
    they ran on — ``host_cores`` is part of the report because sharding
    cannot beat serial on fewer cores than workers.
    """
    import os
    from dataclasses import replace as dc_replace

    from repro.core.fleet import FleetEngine
    from repro.core.node import NodeConfig, VehicleNode
    from repro.engine.random import spawn_rng
    from repro.experiments.configs import PAPER
    from repro.experiments.runner import RunSpec, build_context, run_method
    from repro.nn import make_driving_model
    from repro.parallel.autotune import autotune

    out: dict[str, float] = {"host_cores": float(os.cpu_count() or 1)}

    def build_fleet(step_workers):
        config = NodeConfig(
            coreset_size=50, learning_rate=1e-3, batch_size=PAPER.batch_size
        )
        base = make_dataset(bev_shape=PAPER.bev.shape)
        nodes = [
            VehicleNode(
                f"shard{i}",
                make_driving_model(
                    PAPER.bev.shape, N_WAYPOINTS, hidden=PAPER.hidden, seed=0
                ),
                base.copy(),
                config,
                spawn_rng(7, f"shard-{i}"),
            )
            for i in range(PAPER.world.n_vehicles)
        ]
        return FleetEngine(nodes, step_workers=step_workers)

    # The acceptance-criteria segment: one lock-step training instant at
    # paper scale (32 vehicles, hidden=96, 20x20 BEV, 64-sample batches),
    # timed over five rounds, per worker count.
    for workers in STEPSHARD_WORKERS:
        engine = build_fleet(workers)
        try:

            def rounds():
                for _ in range(5):
                    engine.train_step_all()

            out[f"paper_train_segment_{workers}w_s"] = _time(rounds, repeat=3) / 5.0
        finally:
            engine.close()
    base_s = out["paper_train_segment_1w_s"]
    for workers in STEPSHARD_WORKERS[1:]:
        sharded_s = out[f"paper_train_segment_{workers}w_s"]
        if sharded_s > 0:
            out[f"speedup_{workers}w"] = round(base_s / sharded_s, 2)

    # End-to-end: the stepshard-smoke world (batch 16, so the pool
    # engages) serial vs sharded.
    sys.path.insert(0, str(Path(__file__).parent))
    from stepshard_smoke import build_scale as stepshard_scale

    context = build_context(stepshard_scale())
    for workers in (1, 2):
        overrides = {"step_workers": workers} if workers != 1 else {}
        spec = RunSpec.for_context(context, "LbChat", seed=3, overrides=overrides)
        t0 = time.perf_counter()
        run_method(context, spec)
        out[f"run_lbchat_smoke_{workers}w_s"] = time.perf_counter() - t0

    # What `--step-workers auto` would pick here (fresh measurement, not
    # the cached result) plus its probe evidence.
    tuned = autotune(force=True)
    out["autotune_step_workers"] = float(tuned.step_workers)
    for workers, rate in tuned.get("throughput", {}).items():
        out[f"autotune_probe_{workers}w_node_steps_per_s"] = round(rate, 1)
    return out


def bench_overlap() -> dict[str, float]:
    """Overlapped chat transfers (ISSUE 10): flag on vs off, end to end.

    Paper-scale and city-scale LbChat runs with ``overlap_chat`` toggled.
    Wall-clock is best-of-2 per flag (the spread on a loaded host easily
    exceeds the effect otherwise).  Alongside wall-clock the suite
    reports the fleet engine's mean step width during ``train_step_all``
    (full width either way — training was never gated on radio busy
    state) and virtual-time training instants per contact, from the last
    repetition of each flag state.
    """
    from dataclasses import replace as dc_replace

    from repro.experiments.configs import PAPER
    from repro.experiments.runner import RunSpec, build_context, run_method

    sys.path.insert(0, str(Path(__file__).parent))
    from cityscale_smoke import build_scale as cityscale_scale

    out: dict[str, float] = {}

    def measure(prefix: str, context, repeat: int) -> None:
        for label, overrides in (("off", {}), ("on", {"overlap_chat": True})):
            spec = RunSpec.for_context(
                context, "LbChat", wireless=True, seed=3, overrides=overrides
            )
            best = float("inf")
            trainer = None
            for _ in range(repeat):
                t0 = time.perf_counter()
                trainer = run_method(context, spec).trainer
                best = min(best, time.perf_counter() - t0)
            out[f"{prefix}_lbchat_{label}_s"] = best
            chats = max(trainer.counters.get("chats"), 1.0)
            out[f"{prefix}_{label}_chats"] = trainer.counters.get("chats")
            out[f"{prefix}_{label}_train_instants_per_contact"] = round(
                trainer.counters.get("train_steps") / chats, 2
            )
            if trainer.fleet is not None:
                out[f"{prefix}_{label}_mean_step_width"] = round(
                    trainer.fleet.mean_step_width, 2
                )
            out[f"{prefix}_{label}_models_received"] = float(
                trainer.receive_rate.completed
            )
        off_s, on_s = out[f"{prefix}_lbchat_off_s"], out[f"{prefix}_lbchat_on_s"]
        if on_s > 0:
            out[f"{prefix}_speedup"] = round(off_s / on_s, 2)

    # Paper scale: 32 vehicles, 1 km map, shortened horizon (same world
    # as the components suite's end-to-end phase).
    scale = dc_replace(
        PAPER,
        name="overlap-paper-bench",
        collect_duration=120.0,
        trace_duration=400.0,
        train_duration=300.0,
    )
    print("building paper world...")
    measure("paper", build_context(scale), repeat=2)

    # City scale: the cityscale-smoke world (48 vehicles, swept contact
    # index, sharded stepping, bounded caches).
    print("building city world...")
    measure("city", build_context(cityscale_scale()), repeat=2)
    return out


_SUITE_DESCRIPTIONS = {
    "components": (
        "Data-layer/evaluation hot-path timings before and after the "
        "array-native DrivingDataset storage rewrite (ISSUE 4). "
        "Component benchmarks use a 500-frame dataset; end-to-end "
        "benchmarks run run_method('LbChat') on the hotpath-smoke "
        "world and on the paper world (32 vehicles, 1 km map, "
        "150-sample coresets) with a shortened training horizon."
    ),
    "worldsim": (
        "World-simulation hot-path timings before and after the "
        "spatial-hash / struct-of-arrays / batched-BEV rewrite "
        "(ISSUE 5), measured on the paper world (32 experts + 50 "
        "background cars + 250 pedestrians, 1 km map). world_step_s is "
        "one 10 Hz control tick; road_obstacles_fleet_s is one tick's "
        "worth of fleet neighbor queries; paper_context_build_s is the "
        "full §IV-A context build (120 s collection + 400 s traces)."
    ),
    "fleet": (
        "Fleet-batched training engine (ISSUE 7): per-node loops vs one "
        "batched tensor op per layer across the whole fleet. "
        "train_step_N_s is one lock-step training instant for N "
        "identical nodes (48-hidden model, 64-sample batches); "
        "evaluate_N_s is a full-miss validation pass over 300 frames; "
        "paper_train_segment_s is one training instant at paper scale "
        "(32 vehicles, hidden=96, 20x20 BEV, 64-sample batches); "
        "run_lbchat_smoke_s is the end-to-end hotpath-smoke LbChat run "
        "with fleet batching toggled by TrainerConfig.fleet_batching."
    ),
    "cityscale": (
        "City-scale suite (ISSUE 8) in the constant-density growth "
        "regime: fleet sizes 32/128/512 patrol maps whose side grows "
        "with sqrt(fleet) (1/2/4 km), so local radio-range density "
        "stays fixed while the city grows. contact_pairwise_s vs "
        "contact_swept_s is full encounter-window extraction from a "
        "120 s trace (500 m radius) via the O(n^2) all-pairs reference "
        "vs the spatial-grid sort-and-sweep; the *_growth_128_to_512 "
        "factors are the headline — pairwise grows ~16x per 4x fleet, "
        "the swept path ~4x (sub-O(n^2)). world_step_s is one 10 Hz "
        "tick of a sharded multi-district city world at that fleet "
        "size. Each size runs in its own subprocess, so peak_rss_mb "
        "is per-size (ru_maxrss is monotonic within a process)."
    ),
    "stepshard": (
        "Within-run step sharding (ISSUE 9): one run's batched fleet "
        "training step executed by a pool of forked workers over "
        "shared-memory parameter banks, each owning a contiguous range "
        "of node rows. Results are bit-identical for every worker "
        "count (scripts/stepshard_smoke.py gates that), so this suite "
        "measures wall-clock only: paper_train_segment_Nw_s is one "
        "lock-step training instant at paper scale (32 vehicles, "
        "hidden=96, 20x20 BEV, 64-sample batches) with N step workers; "
        "run_lbchat_smoke_Nw_s is the end-to-end stepshard-smoke LbChat "
        "run; autotune_* is what --step-workers auto picks for this "
        "host with its probe evidence. host_cores qualifies every "
        "number — speedup over serial requires at least as many free "
        "cores as workers, and on a single-core host the expected "
        "result is a slowdown (pipe round-trips buy no parallelism)."
    ),
    "overlap": (
        "Overlapped chat transfers (ISSUE 10): the chat protocol split "
        "into a synchronous plan phase (handshake, coresets, dense "
        "batched psi probes, Eq. 7) and a background transfer phase on "
        "the virtual clock, committed atomically at a barrier. "
        "run_lbchat_{off,on}_s is the end-to-end LbChat run with "
        "overlap_chat toggled, best-of-2 per flag (paper scale: 32 "
        "vehicles, 1 km map, 300 s horizon; city scale: the "
        "cityscale-smoke world, 48 vehicles). The wall-clock lever is "
        "the plan phase's DensePsiProber — one ParamBank row per psi "
        "grid level scored in a single shared-batch forward instead of "
        "one full forward per level. mean_step_width confirms training "
        "stays full-width either way (training was never gated on "
        "radio busy state); train_instants_per_contact is virtual-time "
        "training instants per chat. Flag-off runs are bit-identical "
        "to the pre-overlap tree (scripts/overlap_smoke.py gates "
        "that); flag-on runs trade exactness for overlap — payloads "
        "are plan-time snapshots absorbed at the commit barrier "
        "(delayed averaging), so outputs differ from sync runs."
    ),
}


def merge(before_path: str, after_path: str) -> dict:
    before = json.loads(Path(before_path).read_text())
    after = json.loads(Path(after_path).read_text())
    suite = before.get("suite", "components")
    report = {
        "description": _SUITE_DESCRIPTIONS[suite],
        "before": before["timings"],
        "after": after["timings"],
        "speedup": {},
    }
    for key in sorted(set(before["timings"]) & set(after["timings"])):
        old, new = before["timings"][key], after["timings"][key]
        if new > 0:
            report["speedup"][key] = round(old / new, 2)
    return report


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--label", default="run")
    parser.add_argument("--out", required=True)
    parser.add_argument(
        "--e2e", default="smoke", choices=("none", "smoke", "paper", "both")
    )
    parser.add_argument(
        "--suite",
        default="components",
        choices=(
            "components", "worldsim", "fleet", "cityscale", "stepshard",
            "overlap",
        ),
        help="components: ISSUE 4 data-layer suite; worldsim: ISSUE 5 "
        "paper-scale world-simulation suite (includes paper_context_build); "
        "fleet: ISSUE 7 fleet-batched training suite (see --fleet-mode); "
        "cityscale: ISSUE 8 constant-density contact + sharded-stepping "
        "suite at 32/128/512 vehicles; stepshard: ISSUE 9 within-run "
        "step-worker scaling + autotune suite; overlap: ISSUE 10 "
        "overlapped-chat-transfer suite (paper + city LbChat, flag on "
        "vs off)",
    )
    parser.add_argument(
        "--cityscale-size",
        type=int,
        metavar="N",
        help="internal: measure one cityscale fleet size in this process "
        "and print its JSON (spawned per size by --suite cityscale so "
        "peak RSS is per-size)",
    )
    parser.add_argument(
        "--fleet-mode",
        default="batched",
        choices=("per-node", "batched"),
        help="for --suite fleet: per-node is the 'before' phase "
        "(plain node.train_step loops), batched the 'after' phase "
        "(FleetEngine batched steps)",
    )
    parser.add_argument("--merge", nargs=2, metavar=("BEFORE", "AFTER"))
    parser.add_argument(
        "--update-section",
        metavar="NAME",
        help="nest the report under this key inside an existing --out "
        "file instead of overwriting the whole file (works for --merge "
        "reports and for single-phase suites like cityscale)",
    )
    args = parser.parse_args()

    if args.cityscale_size:
        print(json.dumps(_cityscale_one(args.cityscale_size)))
        return 0

    if args.merge:
        report = merge(*args.merge)
        if args.update_section:
            out_path = Path(args.out)
            existing = (
                json.loads(out_path.read_text()) if out_path.exists() else {}
            )
            existing[args.update_section] = report
            out_path.write_text(json.dumps(existing, indent=2) + "\n")
        else:
            Path(args.out).write_text(json.dumps(report, indent=2) + "\n")
        print(json.dumps(report["speedup"], indent=2))
        return 0

    if args.suite == "worldsim":
        timings = bench_worldsim()
    elif args.suite == "fleet":
        timings = bench_fleet(batched=args.fleet_mode == "batched")
    elif args.suite == "cityscale":
        timings = bench_cityscale()
    elif args.suite == "stepshard":
        timings = bench_stepshard()
    elif args.suite == "overlap":
        timings = bench_overlap()
    else:
        timings = bench_components()
        if args.e2e != "none":
            timings.update(bench_end_to_end(args.e2e))
    payload = {
        "label": args.label,
        "suite": args.suite,
        "description": _SUITE_DESCRIPTIONS[args.suite],
        "timings": timings,
    }
    out_path = Path(args.out)
    if args.update_section:
        existing = json.loads(out_path.read_text()) if out_path.exists() else {}
        existing[args.update_section] = payload
        out_path.write_text(json.dumps(existing, indent=2) + "\n")
    else:
        out_path.write_text(json.dumps(payload, indent=2) + "\n")
    print(json.dumps(payload, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())

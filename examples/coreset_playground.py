"""Coreset mechanics: Algorithm 1, the ε-guarantee, and merge-reduce.

Shows the paper's coreset machinery in isolation:

* layered-sampling construction partitions samples into loss rings and
  samples per ring (Algorithm 1);
* the resulting mini-set approximates the full dataset's weighted loss
  within a small relative error, at a fraction of the size;
* the quality/size trade-off behind Table IV;
* merging two coresets and reducing back to the size budget (§III-D).

Run:  python examples/coreset_playground.py
"""

import numpy as np

from repro.coreset import (
    build_coreset,
    layer_assignments,
    merge_coresets,
    reduce_coreset,
    relative_coreset_error,
)
from repro.core.fleet import FleetEngine
from repro.core.node import NodeConfig
from repro.engine.random import spawn_rng
from repro.nn import make_driving_model
from repro.sim import BevSpec, World, WorldConfig, collect_fleet_datasets


def make_nodes():
    world = World(
        WorldConfig(
            map_size=400.0,
            grid_n=3,
            n_vehicles=2,
            n_background_cars=4,
            n_pedestrians=10,
            seed=5,
            min_route_length=120.0,
        )
    )
    bev_spec = BevSpec(grid=16, cell=2.0)
    datasets = collect_fleet_datasets(world, duration=120.0, bev_spec=bev_spec)
    config = NodeConfig(coreset_size=30, learning_rate=1e-3)
    members = [(vid, dataset, spawn_rng(2, vid)) for vid, dataset in sorted(datasets.items())]
    fleet = FleetEngine(make_driving_model(bev_spec.shape, 5, 64, seed=0), members, config)
    for _ in range(80):  # some training so losses are structured
        fleet.train_step_all()
    return fleet.nodes


def main() -> None:
    node_a, node_b = make_nodes()
    model_a = node_a.detached_model()  # a standalone copy for the ε probes
    losses = node_a.per_sample_losses(node_a.dataset)

    print("== Layered partition (Algorithm 1, lines 1-6) ==")
    layers = layer_assignments(losses)
    for layer in range(int(layers.max()) + 1):
        members = losses[layers == layer]
        if len(members):
            print(f"  layer {layer}: {len(members):4d} samples, "
                  f"loss in [{members.min():.3f}, {members.max():.3f}]")

    print("\n== Size vs approximation quality (the Table IV trade-off) ==")
    rng = np.random.default_rng(0)
    print(f"  {'|C|':>5s}  {'rel. error':>10s}  {'wire size':>10s}")
    for size in (5, 15, 50, 150):
        errors = [
            relative_coreset_error(
                model_a,
                node_a.dataset,
                build_coreset(node_a.dataset, losses, size, rng),
            )
            for _ in range(5)
        ]
        coreset = build_coreset(node_a.dataset, losses, size, rng)
        print(f"  {len(coreset):5d}  {np.mean(errors):10.3f}  "
              f"{coreset.nominal_bytes / 1e6:8.2f}MB")

    print("\n== Merge-and-reduce (§III-D) ==")
    cs_a = build_coreset(node_a.dataset, losses, 30, rng)
    cs_b = build_coreset(
        node_b.dataset, node_b.per_sample_losses(node_b.dataset), 30, rng
    )
    merged = merge_coresets(cs_a, cs_b)
    print(f"  merged size: {len(merged)} (={len(cs_a)}+{len(cs_b)})")
    merged_losses = node_a.per_sample_losses(merged.data)
    reduced = reduce_coreset(merged, merged_losses, 30, rng)
    print(f"  reduced back to: {len(reduced)}")
    err = relative_coreset_error(model_a, merged.data, reduced)
    print(f"  reduced coreset's error vs the merged set: {err:.3f}")


if __name__ == "__main__":
    main()

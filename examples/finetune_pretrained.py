"""Fine-tuning a pre-trained onboard model with LbChat (§V).

The paper points out that LbChat is not limited to training from
scratch: vehicles can continuously fine-tune a pre-trained onboard
model with locally collected data.  This example pre-trains a model on
one district of the town, distributes it to a fleet driving *all*
districts, and lets LbChat fine-tune it collaboratively — the fleet
adapts the model to road geometry the pre-training never saw.

Run:  python examples/finetune_pretrained.py
"""

import numpy as np

from repro.core.fleet import FleetEngine
from repro.core.lbchat import LbChatConfig, LbChatTrainer
from repro.core.node import NodeConfig
from repro.engine.random import spawn_rng
from repro.nn import Adam, make_driving_model, waypoint_l1
from repro.sim import BevSpec, World, WorldConfig, collect_fleet_datasets, simulate_traces
from repro.sim.dataset import DrivingDataset


def main() -> None:
    bev_spec = BevSpec(grid=16, cell=2.0)
    world_config = WorldConfig(
        map_size=500.0,
        grid_n=4,
        n_vehicles=6,
        n_background_cars=6,
        n_pedestrians=20,
        seed=9,
        min_route_length=150.0,
        n_districts=4,
        ped_district_skew=True,
    )

    print("Collecting fleet data (vehicles drive their home districts)...")
    world = World(world_config)
    datasets = collect_fleet_datasets(world, duration=60.0, bev_spec=bev_spec)
    validation = DrivingDataset()
    local = {}
    for vid, dataset in sorted(datasets.items()):
        n = len(dataset)
        validation.extend([dataset.frame(i) for i in range(0, n, 8)])
        local[vid] = dataset.subset([i for i in range(n) if i % 8])

    print("Pre-training on district 0's data only (the 'factory' model)...")
    pretrain = DrivingDataset(local["v0"].frames())  # v0 lives in district 0
    model = make_driving_model(bev_spec.shape, 5, 64, seed=0)
    optimizer = Adam(model.parameters(), lr=1e-3)
    rng = np.random.default_rng(0)
    for _ in range(300):
        bev, commands, targets, _ = pretrain.sample_batch(64, rng)
        pred = model.forward(bev, commands)
        _, _, grad = waypoint_l1(pred, targets)
        model.zero_grad()
        model.backward(grad)
        optimizer.step()

    print("Distributing the pre-trained weights to the whole fleet...")
    # The fleet is born with the pre-trained model in every row.
    node_config = NodeConfig(coreset_size=12, learning_rate=1e-3)
    members = [(vid, dataset, spawn_rng(4, vid)) for vid, dataset in sorted(local.items())]
    nodes = list(FleetEngine(model, members, node_config).nodes)

    initial = np.mean([n.evaluate(validation, with_penalty=False) for n in nodes])
    print(f"  pre-trained model's fleet validation loss: {initial:.3f}")

    print("Fine-tuning collaboratively with LbChat (wireless loss on)...")
    traces = simulate_traces(world_config, duration=500.0)
    trainer = LbChatTrainer(
        nodes,
        traces,
        validation,
        LbChatConfig(duration=400.0, train_interval=2.0, wireless_loss=True, seed=2),
    )
    trainer.run()

    final = np.mean([n.evaluate(validation, with_penalty=False) for n in nodes])
    grid = np.linspace(0.0, 400.0, 9)
    curve = trainer.loss_curve.mean_curve(grid)
    print(f"  validation loss over time: {np.round(curve, 3)}")
    print(f"  {initial:.3f} -> {final:.3f} after fine-tuning "
          f"({trainer.counters.get('chats'):.0f} chats, "
          f"receive rate {100 * trainer.receive_rate.rate:.0f}%)")


if __name__ == "__main__":
    main()

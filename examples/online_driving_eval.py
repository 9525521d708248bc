"""Online evaluation: deploy a trained model on the CARLA-style ladder.

Trains one model on pooled expert data (an upper-bound reference), then
drives it closed-loop through the paper's five conditions — Straight,
One Turn, and the three Navigation difficulties — reporting the driving
success rate for each, exactly as §IV-D measures model quality.

Run:  python examples/online_driving_eval.py
"""

import numpy as np

from repro.nn import Adam, make_driving_model, waypoint_l1
from repro.sim import BevSpec, World, WorldConfig, collect_fleet_datasets
from repro.sim.dataset import DrivingDataset
from repro.sim.evaluate import DrivingCondition, EvalConfig, run_episode, route_for_condition
from repro.engine.random import spawn_rng


def main() -> None:
    print("Collecting expert driving data...")
    config = WorldConfig(
        map_size=500.0,
        grid_n=4,
        n_vehicles=8,
        n_background_cars=8,
        n_pedestrians=30,
        seed=7,
        min_route_length=150.0,
    )
    world = World(config)
    bev_spec = BevSpec(grid=20, cell=2.0)
    datasets = collect_fleet_datasets(world, duration=240.0, bev_spec=bev_spec)
    pool = DrivingDataset()
    for dataset in datasets.values():
        pool.extend(dataset.frames())
    print(f"  pooled {len(pool)} frames, command mix {pool.command_counts()}")

    print("Training the waypoint model (3000 iterations)...")
    model = make_driving_model(bev_spec.shape, 5, 96, seed=0)
    optimizer = Adam(model.parameters(), lr=1e-3)
    rng = np.random.default_rng(0)
    for step in range(3000):
        bev, commands, targets, _ = pool.sample_batch(64, rng)
        pred = model.forward(bev, commands)
        loss, _, grad = waypoint_l1(pred, targets)
        model.zero_grad()
        model.backward(grad)
        optimizer.step()
        if step % 1000 == 0:
            print(f"  step {step:5d}  batch loss {loss:.3f}")

    print("\nDriving the benchmark ladder (8 trials per condition)...")
    eval_config = EvalConfig(bev_spec=bev_spec, normal_cars=8, normal_pedestrians=30)
    print(f"  {'condition':16s} {'success':>8s}  outcomes")
    for condition in DrivingCondition:
        outcomes = {}
        for trial in range(8):
            route_rng = spawn_rng(1, f"route-{condition.value}-{trial}")
            plan = route_for_condition(world.town, condition, route_rng)
            result = run_episode(
                model, world.town, plan, condition, eval_config, seed=1000 + trial
            )
            outcomes[result.reason] = outcomes.get(result.reason, 0) + 1
        rate = 100.0 * outcomes.get("success", 0) / 8
        print(f"  {condition.value:16s} {rate:7.0f}%  {outcomes}")


if __name__ == "__main__":
    main()

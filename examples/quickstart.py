"""Quickstart: one LbChat "chat" between two vehicles, end to end.

Builds a small simulated town, lets two expert vehicles collect driving
data, wraps them as LbChat learner nodes, and runs a single pairwise
chat: coreset exchange, model value assessment, Eq. 7 compression
optimization, model transfer, Eq. 8 aggregation, and dataset expansion.

Run:  python examples/quickstart.py
"""

from repro.core.chat import pairwise_chat
from repro.core.fleet import FleetEngine
from repro.core.node import NOMINAL_MODEL_BYTES, NodeConfig
from repro.core.trainer_base import TIME_BUDGET
from repro.engine.random import spawn_rng
from repro.net import WirelessModel
from repro.nn import make_driving_model
from repro.sim import BevSpec, World, WorldConfig, collect_fleet_datasets


def main() -> None:
    print("== 1. Simulate a town and collect per-vehicle driving data ==")
    world_config = WorldConfig(
        map_size=400.0,
        grid_n=3,
        n_vehicles=2,
        n_background_cars=4,
        n_pedestrians=10,
        seed=3,
        min_route_length=120.0,
    )
    world = World(world_config)
    bev_spec = BevSpec(grid=16, cell=2.0)
    datasets = collect_fleet_datasets(world, duration=90.0, bev_spec=bev_spec)
    for vid, dataset in datasets.items():
        print(f"  {vid}: {len(dataset)} frames, command mix {dataset.command_counts()}")

    print("\n== 2. Wrap the vehicles as LbChat learner nodes ==")
    config = NodeConfig(coreset_size=20)
    # Both vehicles start from one initialisation: the fleet is born with
    # it in every row of its parameter bank, one row per vehicle.
    template = make_driving_model(bev_spec.shape, n_waypoints=5, hidden=64, seed=0)
    members = [(vid, dataset, spawn_rng(1, vid)) for vid, dataset in sorted(datasets.items())]
    node_a, node_b = FleetEngine(template, members, config).nodes
    print(f"  coreset sizes: {len(node_a.coreset)} and {len(node_b.coreset)} frames")
    print(f"  coreset wire size: {node_a.coreset.nominal_bytes / 1e6:.2f} MB "
          f"(model: {NOMINAL_MODEL_BYTES / 1e6:.0f} MB)")

    print("\n== 3. Train one vehicle ahead so its model is 'valuable' ==")
    for step in range(120):
        loss = node_b.train_step()
    print(f"  {node_b.node_id} trained 120 iterations, batch loss now {loss:.3f}")
    print(f"  {node_a.node_id} loss on own coreset:  "
          f"{node_a.evaluate(node_a.coreset.data):.3f}")
    print(f"  {node_a.node_id} loss on peer coreset: "
          f"{node_a.evaluate(node_b.coreset.data):.3f}")
    print(f"  {node_b.node_id} loss on own coreset:  "
          f"{node_b.evaluate(node_b.coreset.data):.3f}")

    print("\n== 4. Run one pairwise chat (vehicles 60 m apart, 15 s budget) ==")
    before = node_a.evaluate(node_a.coreset.data)
    outcome = pairwise_chat(
        node_a,
        node_b,
        distance_fn=lambda t: 60.0,
        start_time=0.0,
        contact_deadline=45.0,
        wireless=WirelessModel(),
        time_budget=TIME_BUDGET,
    )
    after = node_a.evaluate(node_a.coreset.data)
    print(f"  chat duration: {outcome.duration:.1f} s")
    print(f"  Eq. 7 decision: psi_{node_a.node_id}={outcome.psi.psi_i:.2f}, "
          f"psi_{node_b.node_id}={outcome.psi.psi_j:.2f} "
          f"(exchange time {outcome.psi.exchange_time:.1f} s)")
    print(f"  {node_a.node_id} received peer model: {outcome.i_received_model}")
    print(f"  frames absorbed: {outcome.absorbed_by_i} by {node_a.node_id}, "
          f"{outcome.absorbed_by_j} by {node_b.node_id}")
    print(f"  {node_a.node_id} coreset loss: {before:.3f} -> {after:.3f}")
    print(f"  {node_a.node_id} dataset grew to {len(node_a.dataset)} frames")

    assert outcome.coresets_exchanged
    print("\nDone: the untrained vehicle absorbed the trained peer's "
          "knowledge through one opportunistic encounter.")


if __name__ == "__main__":
    main()

"""Data-path equivalence gates for the array-native storage rewrite.

The expectations in ``tests/data/hotpath_expectations.json`` and the
``hotpath.*`` digests in ``src/repro/selfcheck_golden.json`` were recorded
on the pre-rewrite tree (Python-list storage, dict loss cache, per-psi
argpartition).  These tests assert the rewritten data layer reproduces
them bit-for-bit: same sampled indices, same per-sample losses, same
end-to-end ``run_method`` results.

To re-baseline after an *intentional* behaviour change:

    PYTHONPATH=src python -c "from tests.test_hotpath_equivalence import _record; _record()"
    PYTHONPATH=src python -m repro selfcheck hotpath.LbChat hotpath.SCO hotpath.DP --record
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro.core.fleet import FleetEngine
from repro.core.node import NodeConfig, VehicleNode
from repro.engine.random import spawn_rng
from repro.nn import make_driving_model
from repro.sim.dataset import DrivingDataset, Frame

EXPECTATIONS_PATH = Path(__file__).parent / "data" / "hotpath_expectations.json"

BEV_SHAPE = (5, 12, 12)
N_WAYPOINTS = 5


def _sha(*chunks: bytes) -> str:
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk)
    return h.hexdigest()


def make_synthetic_dataset(n: int = 500) -> DrivingDataset:
    rng = np.random.default_rng(0)
    return DrivingDataset(
        [
            Frame(
                f"f{i}",
                rng.normal(size=BEV_SHAPE).astype(np.float32),
                int(rng.integers(0, 4)),
                rng.normal(size=2 * N_WAYPOINTS).astype(np.float32),
                float(rng.uniform(0.5, 2.0)),
            )
            for i in range(n)
        ]
    )


def make_synthetic_node(dataset: DrivingDataset) -> VehicleNode:
    """A one-row fleet's node."""
    model = make_driving_model(BEV_SHAPE, N_WAYPOINTS, hidden=48, seed=0)
    config = NodeConfig(coreset_size=50, learning_rate=1e-3)
    member = ("bench", DrivingDataset(dataset.frames()), spawn_rng(7, "bench"))
    return FleetEngine(model, [member], config).nodes[0]


def _sample_batch_record(dataset: DrivingDataset) -> dict:
    out: dict = {}
    for label, balanced in (("balanced", True), ("plain", False)):
        rng = np.random.default_rng(123)
        idx_lists, blobs = [], []
        for _ in range(3):
            bev, commands, targets, idx = dataset.sample_batch(
                64, rng, balance_commands=balanced
            )
            idx_lists.append(np.asarray(idx).tolist())
            blobs.extend(
                np.ascontiguousarray(a).tobytes() for a in (bev, commands, targets)
            )
        out[f"{label}_idx"] = idx_lists
        out[f"{label}_digest"] = _sha(*blobs)
    return out


def _loss_record(node: VehicleNode) -> dict:
    cold = node.per_sample_losses(node.dataset)
    warm = node.per_sample_losses(node.dataset)
    out = {
        "cold_digest": _sha(np.ascontiguousarray(cold, dtype=np.float64).tobytes()),
        "warm_digest": _sha(np.ascontiguousarray(warm, dtype=np.float64).tobytes()),
        "first5": cold[:5].tolist(),
    }
    # Partial-hit path: a subset seeds the cache at a new model version,
    # then the full dataset evaluation mixes cache hits and misses.
    for _ in range(3):
        node.train_step()
    node.per_sample_losses(node.dataset.subset(range(0, len(node.dataset), 7)))
    mixed = node.per_sample_losses(node.dataset)
    out["mixed_digest"] = _sha(np.ascontiguousarray(mixed, dtype=np.float64).tobytes())
    out["evaluate"] = node.evaluate(node.dataset)
    return out


#: Small-but-busy world for the stepping golden: multiple route renewals
#: (nearest_node), car/car and car/pedestrian interactions, curb waits.
WORLD_SEGMENT_CONFIG = dict(
    map_size=400.0,
    grid_n=3,
    n_vehicles=4,
    n_background_cars=6,
    n_pedestrians=12,
    seed=5,
    min_route_length=60.0,
)


def _world_segment_record() -> dict:
    """Digest a world-stepping segment plus one dataset collection.

    Covers the simulation hot path end to end: ``World.step`` /
    ``TrafficManager.step`` neighbor queries, autopilot control, route
    renewal, snapshotting, and ``collect_fleet_datasets`` (BEV
    rendering + waypoint labelling).
    """
    from repro.sim.bev import BevSpec
    from repro.sim.dataset import collect_fleet_datasets
    from repro.sim.world import World, WorldConfig

    world = World(WorldConfig(**WORLD_SEGMENT_CONFIG))
    world.run(30.0)
    fleet = np.array(
        [
            [s.x, s.y, s.heading, s.speed]
            for snap in world.snapshots
            for s in snap.vehicle_states.values()
        ]
    )
    cars = np.vstack([snap.bg_car_positions for snap in world.snapshots])
    peds = np.vstack([snap.pedestrian_positions for snap in world.snapshots])
    out = {
        "n_snapshots": len(world.snapshots),
        "fleet_digest": _sha(np.ascontiguousarray(fleet, dtype=np.float64).tobytes()),
        "cars_digest": _sha(np.ascontiguousarray(cars, dtype=np.float64).tobytes()),
        "peds_digest": _sha(np.ascontiguousarray(peds, dtype=np.float64).tobytes()),
        "fleet_tail": fleet[-1].tolist(),
    }
    world = World(WorldConfig(**WORLD_SEGMENT_CONFIG))
    datasets = collect_fleet_datasets(
        world, 10.0, BevSpec(grid=12, cell=2.5), n_waypoints=3
    )
    blobs: list[bytes] = []
    for vid in sorted(datasets):
        bev, commands, targets, _ = datasets[vid].arrays()
        blobs.extend(
            np.ascontiguousarray(a).tobytes() for a in (bev, commands, targets)
        )
    out["collection_digest"] = _sha(*blobs)
    return out


def _record() -> None:
    """Re-record the expectations file (run on a tree whose behaviour
    is the intended baseline)."""
    dataset = make_synthetic_dataset()
    payload = {
        "sample_batch": _sample_batch_record(dataset),
        "per_sample_losses": _loss_record(make_synthetic_node(dataset)),
        "world_segment": _world_segment_record(),
    }
    EXPECTATIONS_PATH.parent.mkdir(exist_ok=True)
    EXPECTATIONS_PATH.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"recorded {EXPECTATIONS_PATH}")


@pytest.fixture(scope="module")
def expectations() -> dict:
    return json.loads(EXPECTATIONS_PATH.read_text())


class TestSampleBatchDeterminism:
    def test_matches_recorded(self, expectations):
        got = _sample_batch_record(make_synthetic_dataset())
        want = expectations["sample_batch"]
        for label in ("balanced", "plain"):
            assert got[f"{label}_idx"] == want[f"{label}_idx"], label
            assert got[f"{label}_digest"] == want[f"{label}_digest"], label


class TestPerSampleLossDeterminism:
    def test_matches_recorded(self, expectations):
        got = _loss_record(make_synthetic_node(make_synthetic_dataset()))
        want = expectations["per_sample_losses"]
        assert got["first5"] == pytest.approx(want["first5"], rel=0, abs=0)
        for key in ("cold_digest", "warm_digest", "mixed_digest"):
            assert got[key] == want[key], key
        assert got["evaluate"] == want["evaluate"]


class TestLossCacheBounded:
    """The loss cache compacts on refresh instead of growing forever.

    Pre-rewrite, ``VehicleNode`` kept one dict entry per frame id it had
    *ever* evaluated — peer coresets, validation strides, frames long
    evicted from merged/reduced coresets — so the cache grew without
    bound over a run.  Now stale-version entries are dropped on every
    coreset refresh, bounding the cache by the live frame count.
    """

    @staticmethod
    def _foreign(tag: str, rng: np.random.Generator, n: int = 40) -> DrivingDataset:
        return DrivingDataset(
            [
                Frame(
                    f"{tag}:{i}",
                    rng.normal(size=BEV_SHAPE).astype(np.float32),
                    int(rng.integers(0, 4)),
                    rng.normal(size=2 * N_WAYPOINTS).astype(np.float32),
                    1.0,
                )
                for i in range(n)
            ]
        )

    def test_cache_bounded_by_live_frames(self):
        from repro.coreset import Coreset

        node = make_synthetic_node(make_synthetic_dataset(120))
        rng = np.random.default_rng(42)
        for round_idx in range(6):
            # Churn: frames the local dataset never holds (validation
            # strides, peer-coreset evaluations) enter the cache...
            node.evaluate(self._foreign(f"val{round_idx}", rng))
            node.per_sample_losses(node.dataset.subset(range(0, len(node.dataset), 3)))
            # ...and an absorbed peer coreset grows the dataset itself.
            peer = self._foreign(f"peer{round_idx}", rng, n=20)
            node.absorb_coreset(Coreset(peer))
            node.train_step()
            node.refresh_coreset()
            assert node.loss_cache_size <= len(node.dataset)
        # The old dict would have held every id ever seen (>480 here).
        assert node.loss_cache_size == len(node.dataset)


class TestWorldSegmentDeterminism:
    """World stepping reproduces the pre-rewrite (brute-force) golden.

    The driver bank's pair scan draws a candidate superset that is then
    filtered by the exact distance test, and its batched control and
    kinematics / the batched BEV rendering compute the same elementwise
    arithmetic as the per-car loops — so stepping and collection must be
    bit-identical to the recorded O(n^2) baseline.
    """

    def test_matches_recorded(self, expectations):
        got = _world_segment_record()
        want = expectations["world_segment"]
        assert got["n_snapshots"] == want["n_snapshots"]
        assert got["fleet_tail"] == pytest.approx(want["fleet_tail"], rel=0, abs=0)
        for key in ("fleet_digest", "cars_digest", "peds_digest", "collection_digest"):
            assert got[key] == want[key], key


class TestRunMethodBitIdentity:
    """End-to-end: a seeded run reproduces the pre-rewrite golden."""

    def test_lbchat_matches_golden(self):
        from repro.experiments.runner import RunSpec, build_context, run_method
        from repro.selfcheck import GOLDEN_PATH, SEED, build_scale, digest_result

        golden = json.loads(GOLDEN_PATH.read_text())
        context = build_context(build_scale("hotpath"))
        spec = RunSpec.for_context(context, "LbChat", wireless=True, seed=SEED)
        assert digest_result(run_method(context, spec)) == golden["hotpath.LbChat"]

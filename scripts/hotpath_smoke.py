#!/usr/bin/env python
"""CI smoke test: the data-layer hot path is bit-identical to the golden run.

Runs a miniature seeded experiment (three methods that together cover
every hot code path: LbChat exercises coresets + psi maps + Eq. 8,
SCO the coreset-only path, DP the subset-evaluation path), digests the
results and the telemetry registry, and compares the digests against
the checked-in golden file recorded *before* the array-native storage
rewrite.  Any divergence in sampling order, weight arithmetic, loss
caching, or top-k selection changes a digest and fails the gate:

    PYTHONPATH=src python scripts/hotpath_smoke.py            # verify
    PYTHONPATH=src python scripts/hotpath_smoke.py --record   # re-baseline

Sits next to ``parallel_smoke.py`` (which gates pool-vs-serial
determinism); this script gates storage-rewrite determinism.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from dataclasses import replace
from pathlib import Path

from repro.blas import blas_threads, pin_blas_threads

pin_blas_threads()  # the goldens are single-thread GEMM results

import numpy as np  # noqa: E402

GOLDEN_PATH = Path(__file__).parent / "hotpath_golden.json"

#: Methods whose runs are digested; chosen to cover all hot paths.
METHODS = ("LbChat", "SCO", "DP")
SEED = 3
CURVE_POINTS = 9


def build_scale():
    from repro.experiments.configs import CI
    from repro.sim.world import WorldConfig

    return replace(
        CI,
        name="hotpath-smoke",
        world=WorldConfig(
            map_size=400.0,
            grid_n=3,
            n_vehicles=3,
            n_background_cars=2,
            n_pedestrians=5,
            seed=13,
            min_route_length=120.0,
        ),
        collect_duration=30.0,
        trace_duration=120.0,
        train_duration=40.0,
        train_interval=2.0,
        record_interval=10.0,
        coreset_size=6,
    )


def _sha(*chunks: bytes) -> str:
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk)
    return h.hexdigest()


def result_counters(counters: dict, prefix: str = "") -> dict:
    """``counters`` minus the ones that say *how* a run executed.

    The psi-probe tallies are asserted on (:func:`check_probes`), not
    digested: the goldens pin what a run computed.
    """
    from repro.core.lbchat import PROBE_COUNTERS

    skipped = {prefix + name for name in PROBE_COUNTERS}
    return {name: value for name, value in counters.items() if name not in skipped}


def check_probes(result) -> None:
    """An LbChat run must fit its psi maps on the dense probe bank."""
    builds = result.counters.get("psi_probe_builds", 0)
    fallbacks = result.counters.get("psi_probe_fallbacks", 0)
    print(f"  psi maps: {builds:.0f} dense probe builds, {fallbacks:.0f} fallbacks")
    if builds <= 0 or fallbacks != 0:
        print("SMOKE FAILED: LbChat psi maps left the dense probe path")
        raise SystemExit(1)


def digest_result(result) -> dict[str, str]:
    """Componentwise digests of one RunResult (localizes any mismatch)."""
    _, curve = result.loss_curve(CURVE_POINTS)
    counters = json.dumps(sorted(result_counters(result.counters).items()), sort_keys=True)
    params = b"".join(
        np.ascontiguousarray(node.flat_params, dtype=np.float32).tobytes()
        for node in result.nodes
    )
    dataset_state = json.dumps(
        [
            [node.dataset.ids, node.dataset.weights.tolist()]
            for node in result.nodes
        ]
    )
    coreset_state = json.dumps(
        [
            [node.coreset.data.ids, node.coreset.data.weights.tolist()]
            for node in result.nodes
        ]
    )
    return {
        "loss_curve": _sha(np.ascontiguousarray(curve, dtype=np.float64).tobytes()),
        "receive": f"{result.receive_completed}/{result.receive_attempted}",
        "counters": _sha(counters.encode()),
        "params": _sha(params),
        "datasets": _sha(dataset_state.encode()),
        "coresets": _sha(coreset_state.encode()),
    }


def digest_fleet() -> dict[str, str]:
    """Digest one batched fleet training round (gates the ISSUE 7 path).

    A four-node fleet with distinct coresets takes three lock-step
    batched steps plus one batched validation pass; the digests pin the
    per-node losses, the shared parameter bank, and the evaluation
    values, so any drift in the batched forward/backward/Adam path or
    the slot-based loss cache fails the gate.
    """
    from repro.core.fleet import FleetEngine
    from repro.core.node import NodeConfig, VehicleNode
    from repro.engine.random import spawn_rng
    from repro.nn import make_driving_model
    from repro.sim.dataset import DrivingDataset, Frame

    bev_shape, n_waypoints = (4, 8, 8), 3

    def make_dataset(seed: int, n_frames: int) -> DrivingDataset:
        rng = np.random.default_rng(seed)
        return DrivingDataset(
            [
                Frame(
                    f"s{seed}-{i}",
                    rng.normal(size=bev_shape).astype(np.float32),
                    int(rng.integers(0, 4)),
                    rng.normal(size=2 * n_waypoints).astype(np.float32),
                    float(rng.uniform(0.5, 2.0)),
                )
                for i in range(n_frames)
            ]
        )

    config = NodeConfig(coreset_size=20, learning_rate=1e-3, batch_size=16)
    nodes = [
        VehicleNode(
            f"smoke{i}",
            make_driving_model(bev_shape, n_waypoints, hidden=16, seed=i),
            make_dataset(100 + i, 40),
            config,
            spawn_rng(5, f"fleet-smoke-{i}"),
        )
        for i in range(4)
    ]
    engine = FleetEngine.try_build(nodes)
    assert engine is not None, "smoke fleet must be batchable"
    losses = [engine.train_step_all() for _ in range(3)]
    validation = make_dataset(99, 25)
    values = engine.evaluate_fleet(validation)
    params = b"".join(
        np.ascontiguousarray(node.flat_params, dtype=np.float32).tobytes()
        for node in nodes
    )
    return {
        "losses": _sha(np.asarray(losses, dtype=np.float64).tobytes()),
        "evaluate": _sha(np.ascontiguousarray(values, dtype=np.float64).tobytes()),
        "params": _sha(params),
    }


def digest_registry(session) -> str:
    state = session.registry.state()
    state["counters"] = result_counters(state["counters"], prefix="trainer.")
    payload = json.dumps(
        {kind: state[kind] for kind in ("counters", "gauges", "histograms")},
        sort_keys=True,
        default=repr,
    )
    return _sha(payload.encode())


def run_and_digest() -> dict:
    from repro.experiments.runner import RunSpec, build_context, run_method
    from repro.nn._fused import kernel_status
    from repro.telemetry import TelemetrySession

    scale = build_scale()
    adam = kernel_status()
    print(
        f"building mini world... (BLAS threads: {blas_threads()}; "
        f"FleetAdam: {adam['path']}, {adam['so'] or adam['reason']})"
    )
    context = build_context(scale)
    digests: dict = {}
    session = TelemetrySession(label="hotpath smoke")
    with session:
        for method in METHODS:
            print(f"running {method} seed={SEED}...")
            spec = RunSpec.for_context(context, method, wireless=True, seed=SEED)
            result = run_method(context, spec)
            if method == "LbChat":
                check_probes(result)
            digests[method] = digest_result(result)
    digests["telemetry"] = digest_registry(session)
    print("digesting batched fleet round...")
    digests["fleet"] = digest_fleet()
    return digests


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--record",
        action="store_true",
        help="overwrite the golden digest file with this run's digests",
    )
    args = parser.parse_args()

    digests = run_and_digest()

    if args.record:
        GOLDEN_PATH.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")
        print(f"golden digests recorded to {GOLDEN_PATH}")
        return 0

    if not GOLDEN_PATH.exists():
        print(f"no golden file at {GOLDEN_PATH}; run with --record first")
        return 1
    golden = json.loads(GOLDEN_PATH.read_text())

    failures: list[str] = []

    def check(key: str, got, want) -> None:
        ok = got == want
        print(f"  [{'ok' if ok else 'FAIL'}] {key}")
        if not ok:
            failures.append(f"{key}: got {got!r}, want {want!r}")

    for method in METHODS:
        for key in sorted(golden.get(method, digests[method])):
            check(f"{method}: {key}", digests[method][key], golden[method][key])
    check("telemetry registry", digests["telemetry"], golden["telemetry"])
    for key in sorted(golden.get("fleet", digests["fleet"])):
        check(f"fleet: {key}", digests["fleet"][key], golden["fleet"][key])

    if failures:
        print(f"\nSMOKE FAILED: {len(failures)} digest mismatch(es):")
        for failure in failures:
            print(f"  {failure}")
        return 1
    print("\nsmoke OK: results bit-identical to the golden run")
    return 0


if __name__ == "__main__":
    sys.exit(main())

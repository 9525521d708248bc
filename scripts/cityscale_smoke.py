#!/usr/bin/env python
"""CI smoke test: the city-scale machinery is bit-identical to its golden run.

Runs a miniature city experiment — a 2x2-block city map, 48 vehicles
(exactly ``SWEPT_MIN_VEHICLES``, so neighbor queries go through the
swept contact index), sharded world stepping, and the bounded
loss-cache/chat-log budgets switched on — then digests the LbChat
results and compares them against the checked-in golden file:

    PYTHONPATH=src python scripts/cityscale_smoke.py            # verify
    PYTHONPATH=src python scripts/cityscale_smoke.py --record   # re-baseline

On top of the digest gate the run asserts the structural invariants
directly: swept encounter windows equal the all-pairs reference
bit-for-bit on this world's traces, and no node's loss cache nor the
trainer's chat log ever ends the run over its configured budget.

Sits next to ``hotpath_smoke.py`` (which gates the paper-scale worlds
on the brute-force neighbor path); this script gates the city path.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))
from hotpath_smoke import _sha, blas_threads, check_probes, digest_result  # noqa: E402

GOLDEN_PATH = Path(__file__).parent / "cityscale_golden.json"

SEED = 3
RADIO_RADIUS = 500.0  # TrainerConfig.max_range, the scan radius


def build_scale():
    """A pocket-sized city via the ``ExperimentScale.derived`` API."""
    from repro.experiments.configs import CITY

    return CITY.derived(
        "cityscale-smoke",
        world=dict(
            map_size=900.0,
            grid_n=3,
            n_vehicles=48,
            n_background_cars=6,
            n_pedestrians=12,
            seed=13,
            min_route_length=100.0,
            n_districts=4,
            city_blocks=2,
            shard_stepping=True,
        ),
        collect_duration=20.0,
        trace_duration=100.0,
        train_duration=30.0,
        train_interval=5.0,
        record_interval=10.0,
        coreset_size=8,
        batch_size=16,
        eval_normal_cars=6,
        eval_normal_pedestrians=10,
        loss_cache_budget=64,
        chat_log_budget=16,
    )


def digest_contacts(context) -> dict[str, str]:
    """Pin the swept contact index and prove it equals the reference."""
    import numpy as np

    from repro.net.sweep import pairwise_encounters
    from repro.sim.traces import SWEPT_MIN_VEHICLES

    traces = context.traces
    n = traces.positions.shape[1]
    assert n >= SWEPT_MIN_VEHICLES, (
        f"smoke world has {n} vehicles; needs >= {SWEPT_MIN_VEHICLES} "
        "so neighbor queries exercise the swept index"
    )
    windows = traces.contact_index(RADIO_RADIUS).windows
    reference = pairwise_encounters(traces.positions, RADIO_RADIUS)
    assert windows.to_tuples() == reference.to_tuples(), (
        "swept encounter windows diverge from the all-pairs reference"
    )
    packed = np.concatenate(
        [windows.pair_i, windows.pair_j, windows.start, windows.end]
    )
    return {
        "n_windows": str(len(windows)),
        "windows": _sha(np.ascontiguousarray(packed, dtype=np.int64).tobytes()),
    }


def check_budgets(scale, result) -> None:
    """The bounded caches must never end the run over budget."""
    for node in result.nodes:
        assert node.loss_cache_size <= scale.loss_cache_budget, (
            f"{node.node_id}: loss cache {node.loss_cache_size} over "
            f"budget {scale.loss_cache_budget}"
        )
    log = result.trainer.chat_log
    assert len(log) <= scale.chat_log_budget, (
        f"chat log {len(log)} over budget {scale.chat_log_budget}"
    )
    print(
        f"budgets OK: loss caches <= {scale.loss_cache_budget}, "
        f"chat log {len(log)}/{scale.chat_log_budget} "
        f"({log.dropped} dropped)"
    )


def run_and_digest() -> dict:
    from repro.experiments.runner import RunSpec, build_context, run_method

    scale = build_scale()
    print(
        "building mini city world (2x2 blocks, 48 vehicles)... "
        f"(BLAS threads: {blas_threads()})"
    )
    context = build_context(scale)
    digests: dict = {"contacts": digest_contacts(context)}
    print(f"running LbChat seed={SEED}...")
    spec = RunSpec.for_context(context, "LbChat", wireless=True, seed=SEED)
    result = run_method(context, spec)
    check_budgets(scale, result)
    check_probes(result)
    digests["LbChat"] = digest_result(result)
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
    for section in sorted(golden):
        for key in sorted(golden[section]):
            got, want = digests[section][key], golden[section][key]
            ok = got == want
            print(f"  [{'ok' if ok else 'FAIL'}] {section}: {key}")
            if not ok:
                failures.append(f"{section}.{key}: got {got!r}, want {want!r}")

    if failures:
        print(f"\nSMOKE FAILED: {len(failures)} digest mismatch(es):")
        for failure in failures:
            print(f"  {failure}")
        return 1
    print("\nsmoke OK: city-scale results bit-identical to the golden run")
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python
"""CI smoke test: within-run step sharding is bit-identical to serial.

Runs the miniature hotpath-smoke experiment three times — serially,
with 2 step workers, and with 4 — and requires every digest (loss
curves, receive rates, counters, trained parameters, dataset and
coreset state) to be byte-equal across all three.  Sharding the
fleet's batched training step across worker processes is a pure
execution strategy; any divergence anywhere fails the gate.  The
serial digest is additionally pinned against a checked-in golden file
so the gate also catches drift that hits every worker count equally:

    PYTHONPATH=src python scripts/stepshard_smoke.py            # verify
    PYTHONPATH=src python scripts/stepshard_smoke.py --record   # re-baseline

The sharded runs execute inside a telemetry session and must show the
worker pool actually stepping (``stepshard.steps`` > 0) — a silently
engaged serial fallback would make the equality vacuous.

Sits next to ``parallel_smoke.py`` (run-level pool determinism) and
``hotpath_smoke.py`` (data-layer determinism); this script gates
step-level sharding determinism.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))
from hotpath_smoke import build_scale as _hotpath_scale  # noqa: E402
from hotpath_smoke import blas_threads, digest_result  # noqa: E402

GOLDEN_PATH = Path(__file__).parent / "stepshard_golden.json"

SEED = 3
WORKER_COUNTS = (2, 4)


def build_scale():
    """The hotpath-smoke world with a batch size its datasets can fill.

    The pool only takes over full batches (``b == batch_size``); the
    hotpath scale's batch of 64 exceeds what its 30s collection window
    yields, which would leave every step on the serial path and make
    this gate vacuous.
    """
    from dataclasses import replace

    return replace(_hotpath_scale(), name="stepshard-smoke", batch_size=16)


def run_digest(context, step_workers: int) -> dict[str, str]:
    from repro.experiments.runner import RunSpec, run_method
    from repro.telemetry.hooks import TelemetrySession

    overrides = {"step_workers": step_workers} if step_workers != 1 else {}
    spec = RunSpec.for_context(context, "LbChat", seed=SEED, overrides=overrides)
    with TelemetrySession() as session:
        result = run_method(context, spec)
        counters = session.registry.state()["counters"]
    if step_workers > 1:
        stepped = counters.get("stepshard.steps", 0.0)
        assert stepped > 0, (
            f"step_workers={step_workers} never engaged the worker pool "
            "(serial fallback ran instead) — the equality gate is vacuous"
        )
        print(f"  pool engaged: {int(stepped)} sharded steps")
    return digest_result(result)


def run_and_digest() -> dict:
    from repro.experiments.runner import build_context

    scale = build_scale()
    print(f"building smoke world (3 vehicles, batch 16)... (BLAS threads: {blas_threads()})")
    context = build_context(scale)
    print("running LbChat serially...")
    serial = run_digest(context, 1)
    for workers in WORKER_COUNTS:
        print(f"running LbChat with step_workers={workers}...")
        sharded = run_digest(context, workers)
        mismatched = [key for key in serial if sharded[key] != serial[key]]
        assert not mismatched, (
            f"step_workers={workers} diverged from serial: {mismatched}"
        )
        print(f"  bit-identical to serial ({len(serial)} digests)")
    return {"LbChat": serial}


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
    print("\nsmoke OK: sharded stepping bit-identical to serial and to golden")
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python
"""CI smoke test: overlapped chat transfers are deterministic and inert when off.

Three gates on the hotpath-smoke world with a doubled training horizon
(so second-round chats pick psi > 0 and actually launch flights):

1. ``--overlap-chat`` **off** digests match the pinned flag-off golden —
   the overlap subsystem must be invisible when disabled (the cross-PR
   guarantee; bit-identity against the pre-overlap tree is gated by
   ``hotpath_smoke.py``, whose golden predates this subsystem).
2. ``--overlap-chat`` **on** digests match the pinned flag-on golden —
   the overlapped protocol itself (plan phase, dense psi probes,
   background flights, commit barriers) is deterministic.
3. The overlap-on run interrupted at every barrier — including barriers
   with a transfer in the air — resumes bit-identically (no golden
   needed; the uninterrupted run is the reference).

    PYTHONPATH=src python scripts/overlap_smoke.py            # verify
    PYTHONPATH=src python scripts/overlap_smoke.py --record   # re-baseline
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from dataclasses import replace
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))
from hotpath_smoke import build_scale as hotpath_scale
from hotpath_smoke import blas_threads, digest_result

GOLDEN_PATH = Path(__file__).parent / "overlap_golden.json"
SEED = 3
CHECKPOINT_EVERY = 10.0


def build_scale():
    # A four-vehicle world trained past the 60 s pair cooldown twice:
    # first-round chats agree (psi = 0, plan-terminal); later rounds
    # diverge enough that Eq. 7 ships models as background flights.
    from repro.sim.world import WorldConfig

    return replace(
        hotpath_scale(),
        name="overlap-smoke",
        world=WorldConfig(
            map_size=400.0,
            grid_n=3,
            n_vehicles=4,
            n_background_cars=4,
            n_pedestrians=10,
            seed=11,
            min_route_length=120.0,
        ),
        collect_duration=60.0,
        trace_duration=240.0,
        train_duration=180.0,
        record_interval=20.0,
        coreset_size=10,
    )


class MemorySaver:
    """Collects barrier snapshots in memory (no run-dir machinery)."""

    def __init__(self):
        from repro.checkpoint.policy import CheckpointPolicy

        self.policy = CheckpointPolicy(every=CHECKPOINT_EVERY)
        self.states: dict[int, dict] = {}

    def schedule(self, trainer) -> None:
        for index, when in self.policy.barriers(trainer.config.duration):
            if when <= trainer.sim.now:
                continue
            trainer.sim.call_at(when, functools.partial(self._save, trainer, index))

    def _save(self, trainer, index: int) -> None:
        self.states[index] = trainer.checkpoint_barrier(index)


def run_and_digest() -> tuple[dict, dict[int, dict], object]:
    """Digests for both flag states plus the flag-on barrier snapshots."""
    from repro.experiments.runner import RunSpec, build_context, run_method

    scale = build_scale()
    print(f"building mini world... (BLAS threads: {blas_threads()})")
    context = build_context(scale)
    digests: dict = {}
    print("running LbChat, overlap off...")
    spec_off = RunSpec.for_context(context, "LbChat", wireless=True, seed=SEED)
    digests["flag_off"] = digest_result(run_method(context, spec_off))
    print("running LbChat, overlap on...")
    spec_on = RunSpec.for_context(
        context, "LbChat", wireless=True, seed=SEED,
        overrides={"overlap_chat": True},
    )
    result_on = run_method(context, spec_on)
    trainer = result_on.trainer
    if trainer.receive_rate.attempted == 0:
        print("SMOKE FAILED: overlap-on run launched no model transfers")
        raise SystemExit(1)
    digests["flag_on"] = digest_result(result_on)
    return digests, context, (spec_off, spec_on)


def check_resume(context, spec_on) -> list[str]:
    """Interrupt the overlap-on run at each barrier; digests must match."""
    from repro.experiments.runner import prepare_trainer

    def trainer_digest(trainer):
        import hashlib

        import numpy as np

        h = hashlib.sha256()
        for node in trainer.nodes:
            h.update(np.ascontiguousarray(node.flat_params, np.float32).tobytes())
            h.update(json.dumps(node.dataset.ids).encode())
        h.update(json.dumps(sorted(trainer.counters.snapshot().items())).encode())
        h.update(json.dumps(trainer.receive_rate.snapshot(), sort_keys=True).encode())
        return h.hexdigest()

    _, reference = prepare_trainer(context, spec_on)
    saver = MemorySaver()
    reference.run(checkpointer=saver)
    want = trainer_digest(reference)

    # Resuming from every barrier would re-run most of the horizon many
    # times over; the interesting barriers are the ones holding a
    # transfer in the air (capped) plus one quiescent control.
    with_flights = [
        b for b, s in sorted(saver.states.items())
        if s.get("overlap", {}).get("flights")
    ]
    without = [b for b in sorted(saver.states) if b not in with_flights]
    chosen = with_flights[:2] + with_flights[2:][-1:] + without[:1]

    failures: list[str] = []
    if not with_flights:
        failures.append("no barrier held an in-flight transfer; gate is vacuous")
    for barrier in sorted(chosen):
        state = saver.states[barrier]
        _, resumed = prepare_trainer(context, spec_on)
        resumed.restore(state)
        resumed.run(checkpointer=MemorySaver())
        ok = trainer_digest(resumed) == want
        flights = len(state.get("overlap", {}).get("flights", ()))
        print(f"  [{'ok' if ok else 'FAIL'}] resume from barrier {barrier} "
              f"({flights} transfer(s) in flight)")
        if not ok:
            failures.append(f"resume from barrier {barrier} diverged")
    return failures


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--record",
        action="store_true",
        help="overwrite the golden digest file with this run's digests",
    )
    args = parser.parse_args()

    digests, context, (spec_off, spec_on) = run_and_digest()

    if args.record:
        GOLDEN_PATH.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")
        print(f"golden digests recorded to {GOLDEN_PATH}")
        failures = check_resume(context, spec_on)
    else:
        if not GOLDEN_PATH.exists():
            print(f"no golden file at {GOLDEN_PATH}; run with --record first")
            return 1
        golden = json.loads(GOLDEN_PATH.read_text())
        failures = []
        for flag in ("flag_off", "flag_on"):
            for key in sorted(golden[flag]):
                ok = digests[flag][key] == golden[flag][key]
                print(f"  [{'ok' if ok else 'FAIL'}] {flag}: {key}")
                if not ok:
                    failures.append(
                        f"{flag}.{key}: got {digests[flag][key]!r}, "
                        f"want {golden[flag][key]!r}"
                    )
        print("checking barrier resume with transfers in flight...")
        failures += check_resume(context, spec_on)

    if failures:
        print(f"\nSMOKE FAILED: {len(failures)} problem(s):")
        for failure in failures:
            print(f"  {failure}")
        return 1
    print("\nsmoke OK: overlap deterministic, inert when off, resumable in flight")
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python
"""CI smoke test: kill a checkpointed run at a barrier, resume, compare.

Exercises the full crash-recovery story end to end, across a real
process boundary:

1. run a miniature checkpointed LbChat experiment uninterrupted
   (the reference),
2. run the same spec in a child process with the kill-at-barrier env
   knobs set, so the child ``os._exit(3)``\\ s the instant its barrier-2
   snapshot commits,
3. resume the orphaned run directory in this process via
   :func:`repro.checkpoint.resume_run_dir` (the same entry point the
   ``repro resume`` CLI verb uses),
4. compare componentwise digests of the resumed run against the
   reference — they must be bit-identical — and check the run's event
   log recorded the crash-shaped history (saves, a resume, completion).

Sits next to ``hotpath_smoke.py`` (storage determinism) and
``parallel_smoke.py`` (pool determinism); this script gates
checkpoint/restore determinism:

    PYTHONPATH=src python scripts/checkpoint_smoke.py
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

CHECKPOINT_EVERY = 10.0
KILL_AT = 2
METHOD = "LbChat"
SEED = 3


def build_scale():
    from repro.experiments.configs import CI
    from repro.sim.world import WorldConfig

    return replace(
        CI,
        name="checkpoint-smoke",
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
        train_duration=40.0,  # barriers at t=10/20/30
        train_interval=2.0,
        record_interval=10.0,
        coreset_size=6,
    )


def make_spec(context, store_dir: Path):
    from repro.experiments.runner import RunSpec

    return RunSpec.for_context(
        context,
        METHOD,
        wireless=True,
        seed=SEED,
        checkpoint_every=CHECKPOINT_EVERY,
        checkpoint_dir=str(store_dir),
    )


def run_child(store_dir: Path) -> int:
    """Child mode: run the spec; the kill env knobs end us at a barrier."""
    from repro.experiments.runner import build_context, run_method

    context = build_context(build_scale())
    run_method(context, make_spec(context, store_dir))
    print("child: kill hook never fired", file=sys.stderr)
    return 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--child", metavar="STORE_DIR", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.child:
        return run_child(Path(args.child))

    from hotpath_smoke import digest_result

    from repro.checkpoint import RunStore, resume_run_dir
    from repro.checkpoint.policy import KILL_BARRIER_ENV
    from repro.experiments.runner import build_context, run_method

    root = Path(tempfile.mkdtemp(prefix="checkpoint-smoke-"))
    print("building mini world...")
    context = build_context(build_scale())

    print(f"running uninterrupted {METHOD} reference...")
    reference = run_method(context, make_spec(context, root / "reference"))

    print(f"running child to be killed at barrier {KILL_AT}...")
    crash_store = root / "crashed"
    child = subprocess.run(
        [sys.executable, __file__, "--child", str(crash_store)],
        env={**os.environ, KILL_BARRIER_ENV: str(KILL_AT)},
    )
    if child.returncode != 3:
        print(f"SMOKE FAILED: child exited {child.returncode}, expected 3")
        return 1

    store = RunStore(crash_store)
    spec = make_spec(context, crash_store)
    run_dir = store.run_dir(spec)
    saved = store.barriers(spec)
    if saved != list(range(1, KILL_AT + 1)):
        print(f"SMOKE FAILED: crashed store holds barriers {saved}")
        return 1
    if (run_dir / "done.json").exists():
        print("SMOKE FAILED: crashed run is marked done")
        return 1

    print(f"resuming {run_dir}...")
    resumed = resume_run_dir(run_dir)

    failures: list[str] = []
    want, got = digest_result(reference), digest_result(resumed)
    for key in sorted(want):
        ok = got[key] == want[key]
        print(f"  [{'ok' if ok else 'FAIL'}] {key}")
        if not ok:
            failures.append(f"{key}: got {got[key]!r}, want {want[key]!r}")

    # The crash-shaped history: the child saved barriers 1 and 2, the
    # parent resumed once from barrier 2 and re-saved 3.
    events = [event["event"] for event in store.events(spec)]
    history_ok = events.count("resumed") == 1 and events.count("saved") == 3
    print(f"  [{'ok' if history_ok else 'FAIL'}] event log records a resume")
    if not history_ok:
        failures.append(f"event log {events} lacks the crash-shaped history")
    for event in store.events(spec):
        if event["event"] == "saved":
            print(
                f"       barrier {event['barrier']}: {event['npz_bytes']} B on disk of "
                f"{event['raw_bytes']} B raw, {event['stored']} members stored, "
                f"{event['deflated']} deflated"
            )
    leftovers = sorted(path.name for path in run_dir.glob("*.tmp"))
    print(f"  [{'FAIL' if leftovers else 'ok'}] no temp file survives the kill/resume cycle")
    if leftovers:
        failures.append(f"temp files left in {run_dir}: {leftovers}")
    done_ok = (run_dir / "done.json").exists()
    print(f"  [{'ok' if done_ok else 'FAIL'}] resumed run marked done")
    if not done_ok:
        failures.append("resumed run left no done marker")

    if failures:
        print(f"\nSMOKE FAILED: {len(failures)} mismatch(es):")
        for failure in failures:
            print(f"  {failure}")
        return 1
    print("\nsmoke OK: resumed run bit-identical to the uninterrupted run")
    return 0


if __name__ == "__main__":
    sys.exit(main())

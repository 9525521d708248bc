"""Restore-and-continue entry points.

:func:`run_with_checkpoints` is the checkpoint-aware twin of
``run_method``: it builds the trainer, restores the newest verified
checkpoint when one exists, arms the barrier schedule, and runs to
completion.  ``run_method`` delegates here whenever the spec carries a
``checkpoint_every``, which means both the CLI (``repro run
--checkpoint-every``) and the parallel pool's crash-retry path resume
automatically — a retried job picks up from the latest barrier instead
of recomputing from virtual time zero.

:func:`resume_run_dir` is the ``repro resume <run-dir>`` verb: it
rebuilds the spec from the run directory's ``run.json`` and continues.

This module imports the experiment stack, so ``repro.checkpoint``
loads it lazily (see the package ``__getattr__``).
"""

from __future__ import annotations

from dataclasses import replace
from pathlib import Path

from repro.checkpoint.format import CheckpointError, spec_from_payload
from repro.checkpoint.policy import CheckpointPolicy, Checkpointer
from repro.checkpoint.store import DEFAULT_CHECKPOINT_ROOT, RunStore

__all__ = ["run_with_checkpoints", "resume_run_dir", "load_spec"]


def run_with_checkpoints(context, spec, store: RunStore | None = None):
    """Run ``spec`` with barrier checkpointing, resuming when possible.

    Returns the same ``RunResult`` the uninterrupted ``run_method`` call
    would have produced, bit-identically — whether the run started
    fresh, resumed once, or resumed many times.
    """
    from repro.experiments.runner import RunResult, prepare_trainer

    if spec.checkpoint_every is None:
        raise CheckpointError(f"spec {spec.label!r} has no checkpoint_every")
    if store is None:
        store = RunStore(spec.checkpoint_dir or DEFAULT_CHECKPOINT_ROOT)
    nodes, trainer = prepare_trainer(context, spec)
    store.ensure_run(spec, step_shards=len(trainer.fleet.shards))
    policy = CheckpointPolicy(every=float(spec.checkpoint_every))
    state = store.latest_checkpoint(spec)
    if state is not None:
        trainer.restore(state)
        store.log_resumed(spec, int(state["barrier"]), trainer.sim.now)
    trainer.run(checkpointer=Checkpointer(spec, store, policy))
    store.mark_done(spec, trainer.sim.now)
    return RunResult.from_trainer(spec, trainer, nodes)


def load_spec(run_dir: str | Path):
    """Rebuild the RunSpec recorded in a run directory's ``run.json``."""
    import json

    run_json = Path(run_dir) / "run.json"
    if not run_json.exists():
        raise CheckpointError(f"not a checkpoint run directory: {run_dir}")
    payload = json.loads(run_json.read_text())
    return spec_from_payload(
        payload["spec"], checkpoint_dir=str(Path(run_dir).resolve().parent)
    )


def resume_run_dir(run_dir: str | Path, step_workers: int | None = None):
    """Continue the run stored in ``run_dir`` (the ``repro resume`` verb).

    The run continues as what it recorded.  ``step_workers`` alone can
    be overridden for the continuation — results are bit-identical for
    every value (and the run-dir fingerprint excludes it), so a run
    checkpointed serially can finish sharded and vice versa.
    """
    from repro.parallel.worker import resolve_context

    spec = load_spec(run_dir)
    if step_workers is not None:
        overrides = dict(spec.overrides)
        overrides["step_workers"] = int(step_workers)
        spec = replace(spec, overrides=overrides)
    context = resolve_context(spec)
    return run_with_checkpoints(
        context, spec, store=RunStore(Path(run_dir).resolve().parent)
    )

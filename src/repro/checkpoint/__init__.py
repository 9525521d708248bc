"""Snapshot/restore subsystem for long-horizon runs.

A *checkpoint* is a full snapshot of a live training run taken at a
virtual-time barrier: every vehicle node (model parameters, optimizer
moments, dataset, coreset, loss cache, generator state — datasets as
rows and weights, their frames once for the fleet in a
:class:`~repro.checkpoint.state.FrameTable`), every metric recorder, the
trainers' externalized timer state and generators, and the active
telemetry registry.
Restoring a checkpoint into a freshly built trainer and continuing
produces results **bit-identical** to the uninterrupted run.

The design rests on three invariants:

1. *Snapshots happen before any same-instant events.*  Barrier
   callbacks are scheduled before any process timer, so ties at the
   barrier instant always dispatch the snapshot first.
2. *Every RNG generator's state is saved.*  A snapshot holds each
   generator's ``bit_generator.state`` and a restore puts it back;
   nothing is re-derived at a barrier.  Taking a snapshot is a pure
   read, so checkpointing never changes a run: a checkpointed run
   equals the same spec run without checkpoints.
3. *Pending timers are re-armed from absolute times.*  Generator
   processes cannot be pickled; instead each trainer externalizes its
   loop state (next train/scan/record/round times) and re-creates its
   generators on resume, re-armed with
   :meth:`~repro.engine.events.Simulator.wait_until` in the original
   heap tie-break order.

Modules: :mod:`~repro.checkpoint.state` (state tree flattening and the
frame table), :mod:`~repro.checkpoint.store` (atomic, versioned,
content-fingerprinted on-disk run store: the npz's member table — each
member's name, sizes and CRC-32 — is the fingerprint, so a barrier and
a resume each pass over the file once), :mod:`~repro.checkpoint.policy`
(barrier scheduling), :mod:`~repro.checkpoint.format` (format version,
errors, spec payloads), :mod:`~repro.checkpoint.resume`
(restore-and-continue entry points — imported lazily to avoid an import
cycle with the experiment stack).
"""

from repro.checkpoint.format import (
    FORMAT_VERSION,
    CheckpointCorruptError,
    CheckpointError,
    CheckpointVersionError,
    spec_fingerprint,
    spec_from_payload,
    spec_payload,
)
from repro.checkpoint.policy import CheckpointPolicy, Checkpointer
from repro.checkpoint.state import (
    FrameTable,
    flatten_state,
    unflatten_state,
)
from repro.checkpoint.store import DEFAULT_CHECKPOINT_ROOT, RunStore

__all__ = [
    "FORMAT_VERSION",
    "CheckpointError",
    "CheckpointCorruptError",
    "CheckpointVersionError",
    "CheckpointPolicy",
    "Checkpointer",
    "DEFAULT_CHECKPOINT_ROOT",
    "RunStore",
    "FrameTable",
    "flatten_state",
    "unflatten_state",
    "spec_payload",
    "spec_fingerprint",
    "spec_from_payload",
    "run_with_checkpoints",
    "resume_run_dir",
    "load_spec",
]


def __getattr__(name: str):
    # resume.py imports the experiment stack; loading it lazily keeps
    # ``repro.checkpoint`` importable from inside repro.core modules.
    if name in ("run_with_checkpoints", "resume_run_dir", "load_spec"):
        from repro.checkpoint import resume

        return getattr(resume, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

"""Checkpoint scheduling: every-N-virtual-seconds barriers as engine events.

The :class:`Checkpointer` turns a :class:`CheckpointPolicy` into
``Simulator.call_at`` callbacks, one per barrier.  Scheduling happens
*before* the trainer creates its processes, so at each barrier instant
the snapshot callback holds a lower sequence number than every timer
event and always dispatches first — state is captured before any
same-instant training work (invariant 1 in :mod:`repro.checkpoint`).

For crash-injection testing, two environment knobs mirror the parallel
pool's crash hooks: ``REPRO_CHECKPOINT_KILL_BARRIER`` hard-kills the
process (``os._exit(3)``) right after the named barrier's checkpoint is
committed, and ``REPRO_CHECKPOINT_KILL_FLAG`` optionally names a flag
file consumed atomically so only one process (one pool attempt) dies.
"""

from __future__ import annotations

import functools
import os
from dataclasses import dataclass

from repro.checkpoint.store import RunStore

__all__ = ["CheckpointPolicy", "Checkpointer", "KILL_BARRIER_ENV", "KILL_FLAG_ENV"]

KILL_BARRIER_ENV = "REPRO_CHECKPOINT_KILL_BARRIER"
KILL_FLAG_ENV = "REPRO_CHECKPOINT_KILL_FLAG"


@dataclass(frozen=True)
class CheckpointPolicy:
    """Checkpoint every ``every`` virtual seconds, keeping ``keep`` newest."""

    every: float
    keep: int = 3

    def __post_init__(self) -> None:
        if not self.every > 0:
            raise ValueError(f"checkpoint interval must be positive: {self.every}")
        if self.keep < 1:
            raise ValueError(f"keep must be >= 1: {self.keep}")

    def barriers(self, duration: float) -> list[tuple[int, float]]:
        """``(index, virtual_time)`` barriers strictly inside ``duration``.

        A barrier at exactly ``duration`` would snapshot a finished run,
        so the last barrier is the largest multiple of ``every`` that is
        strictly less than ``duration``.
        """
        out = []
        k = 1
        while k * self.every < duration:
            out.append((k, k * self.every))
            k += 1
        return out


class Checkpointer:
    """Saves a trainer's state at policy barriers during ``trainer.run()``."""

    def __init__(self, spec, store: RunStore, policy: CheckpointPolicy):
        self.spec = spec
        self.store = store
        self.policy = policy
        self.saved: list[int] = []

    def schedule(self, trainer) -> None:
        """Arm one ``call_at`` per remaining barrier.

        Must run before the trainer creates its processes (see module
        docstring).  Barriers at or before the current clock are skipped:
        on resume the restore barrier is already on disk, written by the
        previous incarnation.
        """
        start = trainer.sim.now
        for index, when in self.policy.barriers(trainer.config.duration):
            if when <= start:
                continue
            trainer.sim.call_at(
                when, functools.partial(self._on_barrier, trainer, index)
            )

    def _on_barrier(self, trainer, index: int) -> None:
        state = trainer.checkpoint_barrier(index)
        self.store.save_checkpoint(self.spec, state, keep=self.policy.keep)
        self.saved.append(index)
        self._maybe_kill(index)

    def _maybe_kill(self, index: int) -> None:
        if os.environ.get(KILL_BARRIER_ENV) != str(index):
            return
        flag = os.environ.get(KILL_FLAG_ENV)
        if flag is not None:
            try:
                os.unlink(flag)  # one-shot: only the first taker dies
            except FileNotFoundError:
                return
        os._exit(3)

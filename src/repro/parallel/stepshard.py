"""Within-run parallel fleet stepping: contiguous bank-row shards on threads.

The run-level pool (:mod:`repro.parallel.pool`) shards *across*
independent runs; this module shards *within* one run.  Between contact
events every vehicle trains its own model alone, and
:class:`~repro.core.fleet.FleetEngine` runs the whole fleet's
forward/backward/Adam as batched per-layer ops that are independent per
leading (node) index.  So a step splits into **contiguous bank-row
ranges**, each a :class:`StepShard`: a :class:`~repro.nn.bank.
FleetWaypointNet` and a :class:`~repro.nn.bank.FleetAdam` over *views*
of its rows (:meth:`ParamBank.slice_rows`), built once at the fleet's
birth.  A shard reads the stacked minibatch and writes its own rows of
the banks and of the loss vector — the merge is the memory itself.

:func:`run_shards` runs shard 0 on the calling thread and the others on
a thread pool opened for that one call and joined before it returns, so
no thread outlives a step (nothing is live when ``run_specs`` forks);
a chat's stage 3 runs its two sides through it the same way.
The time goes to numpy's GEMMs and the ctypes Adam kernel, both of which
release the GIL, so the shards use as many cores as there are shards.

Determinism is structural, not numerical luck: each shard draws its
own rows' minibatches, each from the node's own RNG stream and dataset
(no two rows share either; :class:`~repro.core.fleet.FleetEngine`
refuses it at birth), and every batched op reduces along non-row axes
only, in the same GEMM shape per row whatever a shard's height.  Row
``r`` sees the same float ops on the same operands whether it is stepped
by the only shard or by shard 3 of 4, so run results are
**bit-identical for every shard count** — the ``stepshard.*`` rows of
``repro selfcheck`` and :mod:`tests.test_stepshard` enforce it.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from repro.blas import blas_threads
from repro.nn.losses import fleet_waypoint_l1

__all__ = ["StepShard", "default_step_shards", "partition_rows", "run_shards", "usable_cores"]


def usable_cores() -> int:
    """The CPUs this process may run on (its affinity mask, not the host's count)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity API on this platform
        return os.cpu_count() or 1


def default_step_shards() -> int:
    """Row shards a fleet steps in when none are asked for.

    One per usable core, over the GEMM threads each shard's BLAS calls
    already spread across (a BLAS not pinned to one thread).
    """
    return max(1, usable_cores() // (blas_threads() or 1))


def partition_rows(n_rows: int, n_workers: int) -> list[tuple[int, int]]:
    """Contiguous ``[lo, hi)`` row ranges, sizes differing by at most 1.

    The shard count is clamped to ``n_rows`` so no shard is ever empty;
    partitioning is deterministic in (n_rows, n_workers).
    """
    if n_rows <= 0:
        raise ValueError(f"need at least one row: {n_rows}")
    if n_workers <= 0:
        raise ValueError(f"need at least one worker: {n_workers}")
    n_workers = min(n_workers, n_rows)
    base, extra = divmod(n_rows, n_workers)
    ranges = []
    lo = 0
    for w in range(n_workers):
        hi = lo + base + (1 if w < extra else 0)
        ranges.append((lo, hi))
        lo = hi
    return ranges


class StepShard:
    """One contiguous slice of the fleet's rows: its net and its optimizer."""

    def __init__(self, lo: int, hi: int, model, optim):
        self.lo = lo
        self.hi = hi
        self.model = model  # FleetWaypointNet over bank rows [lo, hi)
        self.optim = optim  # FleetAdam over the same rows

    def run_step(self, bev, commands, targets, losses) -> None:
        """One batched step over this shard's rows of the stacked minibatch."""
        lo, hi = self.lo, self.hi
        pred = self.model.forward(bev[lo:hi], commands[lo:hi])
        scalars, _, grad = fleet_waypoint_l1(pred, targets[lo:hi])
        # Backward *assigns* gradients into the bank rows; the optimizer
        # updates parameters and moments in place.  Writing the loss
        # vector completes the shard — there is no merge step.
        self.model.backward(grad)
        self.optim.step()
        losses[lo:hi] = scalars

    def evaluate(self, bev, commands, targets, chunk: int, out: np.ndarray) -> None:
        """This shard's rows of ``out``: every frame's L1 loss, one shared
        batch broadcast against the rows, ``chunk`` frames per forward."""
        rows = out[self.lo : self.hi]
        for start in range(0, len(targets), chunk):
            sl = slice(start, start + chunk)
            pred = self.model.forward(bev[sl], commands[sl])
            rows[:, sl] = np.abs(pred - targets[sl]).mean(axis=2)


def run_shards(shards, work) -> list:
    """``work(shard)`` for every shard, concurrently; their results, in order.

    Shard 0 runs on the calling thread, the rest on threads that live
    for this call only.  An exception in any shard is raised here once
    every shard has stopped; the rows it had yet to write are stale, so
    there is nothing to fall back to.  A "shard" is any work item: a
    chat's two sides (:func:`repro.core.chat.negotiate`) run through
    here too.
    """
    first, *rest = shards
    if not rest:
        return [work(first)]
    with ThreadPoolExecutor(max_workers=len(rest)) as pool:
        futures = [pool.submit(work, shard) for shard in rest]
        results = [work(first)]
    return results + [future.result() for future in futures]

"""Within-run parallel fleet stepping: contiguous bank-row shards on threads.

The run-level pool (:mod:`repro.parallel.pool`) shards *across*
independent runs; this module shards *within* one run.  Between contact
events every vehicle trains its own model alone, and
:class:`~repro.core.fleet.FleetEngine` runs the whole fleet's
forward/backward/Adam as batched per-layer ops that are independent per
leading (node) index.  So a step splits into **contiguous bank-row
ranges**, each a :class:`StepShard`, one per worker thread.

A shard steps its rows in **row blocks**: the fewest equal ranges
(:func:`partition_rows`) whose scratch — the block's gradient rows and
its stacked ``(block, batch, ...)`` minibatch — fits in
:data:`_BLOCK_BYTES`.  The scratch is the worker's,
allocated once at the fleet's birth to its tallest block and reused by
each block in turn: draw the block's minibatches into it, forward,
loss, backward, Adam.  Each block has a
:class:`~repro.nn.bank.FleetWaypointNet` and a :class:`~repro.nn.bank.
FleetAdam` over *views* of its bank rows and of that scratch
(:meth:`ParamBank.slice_rows`), built once with the shard.  A block
writes its own rows of the banks and of the loss vector — the merge is
the memory itself — so the fleet holds no gradient or minibatch array
of its own height: at paper scale (32 rows, two workers) each worker
steps two blocks of 8 rows in 10.7 MB of scratch, where a fleet-height
gradient array and minibatch would take 42.7 MB.

:func:`run_shards` runs shard 0 on the calling thread and the others on
a thread pool opened for that one call and joined before it returns, so
no thread outlives a step (nothing is live when ``run_specs`` forks);
a chat's stage 3 runs its two sides through it the same way.
The time goes to numpy's GEMMs and the ctypes Adam kernel, both of which
release the GIL, so the shards use as many cores as there are shards.

Determinism is structural, not numerical luck: each block draws its
own rows' minibatches, each from the node's own RNG stream and dataset
(no two rows share either; :class:`~repro.core.fleet.FleetEngine`
refuses it at birth), and every batched op reduces along non-row axes
only, in the same GEMM shape per row whatever a block's or a shard's
height; Adam is elementwise.  Row ``r`` sees the same float ops on the
same operands whether it is stepped by the only shard in one block or
by shard 3 of 4 in a block of one, so run results are **bit-identical
for every shard count and block height** — the ``stepshard.*`` rows of
``repro selfcheck`` and :mod:`tests.test_stepshard` enforce it.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from typing import NamedTuple

import numpy as np

from repro.blas import blas_threads
from repro.nn.bank import FleetAdam, FleetWaypointNet
from repro.nn.losses import fleet_waypoint_l1

__all__ = [
    "RowBlock",
    "StepShard",
    "default_step_shards",
    "partition_rows",
    "run_shards",
    "usable_cores",
]


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


#: Bytes of training scratch one worker holds: a row block's gradient
#: rows plus its stacked minibatch.  A paper row takes 1.34 MB (205 288
#: float32 gradients and 64 frames of 5x20x20), so 16 rows step as two
#: blocks of 8 and a tiny-model world's shard stays one block.  Fewer,
#: taller blocks pay less per-block Python; shorter ones hold less.
_BLOCK_BYTES = 12 << 20


class RowBlock(NamedTuple):
    """Rows ``[lo, hi)`` of a shard: their net and optimizer, and the
    block's ``(bev, commands, targets)`` views of the shard's scratch."""

    lo: int
    hi: int
    model: FleetWaypointNet
    optim: FleetAdam
    batch: tuple[np.ndarray, np.ndarray, np.ndarray]


class StepShard:
    """One worker's contiguous slice ``[lo, hi)`` of the fleet's rows,
    stepped in :class:`RowBlock`\\ s over one block of scratch.

    ``columns`` are the ``(shape, dtype)`` of one row's minibatch
    columns — bev, commands, targets — each ``shape`` led by the batch
    size.  The scratch is ``grad``, the tallest block's gradient rows,
    and ``batch``, its stacked minibatch; a shorter block uses their
    leading rows.
    """

    def __init__(self, bank, optim, template, lo: int, hi: int, columns):
        self.lo = lo
        self.hi = hi
        row_bytes = bank.flat.itemsize * bank.n_params + sum(
            int(np.prod(shape)) * np.dtype(dtype).itemsize for shape, dtype in columns
        )
        # The fewest equal blocks whose scratch fits (one row at least).
        fit = max(1, _BLOCK_BYTES // row_bytes)
        blocks = partition_rows(hi - lo, -(-(hi - lo) // fit))
        height = blocks[0][1] - blocks[0][0]  # partition_rows puts the taller blocks first
        # Every entry is assigned by a backward or a gather before it is read.
        self.grad = np.empty((height, bank.n_params), dtype=np.float32)
        self.batch = tuple(np.empty((height, *shape), dtype=dtype) for shape, dtype in columns)
        self.blocks = tuple(
            self._block(bank, optim, template, lo + a, lo + b) for a, b in blocks
        )

    def _block(self, bank, optim, template, lo: int, hi: int) -> RowBlock:
        rows = bank.slice_rows(lo, hi, self.grad[: hi - lo])
        return RowBlock(
            lo, hi, FleetWaypointNet(rows, template), optim.slice_rows(lo, hi, rows),
            tuple(buf[: hi - lo] for buf in self.batch),
        )

    def run_step(self, draw, losses) -> None:
        """One step of this shard's rows, block by block.

        ``draw(lo, hi, batch)`` gathers rows ``[lo, hi)``'s minibatches
        into ``batch``.  Backward *assigns* gradients into the scratch;
        the optimizer updates parameters and moments in place.  Writing
        the loss vector completes the block — there is no merge step.
        """
        for lo, hi, model, optim, batch in self.blocks:
            draw(lo, hi, batch)
            bev, commands, targets = batch
            scalars, _, grad = fleet_waypoint_l1(model.forward(bev, commands), targets)
            model.backward(grad)
            optim.step()
            losses[lo:hi] = scalars

    def evaluate(self, bev, commands, targets, chunk: int, out: np.ndarray) -> None:
        """This shard's rows of ``out``: every frame's L1 loss, one shared
        batch broadcast against each block's rows, ``chunk`` frames per
        forward."""
        for start in range(0, len(targets), chunk):
            sl = slice(start, start + chunk)
            for block in self.blocks:
                pred = block.model.forward(bev[sl], commands[sl])
                out[block.lo : block.hi, sl] = np.abs(pred - targets[sl]).mean(axis=2)


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

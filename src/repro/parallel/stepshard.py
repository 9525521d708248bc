"""Within-run parallel fleet stepping over shared-memory parameter banks.

The run-level pool (:mod:`repro.parallel.pool`) shards *across*
independent runs; this module shards *within* one run.  Between contact
events every vehicle trains in lock-step, and PR 7's
:class:`~repro.core.fleet.FleetEngine` already fused the whole fleet's
forward/backward/Adam into batched per-layer ops.  Those ops are all
independent per leading (node) index, so one batched step can be
partitioned by **contiguous bank-row ranges** and executed by worker
processes in place:

* :class:`ShmArena` carves numpy arrays out of one
  ``multiprocessing.shared_memory`` segment.  The engine allocates the
  parameter/gradient banks, the Adam moment matrices and step counters,
  the stacked minibatch buffers, and the per-node loss vector there.
  The segment is unlinked immediately after creation — forked workers
  inherit the mapping, nothing is ever addressed by name, and the
  memory disappears with the last process.
* :class:`StepWorkerPool` forks one persistent worker per row shard.
  Each worker owns a :class:`~repro.nn.bank.FleetWaypointNet` and a
  :class:`~repro.nn.bank.FleetAdam` built over *views* of its rows
  (:meth:`ParamBank.slice_rows`).  A step command carries nothing:
  inputs are read from, and parameters/moments/losses are written to,
  the shared segment — the merge is the memory itself,
  zero-copy, no pickling of parameters.

Determinism is structural, not numerical luck: the parent draws every
node's minibatch from the node's own RNG stream in row order (exactly
as the serial engine does), and every batched tensor op in
:mod:`repro.nn.bank` reduces along non-row axes only.  Row ``r`` sees
the same float ops on the same operands whether it is computed by the
serial engine, by worker 0 of 2, or by worker 3 of 4 — so run results
are **bit-identical for every worker count**, which the ``stepshard.*``
rows of ``repro selfcheck`` and :mod:`tests.test_stepshard` enforce.

Requires the ``fork`` start method (workers inherit the mapped segment
and the live slice objects); on platforms without it the engine falls
back to serial batched stepping.
"""

from __future__ import annotations

import multiprocessing
import os
import traceback
from multiprocessing import shared_memory

import numpy as np

__all__ = [
    "ShmArena",
    "StepWorkerPool",
    "StepShard",
    "StepWorkerError",
    "fork_available",
    "partition_rows",
]

#: Allocation alignment inside an arena, in bytes (cache-line friendly).
_ALIGN = 64


def fork_available() -> bool:
    """Whether this platform can fork step workers."""
    return "fork" in multiprocessing.get_all_start_methods()


def partition_rows(n_rows: int, n_workers: int) -> list[tuple[int, int]]:
    """Contiguous ``[lo, hi)`` row ranges, sizes differing by at most 1.

    The shard count is clamped to ``n_rows`` so no worker is ever idle;
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


class ShmArena:
    """Bump allocator over one ``multiprocessing.shared_memory`` segment.

    The segment is created zero-filled, unlinked immediately (so its
    name never outlives this constructor — forked children share the
    *mapping*, not the name), and carved into aligned numpy arrays via
    :meth:`alloc`.  The arena object itself keeps the mapping alive; it
    must outlive every array allocated from it.
    """

    def __init__(self, nbytes: int):
        if nbytes <= 0:
            raise ValueError(f"arena needs a positive size: {nbytes}")
        self._shm = shared_memory.SharedMemory(create=True, size=int(nbytes))
        try:
            self._shm.unlink()
        except FileNotFoundError:  # pragma: no cover - platform quirk
            pass
        self.nbytes = int(nbytes)
        self._offset = 0

    @staticmethod
    def bytes_for(*specs: tuple[tuple[int, ...], type]) -> int:
        """Total arena bytes for a sequence of ``(shape, dtype)`` specs."""
        total = 0
        for shape, dtype in specs:
            size = int(np.prod(shape)) * np.dtype(dtype).itemsize
            total += -(-size // _ALIGN) * _ALIGN
        return max(total, _ALIGN)

    def alloc(self, shape: tuple[int, ...], dtype) -> np.ndarray:
        """A zeroed C-contiguous array carved out of the segment."""
        shape = tuple(int(s) for s in shape)
        size = int(np.prod(shape)) * np.dtype(dtype).itemsize
        if self._offset + size > self.nbytes:
            raise MemoryError(
                f"arena exhausted: need {size} bytes at offset {self._offset} "
                f"of {self.nbytes}"
            )
        arr = np.ndarray(shape, dtype=dtype, buffer=self._shm.buf, offset=self._offset)
        self._offset += -(-size // _ALIGN) * _ALIGN
        return arr

    @property
    def allocator(self):
        """``alloc`` bound as a ``(shape, dtype) -> ndarray`` callable."""
        return self.alloc


class StepWorkerError(RuntimeError):
    """A step worker died or reported an exception mid-step.

    Bank rows may be partially updated when this is raised, so the run
    cannot fall back to recomputing the step — the run-level pool's
    crash-retry (which rebuilds from the spec or a checkpoint) is the
    recovery path.
    """


class StepShard:
    """One worker's slice of the fleet: rows, model, optimizer, buffers."""

    def __init__(self, index, lo, hi, model, optim, bev, commands, targets, losses):
        self.index = index
        self.lo = lo
        self.hi = hi
        self.model = model  # FleetWaypointNet over bank rows [lo, hi)
        self.optim = optim  # FleetAdam over the same rows
        self.bev = bev  # (n, batch, C, H, W) shared input buffer
        self.commands = commands  # (n, batch)
        self.targets = targets  # (n, batch, D)
        self.losses = losses  # (n,) float64 shared output vector

    def run_step(self) -> None:
        """One batched step over this shard's rows (worker-side)."""
        from repro.nn.losses import fleet_waypoint_l1

        lo, hi = self.lo, self.hi
        pred = self.model.forward(self.bev[lo:hi], self.commands[lo:hi])
        scalars, _, grad = fleet_waypoint_l1(pred, self.targets[lo:hi])
        # Backward *assigns* gradients into the shared bank rows; the
        # optimizer updates parameters and moments in place.  Writing
        # the loss vector completes the shard — there is no merge step.
        self.model.backward(grad)
        self.optim.step()
        self.losses[lo:hi] = scalars


def _worker_main(conn, shard: StepShard) -> None:
    """Step-worker loop: wait for commands, step the shard, acknowledge.

    Telemetry is captured per shard in a plain counter dict and shipped
    to the parent with the ``stop`` acknowledgement (the parent merges
    it into the active session) — the same capture-and-merge contract
    the run-level pool uses for whole runs.
    """
    counters = {"steps": 0.0, "rows_stepped": 0.0}
    try:
        while True:
            msg = conn.recv()
            if msg[0] == "stop":
                conn.send(("bye", counters))
                conn.close()
                break
            shard.run_step()
            counters["steps"] += 1
            counters["rows_stepped"] += shard.hi - shard.lo
            conn.send(("ok",))
    except (EOFError, KeyboardInterrupt):
        pass
    except Exception:
        try:
            conn.send(("err", traceback.format_exc()))
        except (OSError, ValueError):
            pass
    # Skip interpreter teardown: the worker shares inherited state
    # (shm mappings, telemetry sessions) with the parent, and normal
    # exit hooks would try to finalize objects the parent still owns.
    os._exit(0)


class StepWorkerPool:
    """Persistent forked workers stepping disjoint bank-row shards.

    ``shards`` carry live slice objects (views into shared memory);
    forking inherits them, so nothing is pickled — not at spawn, not
    per step.  One :meth:`step` call fans a command out to every
    worker over its pipe and blocks until all shards acknowledge; the
    updated parameters, moments, step counters, and losses are already
    in the shared segment when it returns.
    """

    def __init__(self, shards: list[StepShard]):
        if not fork_available():
            raise StepWorkerError("step workers require the fork start method")
        ctx = multiprocessing.get_context("fork")
        self._conns = []
        self._procs = []
        self.n_workers = len(shards)
        self.shard_rows = [(s.lo, s.hi) for s in shards]
        for shard in shards:
            parent_conn, child_conn = ctx.Pipe()
            proc = ctx.Process(
                target=_worker_main,
                args=(child_conn, shard),
                name=f"repro-stepshard-{shard.index}",
                daemon=True,
            )
            proc.start()
            child_conn.close()
            self._conns.append(parent_conn)
            self._procs.append(proc)
        self._closed = False

    def step(self) -> None:
        """Run one batched step on every shard; returns when all finish."""
        if self._closed:
            raise StepWorkerError("step worker pool is closed")
        for proc, conn in zip(self._procs, self._conns):
            try:
                conn.send(("step",))
            except OSError as exc:
                self._abandon()
                raise StepWorkerError(
                    f"step worker {proc.name} died before the step"
                ) from exc
        for proc, conn in zip(self._procs, self._conns):
            try:
                msg = conn.recv()
            except EOFError as exc:
                self._abandon()
                raise StepWorkerError(
                    f"step worker {proc.name} died mid-step"
                ) from exc
            if msg[0] != "ok":
                self._abandon()
                raise StepWorkerError(
                    f"step worker {proc.name} failed:\n{msg[1]}"
                )

    def close(self) -> dict[int, dict[str, float]]:
        """Stop every worker; per-shard telemetry counters, by shard index."""
        if self._closed:
            return {}
        self._closed = True
        merged: dict[int, dict[str, float]] = {}
        for i, (proc, conn) in enumerate(zip(self._procs, self._conns)):
            try:
                conn.send(("stop",))
                msg = conn.recv()
                if msg[0] == "bye":
                    merged[i] = msg[1]
            except (OSError, EOFError, BrokenPipeError):
                pass
            finally:
                conn.close()
                proc.join(timeout=5.0)
                if proc.is_alive():  # pragma: no cover - defensive
                    proc.terminate()
        return merged

    def _abandon(self) -> None:
        """Tear down without the stop handshake (a worker already died)."""
        self._closed = True
        for conn in self._conns:
            conn.close()
        for proc in self._procs:
            proc.terminate()
            proc.join(timeout=5.0)

    def __del__(self):  # pragma: no cover - best-effort cleanup
        try:
            if not self._closed:
                self._abandon()
        except Exception:
            pass

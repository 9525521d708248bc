"""Fleet-batched training engine over a shared parameter bank.

Every trainer runs all vehicles' local iterations in lock-step — the
discrete-event loop fires each vehicle's train timer at the same
instants, and busy state gates communication only, never training.  The
:class:`FleetEngine` exploits that: when the first vehicle of an instant
fires, it samples every node's minibatch, runs one batched
forward/backward over a :class:`~repro.nn.bank.ParamBank`, and applies a
vectorized Adam step for the whole fleet; the remaining vehicles of the
instant just pick up their precomputed loss.

The engine is strictly an execution strategy.  Nodes keep their own
:class:`~repro.core.node.VehicleNode` API — chats, compression,
psi-probes, checkpoints all operate on per-node views into the bank
(see :mod:`repro.nn.bank`), so attaching the engine changes *where*
tensors live, not what any protocol sees.  The one thing a node hands
over is its optimizer state: the engine's :class:`FleetAdam` owns every
row's, and a trainer's checkpoints read and write it there.
"""

from __future__ import annotations

import warnings

import numpy as np

from repro.core.node import _EVAL_CHUNK, VehicleNode
from repro.nn._fused import fused_adam_step
from repro.nn.bank import FleetAdam, FleetWaypointNet, ParamBank
from repro.nn.losses import fleet_waypoint_l1
from repro.nn.model import WaypointNet
from repro.parallel.stepshard import (
    ShmArena,
    StepShard,
    StepWorkerError,
    StepWorkerPool,
    fork_available,
    partition_rows,
)
from repro.sim.dataset import DrivingDataset
from repro.telemetry import hooks

__all__ = ["FleetEngine", "FleetIncompatible"]


class FleetIncompatible(ValueError):
    """The node set cannot share one parameter bank."""


class FleetEngine:
    """Batched forward/backward/update for a homogeneous vehicle fleet.

    Construction re-homes every node into a shared :class:`ParamBank`
    (:meth:`VehicleNode.bind_bank`: the node's one-row bank and net of
    construction time are dropped) and imports each node's standalone
    Adam state into one :class:`FleetAdam`, after which the fleet alone
    steps the node.  Any homogeneous fleet of one node or more fits; one
    that differs in model structure, learning rate or batch size raises
    :class:`FleetIncompatible` naming the difference — there is no
    per-node training to degrade to.
    """

    def __init__(self, nodes: list[VehicleNode], step_workers: int = 1):
        first = nodes[0]
        for node in nodes:
            if not isinstance(node.model, WaypointNet):
                raise FleetIncompatible(f"cannot batch {type(node.model).__name__}")
            differing = [
                name
                for name in ("learning_rate", "batch_size")  # one Adam; stacked minibatches
                if getattr(node.config, name) != getattr(first.config, name)
            ]
            if differing:
                raise FleetIncompatible(
                    f"nodes {first.node_id} and {node.node_id} disagree on "
                    + ", ".join(differing)
                )
        # When step sharding is requested (and the platform can fork),
        # the parameter/gradient banks and Adam state go into one shared
        # memory arena so forked workers can update their rows in place.
        n = len(nodes)
        requested = max(1, int(step_workers))
        if requested > 1 and not fork_available():
            warnings.warn(
                "step_workers requires the fork start method; "
                "falling back to serial fleet stepping",
                RuntimeWarning,
                stacklevel=2,
            )
            requested = 1
        self.step_workers = requested
        allocator = None
        self._bank_arena: ShmArena | None = None
        if requested > 1:
            n_params = sum(
                int(np.prod(p.data.shape)) if p.data.shape else 1
                for p in first.model.parameters()
            )
            self._bank_arena = ShmArena(
                ShmArena.bytes_for(
                    ((n, n_params), np.float32),  # bank.flat
                    ((n, n_params), np.float32),  # bank.grad_flat
                    ((n, n_params), np.float32),  # optim.m
                    ((n, n_params), np.float32),  # optim.v
                    ((n,), np.int64),  # optim.steps
                )
            )
            allocator = self._bank_arena.alloc
        # Validate everything (structure, batchable layer types) before
        # mutating any node, so a failed build leaves the fleet intact.
        bank = ParamBank(first.model, len(nodes), allocator=allocator)
        try:
            model = FleetWaypointNet(bank, first.model)
            for node in nodes:
                bank._check_compatible(node.model)
        except ValueError as exc:
            raise FleetIncompatible(str(exc)) from exc
        self.nodes = nodes
        self.bank = bank
        self.model = model
        self.optim = FleetAdam(bank, lr=first.config.learning_rate, allocator=allocator)
        for row, node in enumerate(nodes):
            self.optim.node_restore(row, node.optimizer.snapshot())
            node.optimizer = None  # the fleet steps this row from now on
            node.bind_bank(bank, row)
        self._pending: np.ndarray | None = None
        self._consumed = np.ones(len(nodes), dtype=bool)
        # Plain-Python step accounting (cheap enough for the hot loop):
        # how many per-row training events ran, and at what batched
        # width each ran.  Every step is the dense bank's, so
        # ``mean_step_width`` == n_nodes once any step ran.
        self.step_events = 0
        self.step_width_sum = 0
        self._batch_bufs: tuple[np.ndarray, ...] | None = None
        # The worker pool spawns lazily at the first batched step (the
        # stacked batch shapes are only known then).
        self._pool: StepWorkerPool | None = None
        self._pool_failed = requested <= 1
        self._batch_arena: ShmArena | None = None
        self._shm_batch: tuple[np.ndarray, ...] | None = None
        self._shm_losses: np.ndarray | None = None

    @property
    def mean_step_width(self) -> float:
        """Mean batched width per training event (0.0 before any step)."""
        if self.step_events == 0:
            return 0.0
        return self.step_width_sum / self.step_events

    # -- training ------------------------------------------------------------

    def train_tick(self, row: int) -> float:
        """One vehicle's train event inside the lock-step instant.

        The first vehicle of an instant triggers the batched step for
        the whole fleet; later vehicles of the same instant consume
        their precomputed loss.  A vehicle firing twice without the
        others in between (never in the event loop, possible in direct
        calls) simply starts a fresh batch.
        """
        if self._pending is None or self._consumed[row]:
            self._pending = self.train_step_all()
            self._consumed[:] = False
        self._consumed[row] = True
        return float(self._pending[row])

    def train_step_all(self) -> np.ndarray:
        """One batched minibatch step for every node; per-node losses.

        Minibatches are sampled from each node's own RNG in row order —
        the same draws, in the same order, as per-node lock-step
        training — and every one has ``batch_size`` rows
        (:meth:`~repro.sim.dataset.DrivingDataset.sample_batch`), so
        they always stack.
        """
        nodes = self.nodes
        samples = [
            node.dataset.sample_batch(
                node.config.batch_size,
                node.rng,
                balance_commands=node.config.balance_commands,
            )
            for node in nodes
        ]
        self.step_events += len(nodes)
        self.step_width_sum += len(nodes) * len(nodes)
        if not self._pool_failed:
            losses = self._pool_step(samples)
            if losses is not None:
                return losses
        bev, commands, targets = self._stack_batches(samples)
        pred = self.model.forward(bev, commands)
        scalars, _, grad = fleet_waypoint_l1(pred, targets)
        # No zero_grad: the batched backward assigns parameter gradients.
        self.model.backward(grad)
        self.optim.step()
        for node in nodes:
            node.model_version += 1
            node.train_steps += 1
            node._steps_since_refresh += 1
        return np.asarray(scalars, dtype=np.float64)

    def _stack_batches(
        self, samples: list
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Stack per-node minibatches into persistent ``(n, b, ...)`` buffers.

        Reusing the buffers step over step avoids re-faulting tens of
        megabytes of freshly mmap'd pages on every training instant.
        """
        bufs = self._batch_bufs
        shapes = tuple((len(samples), *samples[0][k].shape) for k in range(3))
        if bufs is None or tuple(buf.shape for buf in bufs) != shapes:
            bufs = self._batch_bufs = tuple(
                np.empty(shape, dtype=samples[0][k].dtype)
                for k, shape in enumerate(shapes)
            )
        for row, sample in enumerate(samples):
            bufs[0][row] = sample[0]
            bufs[1][row] = sample[1]
            bufs[2][row] = sample[2]
        return bufs

    # -- step-worker pool ----------------------------------------------------

    def _spawn_pool(self, samples: list) -> None:
        """Fork the step-worker pool around the first batch.

        Allocates the shared batch/loss buffers (shapes are known now),
        slices the bank and optimizer into contiguous row shards, warms
        the fused Adam kernel so workers inherit the loaded library
        instead of racing to compile, and forks one worker per shard.
        Failure to spawn degrades to serial batched stepping.
        """
        n = len(self.nodes)
        try:
            specs = [((n, *samples[0][k].shape), samples[0][k].dtype) for k in range(3)]
            arena = ShmArena(ShmArena.bytes_for(*specs, ((n,), np.float64)))
            bufs = tuple(arena.alloc(shape, dtype) for shape, dtype in specs)
            losses = arena.alloc((n,), np.float64)
            fused_adam_step()
            template = self.nodes[0].model
            shards = []
            for i, (lo, hi) in enumerate(partition_rows(n, self.step_workers)):
                bank_slice = self.bank.slice_rows(lo, hi)
                shards.append(
                    StepShard(
                        i,
                        lo,
                        hi,
                        FleetWaypointNet(bank_slice, template),
                        self.optim.slice_rows(lo, hi, bank_slice),
                        *bufs,
                        losses,
                    )
                )
            pool = StepWorkerPool(shards)
        except (StepWorkerError, OSError, MemoryError) as exc:
            warnings.warn(
                f"could not spawn step workers ({exc}); "
                "falling back to serial fleet stepping",
                RuntimeWarning,
            )
            self._pool_failed = True
            return
        self._batch_arena = arena
        self._shm_batch = bufs
        self._shm_losses = losses
        self._pool = pool
        hooks.count("stepshard.pools_spawned")
        hooks.set_gauge("stepshard.workers", pool.n_workers)

    def _pool_step(self, samples: list) -> np.ndarray | None:
        """One sharded batched step; None (the pool could not spawn)
        routes to the serial path.

        The parent has already drawn every node's minibatch (keeping all
        RNG consumption in one process, in row order); here it stages the
        stacked batch into the shared buffers and fans the step command
        out to the workers, which update their disjoint bank rows in
        place.  The per-node losses land in shared memory — returning a
        copy *is* the merge.
        """
        if self._pool is None:
            self._spawn_pool(samples)
            if self._pool is None:
                return None
        bev, commands, targets = self._shm_batch
        for row, sample in enumerate(samples):
            bev[row] = sample[0]
            commands[row] = sample[1]
            targets[row] = sample[2]
        self._pool.step()
        hooks.count("stepshard.steps")
        for node in self.nodes:
            node.model_version += 1
            node.train_steps += 1
            node._steps_since_refresh += 1
        return self._shm_losses.copy()

    def close(self) -> None:
        """Stop the step workers (if any) and merge their telemetry.

        Idempotent; the engine keeps working afterwards on the serial
        batched path (the banks themselves stay valid — they are views
        into an arena this object owns).
        """
        pool, self._pool = self._pool, None
        self._pool_failed = True
        if pool is None:
            return
        for shard, counters in pool.close().items():
            for name, value in counters.items():
                hooks.count(f"stepshard.shard{shard}.{name}", value)

    # -- evaluation ----------------------------------------------------------

    def evaluate_fleet(self, dataset: DrivingDataset) -> np.ndarray:
        """Every node's weighted validation loss, one batched forward.

        Nodes whose loss cache fully covers ``dataset`` at their current
        model version keep their cached values (identical semantics to
        :meth:`VehicleNode.per_sample_losses`); the rest are recomputed
        together by broadcasting the shared validation batch against the
        whole bank, then written back to each node's cache.
        """
        nodes = self.nodes
        n_nodes = len(nodes)
        n = len(dataset)
        if n == 0:
            return np.zeros(n_nodes)
        bev, commands, targets, weights = dataset.arrays()
        slots_list: list[np.ndarray] = []
        values: list[np.ndarray | None] = []
        need = []
        for i, node in enumerate(nodes):
            slots, cached = node.cached_losses(dataset)
            slots_list.append(slots)
            values.append(cached)
            if cached is None:
                need.append(i)
        if need:
            fresh = np.empty((n_nodes, n), dtype=np.float32)
            # Keep total forward work per chunk near the per-node cap.
            chunk = max(1, _EVAL_CHUNK // n_nodes)
            for start in range(0, n, chunk):
                sl = slice(start, start + chunk)
                pred = self.model.forward(bev[sl], commands[sl])
                fresh[:, sl] = np.abs(pred - targets[sl]).mean(axis=2)
            for i in need:
                values[i] = fresh[i]
                nodes[i].store_losses(slots_list[i], fresh[i])
        norm = weights / weights.sum()
        return np.array([float(vals @ norm) for vals in values])

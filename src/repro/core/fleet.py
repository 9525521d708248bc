"""The fleet: one parameter bank its vehicles are born in, and its training engine.

A fleet is born once, from one template model (every vehicle starts from
the same initialisation, §II-A): :class:`FleetEngine` allocates the
:class:`~repro.nn.bank.ParamBank` and the :class:`~repro.nn.bank.
FleetAdam`, writes the template into every row, and hands each
:class:`~repro.core.node.VehicleNode` its row.  A vehicle has no other
home — chats, compression, psi probes and checkpoints read and write
its row, and the fleet's Adam owns its optimizer state.

Every trainer runs all vehicles' local iterations in lock-step — the
discrete-event loop fires each vehicle's train timer at the same
instants, and busy state gates communication only, never training.  The
engine exploits that: when the first vehicle of an instant fires, it
samples every node's minibatch, runs one batched forward/backward over
the bank, and applies a vectorized Adam step for the whole fleet; the
remaining vehicles of the instant just pick up their precomputed loss.
"""

from __future__ import annotations

import warnings

import numpy as np

from repro.core.node import _EVAL_CHUNK, NodeConfig, VehicleNode
from repro.nn._fused import fused_adam_step
from repro.nn.bank import FleetAdam, FleetWaypointNet, ParamBank
from repro.nn.losses import fleet_waypoint_l1
from repro.nn.params import get_flat_params, num_params
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
    """The nodes cannot be trained as one parameter bank."""


class FleetEngine:
    """A vehicle fleet born in one :class:`ParamBank`, and its batched
    forward/backward/update.

    ``members`` are ``(node_id, dataset, rng)`` in row order.  Birth
    allocates the bank and :class:`FleetAdam` (in a shared-memory arena
    when ``step_workers > 1`` and the platform can fork, so forked step
    workers update their rows in place), writes ``template``'s
    parameters into every row with one broadcast, and constructs each
    :class:`VehicleNode` on ``(fleet, row)``; a node builds its first
    coreset from its own RNG.  A template the bank cannot stack raises
    :class:`FleetIncompatible` — there is no per-node training to
    degrade to.
    """

    def __init__(
        self,
        template,
        members: list[tuple[str, DrivingDataset, np.random.Generator]],
        config: NodeConfig,
        *,
        step_workers: int = 1,
    ):
        n = len(members)
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
            n_params = num_params(template)
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
        #: The shared initialisation; it stays as born (the rows train).
        self.template = template
        #: The config the fleet was born with: its Adam's learning rate
        #: and its stacked minibatches' size.
        self.config = config
        self.bank = ParamBank(template, n, allocator=allocator)
        try:
            self.model = FleetWaypointNet(self.bank, template)
        except ValueError as exc:
            raise FleetIncompatible(str(exc)) from exc
        self.bank.flat[:] = get_flat_params(template)
        self.optim = FleetAdam(self.bank, lr=config.learning_rate, allocator=allocator)
        #: One-row banks over each row, sliced once (:meth:`row_net`).
        self._row_banks: dict[int, ParamBank] = {}
        self.nodes = tuple(
            VehicleNode(self, row, node_id, dataset, config, rng)
            for row, (node_id, dataset, rng) in enumerate(members)
        )
        self._pending: np.ndarray | None = None
        self._consumed = np.ones(n, dtype=bool)
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

    @staticmethod
    def of(nodes: list[VehicleNode]) -> "FleetEngine":
        """The fleet ``nodes`` were born in, if a trainer can step them.

        Raises :class:`FleetIncompatible` unless ``nodes`` are exactly
        that fleet's rows, in order, and every one still has the
        learning rate and batch size the fleet was born with (one Adam;
        stacked minibatches).
        """
        fleet = nodes[0].fleet
        if len(nodes) != len(fleet.nodes) or any(
            node is not born for node, born in zip(nodes, fleet.nodes)
        ):
            raise FleetIncompatible("nodes must be the rows of one fleet, in row order")
        for node in nodes:
            differing = [
                name
                for name in ("learning_rate", "batch_size")
                if getattr(node.config, name) != getattr(fleet.config, name)
            ]
            if differing:
                raise FleetIncompatible(
                    f"node {node.node_id} disagrees with its fleet on " + ", ".join(differing)
                )
        return fleet

    def row_net(self, row: int) -> FleetWaypointNet:
        """A one-row net over bank row ``row``, for one forward.

        A net keeps its last forward's activations; built per forward,
        none outlives it, so no vehicle holds a dataset's worth of them.
        """
        bank = self._row_banks.get(row)
        if bank is None:
            bank = self._row_banks[row] = self.bank.slice_rows(row, row + 1)
        return FleetWaypointNet(bank, self.template)

    def __getstate__(self):
        """A fleet crossing processes (a run's result) takes its banks and
        nodes, not the step workers, their shared memory or scratch."""
        state = self.__dict__.copy()
        state.update(
            model=None, _row_banks={}, _pending=None, _batch_bufs=None, _pool=None,
            _pool_failed=True, _bank_arena=None, _batch_arena=None, _shm_batch=None,
            _shm_losses=None,
        )  # fmt: skip
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)
        self.model = FleetWaypointNet(self.bank, self.template)

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
            shards = []
            for i, (lo, hi) in enumerate(partition_rows(n, self.step_workers)):
                bank_slice = self.bank.slice_rows(lo, hi)
                shards.append(
                    StepShard(
                        i,
                        lo,
                        hi,
                        FleetWaypointNet(bank_slice, self.template),
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

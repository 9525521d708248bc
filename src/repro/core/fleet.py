"""The fleet: one parameter bank its vehicles are born in, and its training engine.

A fleet is born once, from one template model (every vehicle starts from
the same initialisation, §II-A): :class:`FleetEngine` allocates the
:class:`~repro.nn.bank.ParamBank` and the :class:`~repro.nn.bank.
FleetAdam`, writes the template into every row, and hands each
:class:`~repro.core.node.VehicleNode` its row.  A vehicle has no other
home — chats, compression, psi probes and checkpoints read and write
its row, and the fleet's Adam owns its optimizer state.

Every trainer runs all vehicles' local iterations in lock-step — busy
state gates communication only, never training — so one process of the
trainer's event loop calls :meth:`FleetEngine.train_step_all` once per
train instant: it samples every node's minibatch, runs one batched
forward/backward over the bank, and applies a vectorized Adam step for
the whole fleet.  That step, and the fleet's validation pass, run as
contiguous row shards on threads (:mod:`repro.parallel.stepshard`); each
shard draws its own rows' minibatches, each from the node's own stream,
so results are bit-identical for any shard count.
"""

from __future__ import annotations

import numpy as np

from repro.core.node import _EVAL_CHUNK, LEARNING_RATE, NodeConfig, VehicleNode
from repro.nn._fused import fused_adam_step
from repro.nn.bank import FleetAdam, FleetWaypointNet, ParamBank
from repro.nn.params import get_flat_params
from repro.parallel.stepshard import StepShard, default_step_shards, partition_rows, run_shards
from repro.sim.dataset import DrivingDataset

__all__ = ["FleetEngine", "FleetIncompatible"]


class FleetIncompatible(ValueError):
    """The nodes cannot be trained as one parameter bank."""


class FleetEngine:
    """A vehicle fleet born in one :class:`ParamBank`, and its batched
    forward/backward/update.

    ``members`` are ``(node_id, dataset, rng)`` in row order.  Birth
    allocates the bank and :class:`FleetAdam`, writes ``template``'s
    parameters into every row with one broadcast, cuts the rows into
    ``step_workers`` contiguous :class:`~repro.parallel.stepshard.
    StepShard`\\ s (default: one per usable core, at most one per row)
    that the two fleet-wide ops run on threads, and constructs each
    :class:`VehicleNode` on ``(fleet, row)``; a node builds its first
    coreset from its own RNG.  A template the bank cannot stack raises
    :class:`FleetIncompatible` — there is no per-node training to
    degrade to — and so do two members sharing a random stream or a
    dataset object, which shards drawing concurrently would race on.
    """

    def __init__(
        self,
        template,
        members: list[tuple[str, DrivingDataset, np.random.Generator]],
        config: NodeConfig,
        *,
        step_workers: int | None = None,
    ):
        n = len(members)
        if len({id(rng.bit_generator) for _, _, rng in members}) < n:
            raise FleetIncompatible("two members share one random stream")
        if len({id(dataset) for _, dataset, _ in members}) < n:
            raise FleetIncompatible("two members share one dataset")
        #: The shared initialisation; it stays as born (the rows train).
        self.template = template
        #: The config the fleet was born with: its stacked minibatches' size.
        self.config = config
        self.bank = ParamBank(template, n)
        self.optim = FleetAdam(self.bank, lr=LEARNING_RATE)
        self._row_ranges = partition_rows(
            n, default_step_shards() if step_workers is None else step_workers
        )
        try:
            self._build_shards()
        except ValueError as exc:
            raise FleetIncompatible(str(exc)) from exc
        self.bank.flat[:] = get_flat_params(template)
        #: One-row banks over each row, sliced once (:meth:`row_net`).
        self._row_banks: dict[int, ParamBank] = {}
        self.nodes = tuple(
            VehicleNode(self, row, node_id, dataset, config, rng)
            for row, (node_id, dataset, rng) in enumerate(members)
        )
        # Plain-Python step accounting (cheap enough for the hot loop):
        # how many per-row training events ran, and at what batched
        # width each ran.  Every step is the dense bank's, so
        # ``mean_step_width`` == n_nodes once any step ran.
        self.step_events = 0
        self.step_width_sum = 0
        #: The stacked ``(n, batch, ...)`` minibatch every step gathers
        #: into (allocated by the first step, reused by every later one).
        self._batch: tuple[np.ndarray, ...] | None = None

    def _build_shards(self) -> None:
        shards = []
        for lo, hi in self._row_ranges:
            rows = self.bank.slice_rows(lo, hi)
            net = FleetWaypointNet(rows, self.template)
            shards.append(StepShard(lo, hi, net, self.optim.slice_rows(lo, hi, rows)))
        #: The row shards :meth:`train_step_all` and :meth:`evaluate_fleet`
        #: run concurrently (one shard: the whole fleet, on this thread).
        self.shards = tuple(shards)

    @staticmethod
    def of(nodes: list[VehicleNode]) -> "FleetEngine":
        """The fleet ``nodes`` were born in, if a trainer can step them.

        Raises :class:`FleetIncompatible` unless ``nodes`` are exactly
        that fleet's rows, in order, and every one still has the batch
        size the fleet was born with (stacked minibatches).
        """
        fleet = nodes[0].fleet
        if len(nodes) != len(fleet.nodes) or any(
            node is not born for node, born in zip(nodes, fleet.nodes)
        ):
            raise FleetIncompatible("nodes must be the rows of one fleet, in row order")
        for node in nodes:
            if node.config.batch_size != fleet.config.batch_size:
                raise FleetIncompatible(
                    f"node {node.node_id} disagrees with its fleet on batch_size"
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
        nodes, not its shards' activations or its scratch."""
        state = self.__dict__.copy()
        state.update(shards=(), _row_banks={}, _batch=None)
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)
        self._build_shards()

    @property
    def mean_step_width(self) -> float:
        """Mean batched width per training event (0.0 before any step)."""
        if self.step_events == 0:
            return 0.0
        return self.step_width_sum / self.step_events

    # -- training ------------------------------------------------------------

    def train_step_all(self) -> np.ndarray:
        """One batched minibatch step for every node; per-node losses.

        Each shard draws its own rows' minibatches, each from the node's
        own RNG and dataset — the same draws as per-node lock-step
        training, whatever thread or shard a row falls in (every one
        ``batch_size`` rows, :meth:`~repro.sim.dataset.DrivingDataset.
        sample_indices`) — then gathers all of them with one
        :meth:`~repro.sim.dataset.FramePool.take`, decoded straight into
        the stacked buffers, and steps those rows; the shards run
        concurrently.  An empty dataset raises before any shard runs.
        """
        nodes = self.nodes
        for node in nodes:
            if len(node.dataset) == 0:
                raise ValueError(f"node {node.node_id} cannot sample from an empty dataset")
        batch = self._batch_buffers()
        losses = np.empty(len(nodes), dtype=np.float64)
        picks = np.empty(batch[1].shape, dtype=np.intp)  # pool row of each batch row

        def step(shard: StepShard) -> None:
            for row in range(shard.lo, shard.hi):
                node = nodes[row]
                data = node.dataset
                picks[row] = data.rows[data.sample_indices(node.config.batch_size, node.rng)]
            # One gather per run of rows on one pool: the whole shard, in a run.
            start = shard.lo
            for stop in range(shard.lo + 1, shard.hi + 1):
                pool = nodes[start].dataset.pool
                if stop == shard.hi or nodes[stop].dataset.pool is not pool:
                    pool.take(
                        picks[start:stop].ravel(),
                        out=tuple(buf[start:stop].reshape(-1, *buf.shape[2:]) for buf in batch),
                    )
                    start = stop
            shard.run_step(*batch, losses)

        if len(self.shards) > 1:
            fused_adam_step()  # resolve the kernel once, before shard threads race to load it
        run_shards(self.shards, step)
        self.step_events += len(nodes)
        self.step_width_sum += len(nodes) * len(nodes)
        for node in nodes:
            node.model_version += 1
            node.train_steps += 1
            node._steps_since_refresh += 1
        return losses

    def _batch_buffers(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The persistent ``(n, batch, ...)`` bev / command / target buffers.

        Reusing them step over step avoids re-faulting tens of megabytes
        of freshly mmap'd pages on every training instant.
        """
        if self._batch is None:
            pool = self.nodes[0].dataset.pool
            lead = (len(self.nodes), self.config.batch_size)
            self._batch = (
                np.empty((*lead, *pool.frame_shape), dtype=np.float32),
                np.empty(lead, dtype=pool.commands.dtype),
                np.empty((*lead, *pool.targets.shape[1:]), dtype=pool.targets.dtype),
            )
        return self._batch

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
        values = [node.cached_losses(dataset) for node in nodes]
        need = [i for i, cached in enumerate(values) if cached is None]
        if need:
            fresh = np.empty((n_nodes, n), dtype=np.float32)
            # Keep total forward work per chunk near the per-node cap.  The
            # chunk is the fleet's, whatever a shard's height: a row's
            # GEMMs keep their shape for any shard count.
            chunk = max(1, _EVAL_CHUNK // n_nodes)
            run_shards(
                self.shards,
                lambda shard: shard.evaluate(bev, commands, targets, chunk, fresh),
            )
            for i in need:
                values[i] = fresh[i]
                nodes[i].store_losses(dataset, fresh[i])
        norm = weights / weights.sum()
        return np.array([float(vals @ norm) for vals in values])

"""A vehicle learner node: model + dataset + coreset + training state.

The node bundles everything one vehicle owns in Algorithm 2 and exposes
the operations the chat protocol and the baselines need.  It is
transport-agnostic: all communication timing lives in
:mod:`repro.core.chat` and the trainers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.compression import CompressedModel, compress_topk, decompress
from repro.core.aggregate import aggregate_models, aggregation_weights
from repro.core.psi import PsiLossMap, build_psi_map
from repro.coreset import (
    Coreset,
    merge_coresets,
    penalized_loss,
    reduce_coreset,
)
from repro.nn import Adam, waypoint_l1
from repro.nn.params import clone_model, get_flat_params, set_flat_params
from repro.sim.dataset import DrivingDataset
from repro.telemetry import hooks as telemetry

__all__ = [
    "CORESET_REFRESH_STEPS",
    "LEARNING_RATE",
    "NOMINAL_MODEL_BYTES",
    "NodeConfig",
    "VehicleNode",
]

#: The size of the model a vehicle ships, the 52 MB LBC network of
#: §IV-A: every compression ratio, transfer and Eq. 7 plan is sized on
#: it, whatever width the simulated learner has.
NOMINAL_MODEL_BYTES = 52 * 1024 * 1024
#: Adam's step size for every vehicle's local training (§IV-A).
LEARNING_RATE = 1e-3
#: Rebuild the own coreset after this many train steps since the last
#: build (§III-D: between rebuilds, merge-and-reduce keeps it current).
CORESET_REFRESH_STEPS = 25

#: Cache-miss evaluations run through the model in batches of at most
#: this many frames — a memory guard for very large datasets.  Kept
#: large so realistic miss sets still evaluate in a single forward,
#: exactly like the pre-vectorization code (batch composition affects
#: BLAS accumulation order, and bit-identity with recorded goldens
#: depends on it).
_EVAL_CHUNK = 8192

_NO_ROWS = np.zeros(0, dtype=np.intp)
_NO_LOSSES = np.zeros(0, dtype=np.float32)


@dataclass(frozen=True)
class NodeConfig:
    """Per-vehicle learning parameters (paper defaults from §IV-A)."""

    coreset_size: int = 150
    batch_size: int = 64
    #: Coreset construction strategy: "layered" (Algorithm 1),
    #: "uniform" or "kmeans" (§V alternatives).
    coreset_strategy: str = "layered"
    #: Hard cap on loss-cache entries (0 = unbounded, the paper scales).
    #: City-scale fleets set it so per-node resident state stays
    #: O(coreset + validation).  Checked after each cache write; a cache
    #: over budget is emptied (later evaluations recompute).
    loss_cache_budget: int = 0


class VehicleNode:
    """One vehicle's learning state and LbChat operations.

    A vehicle is born a row of its fleet's :class:`~repro.nn.bank.
    ParamBank` — :class:`~repro.core.fleet.FleetEngine` constructs it on
    ``(fleet, row)`` — and has no other home: its parameters are that
    row, every forward it runs is a one-row :class:`~repro.nn.bank.
    FleetWaypointNet` forward over it, and the fleet's
    :class:`~repro.nn.bank.FleetAdam` holds its optimizer state.  What
    needs a standalone model asks for :meth:`detached_model`.
    """

    def __init__(
        self,
        fleet,
        row: int,
        node_id: str,
        dataset: DrivingDataset,
        config: NodeConfig,
        rng: np.random.Generator,
    ):
        if len(dataset) == 0:
            raise ValueError(f"node {node_id} needs a non-empty local dataset")
        self.fleet = fleet
        self.row = row
        self.node_id = node_id
        self.dataset = dataset
        self.config = config
        self.rng = rng
        self.model_version = 0
        self.train_steps = 0
        # Loss cache: the losses of model version ``_cache_version`` by
        # row of this node's pool, rows sorted, values aligned.
        self._cache_version = 0
        self._cache_rows = _NO_ROWS
        self._cache_values = _NO_LOSSES
        self._steps_since_refresh = 0
        self.coreset: Coreset = self.refresh_coreset()

    @property
    def flat_params(self) -> np.ndarray:
        """This vehicle's parameters: a read-only, zero-copy, always
        current view of its bank row."""
        return self.fleet.bank.row_view(self.row)

    def _set_params(self, flat: np.ndarray) -> None:
        self.fleet.bank.flat[self.row] = flat

    def detached_model(self):
        """A standalone copy of this vehicle's model: the fleet's template
        cloned, then the row written in (float32 to float32, exact)."""
        model = clone_model(self.fleet.template)
        set_flat_params(model, self.flat_params)
        return model

    # -- training ------------------------------------------------------------

    def train_step(self) -> float:
        """One weighted minibatch SGD step; returns the batch loss.

        The single-vehicle reference step (with :class:`~repro.nn.optim.
        Adam` and ``WaypointNet.backward``) on a :meth:`detached_model`,
        the row's Adam state copied in from the fleet's and both copied
        back out: ``tests/test_nn_bank.py`` holds the bank to it and the
        examples call it, but no trainer does — a fleet steps through
        :meth:`~repro.core.fleet.FleetEngine.train_step_all`.
        """
        bev, commands, targets, _ = self.dataset.sample_batch(self.config.batch_size, self.rng)
        model = self.detached_model()
        optimizer = Adam(model.parameters(), lr=LEARNING_RATE)
        optimizer.restore(self.fleet.optim.node_snapshot(self.row))
        pred = model.forward(bev, commands)
        scalar, _, grad = waypoint_l1(pred, targets)
        model.zero_grad()
        model.backward(grad)
        optimizer.step()
        self._set_params(get_flat_params(model))
        self.fleet.optim.node_restore(self.row, optimizer.snapshot())
        self.model_version += 1
        self.train_steps += 1
        self._steps_since_refresh += 1
        return scalar

    # -- evaluation ------------------------------------------------------------

    def _cache(self) -> tuple[np.ndarray, np.ndarray]:
        """The cache's ``(rows, values)``, emptied first if ``model_version``
        has moved (it only increases, so an older entry never hits again)."""
        if self._cache_version != self.model_version:
            self._cache_version = self.model_version
            self._cache_rows, self._cache_values = _NO_ROWS, _NO_LOSSES
        return self._cache_rows, self._cache_values

    @property
    def loss_cache_size(self) -> int:
        """Number of frames with a cached loss at the current model version."""
        return self._cache()[0].size

    def _lookup(self, dataset: DrivingDataset) -> tuple[np.ndarray, np.ndarray]:
        """``(hit, values)``: which frames of ``dataset`` the cache holds,
        and their losses.  Nothing hits for a dataset on another pool."""
        rows, values = self._cache()
        at = np.searchsorted(rows, dataset.rows)
        hit = (at < rows.size) & (dataset.pool is self.dataset.pool)
        hit[hit] = rows[at[hit]] == dataset.rows[hit]
        return hit, values[at[hit]]

    def _store(self, dataset: DrivingDataset, positions, values: np.ndarray) -> None:
        """Cache ``values``, the losses of ``dataset``'s frames at
        ``positions``, over any they had; empty the cache if that puts
        it over budget."""
        if dataset.pool is not self.dataset.pool:
            return
        rows, cached = self._cache()
        rows = np.concatenate([dataset.rows[positions], rows])
        values = np.concatenate([values, cached], dtype=np.float32)
        self._cache_rows, first = np.unique(rows, return_index=True)
        self._cache_values = values[first]  # the new value of a row held twice
        if 0 < self.config.loss_cache_budget < self._cache_rows.size:
            self._cache_rows, self._cache_values = _NO_ROWS, _NO_LOSSES
            telemetry.count("loss_cache.resets")

    def per_sample_losses(self, dataset: DrivingDataset) -> np.ndarray:
        """Per-sample waypoint losses of the current model on ``dataset``.

        Cached by (model version, pool row): Eq. 8 and Algorithm 1 reuse
        losses heavily, and the paper calls out caching them (§III-D).
        Misses are evaluated in dataset order, in chunked batched
        forwards, and cached together.
        """
        n = len(dataset)
        losses = np.zeros(n, dtype=np.float32)
        if n == 0:
            return losses
        hit, cached = self._lookup(dataset)
        losses[hit] = cached
        miss = np.flatnonzero(~hit)
        if miss.size:
            for start in range(0, miss.size, _EVAL_CHUNK):
                chunk = miss[start : start + _EVAL_CHUNK]
                # Only the misses are gathered, straight from the pool:
                # ``dataset`` may be a vehicle's whole local dataset.
                losses[chunk] = self._forward_losses(*dataset.take(chunk))
            self._store(dataset, miss, losses[miss])
        return losses

    def cached_losses(self, dataset: DrivingDataset) -> np.ndarray | None:
        """The cached losses of ``dataset`` if all of it hits, else ``None``
        — the fleet engine then recomputes the node's losses in one
        batched forward and hands them back via :meth:`store_losses`."""
        hit, values = self._lookup(dataset)
        return values if hit.all() else None

    def store_losses(self, dataset: DrivingDataset, values: np.ndarray) -> None:
        """Cache externally computed losses of all of ``dataset``."""
        self._store(dataset, slice(None), values)

    def _forward_losses(self, bev, commands, targets) -> np.ndarray:
        """Per-sample L1 losses of this node's parameters: one one-row
        bank forward."""
        pred = self.fleet.row_net(self.row).forward(bev, commands)[0]
        return np.abs(pred - targets).mean(axis=1)

    def _weighted_loss(self, flat, losses, commands, weights, with_penalty: bool) -> float:
        """Eq. 6 of ``flat`` from its per-sample ``losses`` (or, without
        the penalty, their weighted mean)."""
        if with_penalty:
            return penalized_loss(flat, losses, commands, weights)
        return float(losses @ (weights / weights.sum()))

    def evaluate(self, dataset: DrivingDataset, with_penalty: bool = True) -> float:
        """Weighted loss of the current model on ``dataset`` (Eq. 6)."""
        losses = self.per_sample_losses(dataset)
        return self._weighted_loss(
            self.flat_params, losses, dataset.commands, dataset.weights, with_penalty
        )

    def evaluate_params(
        self, flat: np.ndarray, dataset: DrivingDataset, with_penalty: bool = True
    ) -> float:
        """:meth:`evaluate` of the parameter vector ``flat`` (a received
        model) — uncached.

        ``flat`` is scored in this node's own bank row, the one-row
        scratch space that costs nothing, so the row holds ``flat``
        afterwards: every caller merges next and overwrites it.
        """
        self._set_params(flat)
        bev, commands, targets, weights = dataset.arrays()
        losses = self._forward_losses(bev, commands, targets)
        return self._weighted_loss(flat, losses, commands, weights, with_penalty)

    def evaluate_model_on(self, model, dataset: DrivingDataset) -> float:
        """Weighted loss of an *arbitrary* model through ``WaypointNet.
        forward`` — uncached.  The per-level psi loop's scorer
        (:meth:`build_psi_map`), kept with it as a test oracle; no run
        calls it."""
        bev, commands, targets, weights = dataset.arrays()
        pred = model.forward(bev, commands)
        _, per_sample, _ = waypoint_l1(pred, targets, weights=weights)
        return penalized_loss(model, per_sample, commands, weights)

    # -- coreset ------------------------------------------------------------

    def refresh_coreset(self) -> Coreset:
        """Rebuild the coreset from the local dataset.

        Uses the configured construction strategy — Algorithm 1 layered
        sampling by default, or the §V alternatives.
        """
        from repro.coreset.strategies import build_coreset_with

        losses = self.per_sample_losses(self.dataset)
        self.coreset = build_coreset_with(
            self.config.coreset_strategy,
            self.dataset,
            losses,
            self.config.coreset_size,
            self.rng,
        )
        self._steps_since_refresh = 0
        return self.coreset

    def maybe_refresh_coreset(self) -> None:
        """Rebuild the coreset if the refresh interval elapsed.

        Only these rebuilds are a run's telemetry: the first coreset is
        built at birth, which a resumed run repeats before its restore.
        """
        if self._steps_since_refresh >= CORESET_REFRESH_STEPS:
            self.refresh_coreset()
            telemetry.on_coreset_refresh(self.node_id, len(self.coreset))

    def absorb_coreset(self, received: Coreset) -> int:
        """Expand the local dataset with a received coreset (§III-D).

        Original sample weights are reset to the local convention (all
        equal, per the paper).  Returns the number of new frames.
        Afterwards the own coreset is updated by merge-and-reduce
        instead of a full rebuild (§III-D improvement).
        """
        added = self.dataset.absorb_from(received.data, weight=1.0)
        if added:
            merged = merge_coresets(self.coreset, received)
            losses = self.per_sample_losses(merged.data)
            self.coreset = reduce_coreset(
                merged, losses, self.config.coreset_size, self.rng
            )
            telemetry.on_coreset_merge()
        return added

    # -- model exchange ------------------------------------------------------------

    def build_psi_map(self) -> PsiLossMap:
        """Fit phi: compression level -> loss on the own coreset, level by level.

        Every chat fits the map with :class:`~repro.core.overlap.
        DensePsiProber`; this loop — clone, compress, decompress and
        evaluate per level — is kept as that prober's oracle only (tests
        and the ``psi.loop`` selfcheck row), and no chat calls it.
        """
        return build_psi_map(
            self.detached_model(),
            lambda probe: self.evaluate_model_on(probe, self.coreset.data),
            NOMINAL_MODEL_BYTES,
        )

    def compress_model(self, psi: float) -> CompressedModel:
        """Top-k sparsify the current parameters to relative size ~psi (§III-C)."""
        return compress_topk(self.flat_params, psi, NOMINAL_MODEL_BYTES)

    def receive_and_aggregate(
        self,
        compressed: CompressedModel,
        eval_set: DrivingDataset,
        mean_weights: bool = False,
    ) -> tuple[float, float]:
        """Materialize a received model and merge it in with Eq. 8.

        The sparse model is overlaid on the local parameters (unsent
        coordinates keep local values), both models are scored on
        ``eval_set`` (typically C_i ∪ C_j), and the loss-weighted
        combination replaces the local parameters.  ``mean_weights``
        forces a plain 0.5/0.5 average (the §IV-F ablation).

        Returns the (w_local, w_received) weights used.
        """
        local = self.flat_params.copy()  # the row is scratch space below
        received = decompress(compressed, fill=local)
        if mean_weights:
            weights = (0.5, 0.5)
            merged = aggregate_models(local, received, 1.0, 1.0)
        else:
            loss_local = self.evaluate(eval_set)
            loss_received = self.evaluate_params(received, eval_set)
            merged = aggregate_models(local, received, loss_local, loss_received)
            weights = aggregation_weights(loss_local, loss_received)
        self._set_params(merged)
        self.model_version += 1
        return weights

    def replace_model_params(self, flat: np.ndarray) -> None:
        """Overwrite parameters (used by server-based baselines)."""
        self._set_params(flat)
        self.model_version += 1

    # -- checkpointing ------------------------------------------------------------

    def snapshot(self, frames) -> dict:
        """The node's state as a checkpointable tree.

        All of it but the optimizer's, which belongs to whoever steps the
        node: :meth:`~repro.core.trainer_base.TrainerBase.snapshot` adds
        the fleet's row of it under ``"optimizer"``.

        The dataset and the coreset go in as rows and weights; their
        frames go into ``frames``, the snapshot's
        :class:`~repro.checkpoint.state.FrameTable`, once for the fleet.
        ``params`` is the node's bank row itself, not a copy (see
        :mod:`repro.checkpoint.state`).

        ``rng`` is the generator's ``bit_generator.state``, a dict of
        strings and ints: a restored node draws on where the snapshotted
        one left off, so a checkpointed run is the run without barriers.
        The loss cache is captured as rows of the frame table and their
        values — which frames miss determines the batch composition of
        the next evaluation, and BLAS accumulation order (hence
        bit-identity) depends on it.
        """
        rows, values = self._cache()
        return {
            "params": self.flat_params,
            "model_version": self.model_version,
            "train_steps": self.train_steps,
            "steps_since_refresh": self._steps_since_refresh,
            "dataset": frames.ref(self.dataset),
            "coreset_data": frames.ref(self.coreset.data),
            "loss_cache": frames.ref(self.dataset.pool.dataset(rows)),
            "loss_values": values,
            "rng": self.rng.bit_generator.state,
        }

    def restore(self, state, frames) -> None:
        """Overwrite all node state with a snapshot's contents.

        The datasets come back over the pool this node's dataset is on
        (the run's, rebuilt with its context), their frames found there
        by id or interned from ``frames``, the snapshot's table.
        """
        pool = self.dataset.pool
        self._set_params(np.asarray(state["params"]))
        self.model_version = int(state["model_version"])
        self.train_steps = int(state["train_steps"])
        self._steps_since_refresh = int(state["steps_since_refresh"])
        self.rng.bit_generator.state = state["rng"]
        self.dataset = frames.dataset(state["dataset"], pool)
        self.coreset = Coreset(frames.dataset(state["coreset_data"], pool))
        rows = frames.dataset(state["loss_cache"], pool).rows
        order = np.argsort(rows)
        self._cache_version = self.model_version
        self._cache_rows = rows[order]
        self._cache_values = np.asarray(state["loss_values"], dtype=np.float32)[order]

"""A vehicle learner node: model + dataset + coreset + training state.

The node bundles everything one vehicle owns in Algorithm 2 and exposes
the operations the chat protocol and the baselines need.  It is
transport-agnostic: all communication timing lives in
:mod:`repro.core.chat` and the trainers.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.compression import CompressedModel, compress_topk, decompress
from repro.core.aggregate import aggregate_models, aggregation_weights
from repro.core.psi import PsiLossMap, build_psi_map
from repro.coreset import (
    Coreset,
    PenaltyConfig,
    merge_coresets,
    penalized_loss,
    reduce_coreset,
)
from repro.nn import Adam, waypoint_l1
from repro.nn.params import clone_model, get_flat_params, set_flat_params
from repro.sim.dataset import DrivingDataset
from repro.telemetry import hooks as telemetry

__all__ = ["NodeConfig", "VehicleNode"]

#: Cache-miss evaluations run through the model in batches of at most
#: this many frames — a memory guard for very large datasets.  Kept
#: large so realistic miss sets still evaluate in a single forward,
#: exactly like the pre-vectorization code (batch composition affects
#: BLAS accumulation order, and bit-identity with recorded goldens
#: depends on it).
_EVAL_CHUNK = 8192

#: Slot-vector memos kept per node before the memo table is reset
#: (short-lived subset datasets would otherwise accumulate entries).
_MAX_SLOT_MEMOS = 64


@dataclass(frozen=True)
class NodeConfig:
    """Per-vehicle learning parameters (paper defaults from §IV-A)."""

    coreset_size: int = 150
    batch_size: int = 64
    learning_rate: float = 1e-4
    nominal_model_bytes: int = 52 * 1024 * 1024
    bandwidth_bps: float = 31e6
    penalty: PenaltyConfig = field(default_factory=PenaltyConfig)
    #: Rebuild the coreset after this many absorbed coresets/train steps.
    coreset_refresh_steps: int = 25
    #: Coreset construction strategy: "layered" (Algorithm 1),
    #: "uniform" or "kmeans" (§V alternatives).
    coreset_strategy: str = "layered"
    #: Stratify minibatches uniformly over commands — the standard
    #: branched-imitation trick (rare turn branches starve otherwise).
    balance_commands: bool = True
    #: Hard cap on live loss-cache entries (0 = unbounded, the paper
    #: scales).  City-scale fleets set this so per-node resident state
    #: stays O(coreset + validation) instead of growing with every
    #: frame that ever churned through a merge.  Enforced after each
    #: cache write; when even the current-version entries exceed the
    #: budget the cache is dropped wholesale (it is a pure recompute
    #: cache, so correctness is unaffected).
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
        # Loss cache, vectorized: frame ids map to slots in flat
        # version/value arrays, so lookups over a whole dataset are two
        # fancy-indexing operations instead of a per-frame dict walk.
        self._cache_slots: dict[str, int] = {}
        self._cache_versions = np.full(64, -1, dtype=np.int64)
        self._cache_values = np.zeros(64, dtype=np.float32)
        self._cache_epoch = 0
        #: dataset uid -> (generation, epoch, id→slot vector) memo.
        self._slot_memo: dict[int, tuple[int, int, np.ndarray]] = {}
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
        bev, commands, targets, _ = self.dataset.sample_batch(
            self.config.batch_size,
            self.rng,
            balance_commands=self.config.balance_commands,
        )
        model = self.detached_model()
        optimizer = Adam(model.parameters(), lr=self.config.learning_rate)
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

    def _slots_for(self, dataset: DrivingDataset) -> np.ndarray:
        """Cache-slot row per frame of ``dataset`` (memoized per generation).

        New frame ids are assigned slots on first sight; the resulting
        vector is reused until the dataset mutates or the cache is
        compacted, so the per-id dict walk happens once per dataset
        generation instead of once per evaluation.
        """
        memo = self._slot_memo.get(dataset.uid)
        if (
            memo is not None
            and memo[0] == dataset.generation
            and memo[1] == self._cache_epoch
        ):
            return memo[2]
        ids = dataset.ids
        slots = np.empty(len(ids), dtype=np.intp)
        cache_slots = self._cache_slots
        for i, frame_id in enumerate(ids):
            slot = cache_slots.get(frame_id)
            if slot is None:
                slot = len(cache_slots)
                if slot >= self._cache_versions.size:
                    grown = max(2 * self._cache_versions.size, slot + 1)
                    versions = np.full(grown, -1, dtype=np.int64)
                    versions[: self._cache_versions.size] = self._cache_versions
                    values = np.zeros(grown, dtype=np.float32)
                    values[: self._cache_values.size] = self._cache_values
                    self._cache_versions, self._cache_values = versions, values
                cache_slots[frame_id] = slot
            slots[i] = slot
        if len(self._slot_memo) >= _MAX_SLOT_MEMOS:
            self._slot_memo.clear()
        self._slot_memo[dataset.uid] = (dataset.generation, self._cache_epoch, slots)
        return slots

    def _evict_stale_losses(self) -> None:
        """Drop cache entries from superseded model versions.

        Provably behaviour-neutral: ``model_version`` only increases, so
        a stale entry can never produce a cache hit again — it would
        only sit in memory.  Compacting on refresh bounds the cache by
        the number of frames evaluated at the current version, fixing
        the unbounded growth the per-id dict suffered as frames churned
        through merged/reduced coresets and validation evaluations.
        """
        used = len(self._cache_slots)
        live = self._cache_versions[:used] == self.model_version
        if bool(live.all()):
            return
        remap = np.cumsum(live) - 1  # old slot -> new slot (where live)
        self._cache_slots = {
            frame_id: int(remap[slot])
            for frame_id, slot in self._cache_slots.items()
            if live[slot]
        }
        n_live = len(self._cache_slots)
        capacity = max(64, n_live)
        versions = np.full(capacity, -1, dtype=np.int64)
        values = np.zeros(capacity, dtype=np.float32)
        versions[:n_live] = self._cache_versions[:used][live]
        values[:n_live] = self._cache_values[:used][live]
        self._cache_versions, self._cache_values = versions, values
        self._cache_epoch += 1  # invalidate memoized slot vectors
        self._slot_memo.clear()

    @property
    def loss_cache_size(self) -> int:
        """Number of frames with a (possibly stale) cached loss."""
        return len(self._cache_slots)

    def _enforce_cache_budget(self) -> None:
        """Keep the loss cache within ``config.loss_cache_budget``.

        Tries the behaviour-neutral stale compaction first; if the
        current-version entries alone exceed the budget, drops the
        cache entirely — later evaluations recompute, trading time for
        the bounded footprint city-scale fleets need.
        """
        budget = self.config.loss_cache_budget
        if budget <= 0 or len(self._cache_slots) <= budget:
            return
        self._evict_stale_losses()
        if len(self._cache_slots) <= budget:
            return
        self._cache_slots = {}
        self._cache_versions = np.full(64, -1, dtype=np.int64)
        self._cache_values = np.zeros(64, dtype=np.float32)
        self._cache_epoch += 1
        self._slot_memo.clear()

    def per_sample_losses(self, dataset: DrivingDataset) -> np.ndarray:
        """Per-sample waypoint losses of the current model on ``dataset``.

        Cached by (model version, frame id): Eq. 8 and Algorithm 1 reuse
        losses heavily, and the paper calls out caching them (§III-D).
        Lookups are vectorized over slot arrays; misses are evaluated in
        chunked batched forwards and written back in bulk.
        """
        n = len(dataset)
        losses = np.zeros(n, dtype=np.float32)
        if n == 0:
            return losses
        slots = self._slots_for(dataset)
        hit = self._cache_versions[slots] == self.model_version
        if hit.any():
            losses[hit] = self._cache_values[slots[hit]]
        miss = np.flatnonzero(~hit)
        if miss.size:
            for start in range(0, miss.size, _EVAL_CHUNK):
                chunk = miss[start : start + _EVAL_CHUNK]
                # Only the misses are gathered, straight from the pool:
                # ``dataset`` may be a vehicle's whole local dataset.
                losses[chunk] = self._forward_losses(*dataset.take(chunk))
                chunk_slots = slots[chunk]
                self._cache_values[chunk_slots] = losses[chunk]
                self._cache_versions[chunk_slots] = self.model_version
            self._enforce_cache_budget()
        return losses

    def cached_losses(self, dataset: DrivingDataset) -> tuple[np.ndarray, np.ndarray | None]:
        """``(slots, values)`` if the whole dataset hits the loss cache.

        ``values`` is ``None`` on any miss — the fleet engine then
        recomputes the node's losses in one batched forward and writes
        them back via :meth:`store_losses`.
        """
        slots = self._slots_for(dataset)
        hit = self._cache_versions[slots] == self.model_version
        if hit.all():
            return slots, self._cache_values[slots]
        return slots, None

    def store_losses(self, slots: np.ndarray, values: np.ndarray) -> None:
        """Write externally computed per-sample losses into the cache."""
        self._cache_values[slots] = values
        self._cache_versions[slots] = self.model_version
        self._enforce_cache_budget()

    def _forward_losses(self, bev, commands, targets) -> np.ndarray:
        """Per-sample L1 losses of this node's parameters: one one-row
        bank forward."""
        pred = self.fleet.row_net(self.row).forward(bev, commands)[0]
        return np.abs(pred - targets).mean(axis=1)

    def _weighted_loss(self, flat, losses, commands, weights, with_penalty: bool) -> float:
        """Eq. 6 of ``flat`` from its per-sample ``losses`` (or, without
        the penalty, their weighted mean)."""
        if with_penalty and self.config.penalty.enabled:
            return penalized_loss(flat, losses, commands, weights, self.config.penalty)
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
        scalar, per_sample, _ = waypoint_l1(pred, targets, weights=weights)
        if self.config.penalty.enabled:
            return penalized_loss(model, per_sample, commands, weights, self.config.penalty)
        return scalar

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
        self._evict_stale_losses()
        telemetry.on_coreset_refresh(self.node_id, len(self.coreset))
        return self.coreset

    def maybe_refresh_coreset(self) -> None:
        """Rebuild the coreset if the refresh interval elapsed."""
        if self._steps_since_refresh >= self.config.coreset_refresh_steps:
            self.refresh_coreset()

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
            telemetry.on_coreset_merge(self.node_id, added)
        return added

    # -- model exchange ------------------------------------------------------------

    def build_psi_map(self) -> PsiLossMap:
        """Fit phi: compression level -> loss on the own coreset, level by level.

        Every chat fits the map on the dense probe bank
        (:class:`~repro.core.overlap.DensePsiProber`); this loop — clone,
        compress, decompress and evaluate per level — is kept as that
        prober's test oracle only, and no chat calls it.
        """
        return build_psi_map(
            self.detached_model(),
            lambda probe: self.evaluate_model_on(probe, self.coreset.data),
            self.config.nominal_model_bytes,
        )

    def compress_model(self, psi: float) -> CompressedModel:
        """Top-k sparsify the current parameters to relative size ~psi (§III-C)."""
        return compress_topk(self.flat_params, psi, self.config.nominal_model_bytes)

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
        :class:`~repro.checkpoint.state.Snapshottable`).

        The RNG is deliberately absent: trainers re-derive every stream
        at checkpoint barriers (``spawn_rng(seed, f"node-{{id}}@ckpt{{k}}")``),
        so no bit-generator state ever needs to round-trip through disk.
        The loss cache *is* captured — which frames miss determines the
        batch composition of the next evaluation, and BLAS accumulation
        order (hence bit-identity) depends on it.
        """
        used = len(self._cache_slots)
        cache_ids = sorted(self._cache_slots, key=self._cache_slots.__getitem__)
        return {
            "params": self.flat_params,
            "model_version": self.model_version,
            "train_steps": self.train_steps,
            "steps_since_refresh": self._steps_since_refresh,
            "dataset": frames.ref(self.dataset),
            "coreset_data": frames.ref(self.coreset.data),
            "cache_ids": cache_ids,
            "cache_versions": self._cache_versions[:used].copy(),
            "cache_values": self._cache_values[:used].copy(),
        }

    def restore(self, state, frames) -> None:
        """Overwrite all node state with a snapshot's contents.

        The datasets come back over the pool this node's dataset is on
        (the run's, rebuilt with its context), their frames found there
        by id or interned from ``frames``, the snapshot's table.

        The slot memo is *not* restored: it is a pure recomputation
        cache keyed by dataset generation, and generation counters start
        over in a resumed process — bumping the cache epoch invalidates
        every stale memo instead.
        """
        pool = self.dataset.pool
        self._set_params(np.asarray(state["params"]))
        self.model_version = int(state["model_version"])
        self.train_steps = int(state["train_steps"])
        self._steps_since_refresh = int(state["steps_since_refresh"])
        self.dataset = frames.dataset(state["dataset"], pool)
        self.coreset = Coreset(frames.dataset(state["coreset_data"], pool))
        cache_ids = [str(frame_id) for frame_id in state["cache_ids"]]
        self._cache_slots = {frame_id: i for i, frame_id in enumerate(cache_ids)}
        used = len(cache_ids)
        capacity = max(64, used)
        self._cache_versions = np.full(capacity, -1, dtype=np.int64)
        self._cache_values = np.zeros(capacity, dtype=np.float32)
        self._cache_versions[:used] = np.asarray(state["cache_versions"], dtype=np.int64)
        self._cache_values[:used] = np.asarray(state["cache_values"], dtype=np.float32)
        self._cache_epoch += 1
        self._slot_memo.clear()

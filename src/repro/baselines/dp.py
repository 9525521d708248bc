"""DP — Decentralized Powerloss gossip learning (Dinani et al.).

Asynchronous gossip: whenever an idle vehicle finds an idle neighbor it
exchanges models (no coresets, no value assessment; a random neighbor —
there is no route sharing to rank them).  The receiver evaluates the
received model on its *local* dataset and derives the merge weight from
a normalized logarithmic function of the loss: a received model with
much lower loss than the local one dominates the merge, and vice versa.

Per §IV-B the method runs under the same communication constraints as
LbChat, with the compression ratio fixed per encounter to fit the
contact duration.
"""

from __future__ import annotations

import math

import numpy as np

from repro.core.trainer_base import TIME_BUDGET, TrainerBase

__all__ = ["VALIDATION_SLICE", "DpTrainer", "powerloss_weights"]

#: Frames of the local dataset the receiver scores both models on
#: (Dinani et al.'s local validation, §IV-B).
VALIDATION_SLICE = 64


def powerloss_weights(loss_local: float, loss_received: float) -> tuple[float, float]:
    """Normalized-log loss weights: lower loss -> larger weight.

    Each model's score is ``-log`` of its share of the total loss; the
    weights are the normalized scores.  Equal losses give 0.5/0.5.  A
    non-finite loss gets weight 0; with both non-finite the receiver
    keeps its own model.
    """
    if loss_local < 0 or loss_received < 0:
        raise ValueError("losses must be non-negative")
    if not math.isfinite(loss_received):
        return 1.0, 0.0
    if not math.isfinite(loss_local):
        return 0.0, 1.0
    total = loss_local + loss_received
    if total <= 0:
        return 0.5, 0.5
    eps = 1e-6
    score_local = -np.log(max(loss_local / total, eps))
    score_received = -np.log(max(loss_received / total, eps))
    denom = score_local + score_received
    if denom <= 0:
        return 0.5, 0.5
    return float(score_local / denom), float(score_received / denom)


class DpTrainer(TrainerBase):
    """Loss-based gossip merging without coresets."""

    name = "DP"

    def on_scan(self, i: int) -> None:
        """Gossip with a uniformly random idle neighbor, inside ``T_B``."""
        candidates = self.idle_neighbors(i)
        if not candidates:
            return
        rng = self.nodes[i].rng
        j = int(candidates[rng.integers(len(candidates))])
        self.exchange_models(i, j, TIME_BUDGET, self._merge)
        self.counters.add("gossips")

    def _merge(self, receiver: int, sender: int, received_params: np.ndarray) -> None:
        node = self.nodes[receiver]
        # Evaluate both models on a slice of the local dataset, alike:
        # the plain weighted loss (Eq. 6's penalty terms are LbChat's).
        n = len(node.dataset)
        k = min(VALIDATION_SLICE, n)
        idx = node.rng.choice(n, size=k, replace=False)
        val = node.dataset.subset(idx)
        loss_local = node.evaluate(val, with_penalty=False)
        local = node.flat_params.copy()  # the row is scratch space below
        loss_received = node.evaluate_params(received_params, val, with_penalty=False)
        w_local, w_received = powerloss_weights(loss_local, loss_received)
        merged = w_local * local + w_received * received_params
        node.replace_model_params(merged.astype(np.float32))

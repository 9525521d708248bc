"""Model aggregation with coreset-derived weights (Eq. 8).

After receiving the peer's (decompressed) model, a vehicle combines it
with its own model using weights derived from both models' losses on
the joint evaluation set ``D_i ∪ C_j`` — approximated by ``C_i ∪ C_j``
per the ε-coreset union property, which makes the evaluation cheap.

The paper's text states the aggregation "assigns larger weights to
better-performing models"; we therefore weight each model by the
*other's* normalized loss (low own loss → high own weight).  The
printed Eq. 8 multiplies each model by its own loss, which would do the
opposite of the stated intent; DESIGN.md records the discrepancy.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["aggregation_weights", "aggregate_models"]


def aggregation_weights(loss_local: float, loss_received: float) -> tuple[float, float]:
    """(w_local, w_received), each in [0, 1], summing to 1.

    The lower-loss model receives the larger weight; equal losses give
    0.5/0.5.  Degenerate zero losses fall back to an even split.  A
    non-finite loss (a diverged model) gets weight 0, so it never writes
    NaN into the receiver; with both non-finite the receiver keeps its
    own model.
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
    if math.isinf(total):  # two finite losses whose sum overflows
        loss_local, loss_received = loss_local / 2, loss_received / 2
        total = loss_local + loss_received
    return loss_received / total, loss_local / total


def aggregate_models(
    params_local: np.ndarray,
    params_received: np.ndarray,
    loss_local: float,
    loss_received: float,
) -> np.ndarray:
    """Eq. 8: loss-weighted convex combination of parameter vectors."""
    if params_local.shape != params_received.shape:
        raise ValueError(
            f"shape mismatch: {params_local.shape} vs {params_received.shape}"
        )
    w_local, w_received = aggregation_weights(loss_local, loss_received)
    return (w_local * params_local + w_received * params_received).astype(
        params_local.dtype
    )

"""Loss functions returning per-sample values and gradients.

LbChat repeatedly needs *per-sample* losses (coreset layering, Eq. 6,
Eq. 8), so every loss here returns a ``(batch,)`` vector; reductions are
left to the caller.
"""

from __future__ import annotations

import numpy as np

__all__ = ["waypoint_l1", "fleet_waypoint_l1"]


def waypoint_l1(
    pred: np.ndarray, target: np.ndarray, weights: np.ndarray | None = None
) -> tuple[float, np.ndarray, np.ndarray]:
    """Weighted L1 loss over predicted waypoints.

    Parameters
    ----------
    pred, target:
        ``(batch, n_waypoints * 2)`` flattened waypoint offsets.
    weights:
        Optional per-sample weights (coreset weights ``w_C(d)`` or data
        weights ``w(d)``).  Normalized internally so the scalar loss is a
        weighted mean.

    Returns
    -------
    (scalar_loss, per_sample_loss, grad_wrt_pred)
    """
    diff = pred - target
    per_sample = np.abs(diff).mean(axis=1)
    if weights is None:
        weights = np.ones(pred.shape[0], dtype=pred.dtype)
    # Dtype-stable: weights follow the prediction dtype (float32 for the
    # driving model), so the gradient and the cached per-sample losses
    # never silently upcast to float64.
    weights = np.asarray(weights, dtype=pred.dtype)
    total = weights.sum()
    if total <= 0:
        raise ValueError("weights must have positive sum")
    norm = weights / total
    scalar = float(per_sample @ norm)
    grad = np.sign(diff) * (norm[:, None] / diff.shape[1])
    return scalar, per_sample, grad


def fleet_waypoint_l1(
    pred: np.ndarray, target: np.ndarray, weights: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """:func:`waypoint_l1` over a stacked fleet, one node per leading row.

    Parameters
    ----------
    pred, target:
        ``(n_nodes, batch, n_waypoints * 2)`` stacked waypoint offsets
        (``target`` may broadcast, e.g. a shared ``(batch, dim)`` set).
    weights:
        Optional ``(n_nodes, batch)`` per-sample weights, normalized per
        node.

    Returns
    -------
    (scalar_loss_per_node, per_sample_loss, grad_wrt_pred)
        Shapes ``(n_nodes,)``, ``(n_nodes, batch)`` and ``pred.shape``.
        Elementwise this mirrors :func:`waypoint_l1` exactly — same op
        sequence, same dtype — so batched training matches per-node
        training bit-for-bit on the loss side.
    """
    diff = pred - target
    per_sample = np.abs(diff).mean(axis=2)
    if weights is None:
        weights = np.ones(per_sample.shape, dtype=pred.dtype)
    weights = np.asarray(weights, dtype=pred.dtype)
    totals = weights.sum(axis=1, keepdims=True)
    if np.any(totals <= 0):
        raise ValueError("weights must have positive sum for every node")
    norm = weights / totals
    scalars = (per_sample * norm).sum(axis=1)
    grad = np.sign(diff) * (norm[:, :, None] / diff.shape[2])
    return scalars, per_sample, grad

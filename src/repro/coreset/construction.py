"""Layered-sampling coreset construction — Algorithm 1.

The dataset is partitioned into concentric layers (rings) by per-sample
loss under the current model: the "center" is the sample of smallest
loss, the 0-th layer radius is the mean loss ``R = f(x; D)/|D|``, and a
sample at loss-distance ``dist`` from the center lands in layer
``floor(log2(dist / R)) + 1`` (layer 0 holds samples within ``R``).
Each layer then contributes a ``w(d)``-weighted random sample, and the
selected samples of layer ``j`` carry the coreset weight

    w_C(d) = sum_{d' in layer_j} w(d') / sum_{d' in selected_j} w(d'),

exactly as Algorithm 1 line 12 prescribes, so the coreset's weighted
loss estimates the layer's weighted loss.  The construction is
data-independent in size and linear-time, per Wang et al. (NeurIPS'21).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.sim.dataset import DrivingDataset

__all__ = ["Coreset", "layer_assignments", "allocate_layer_quotas", "build_coreset"]

#: Nominal wire size of one coreset frame: 150 frames ~ 0.6 MB (§IV-A).
FRAME_NOMINAL_BYTES = 4096


@dataclass
class Coreset:
    """A weighted mini-dataset plus wire-size accounting.

    ``data`` is a :class:`DrivingDataset` whose per-frame weights are the
    coreset weights ``w_C(d)``.  A receiver absorbs the frames at the
    local convention's weight 1 (§III-D), so the originals ``w(d)`` are
    not carried.
    """

    data: DrivingDataset

    def __len__(self) -> int:
        return len(self.data)

    @property
    def nominal_bytes(self) -> int:
        """Transfer size at paper scale (~0.6 MB for 150 frames)."""
        return len(self.data) * FRAME_NOMINAL_BYTES


def layer_assignments(losses: np.ndarray) -> np.ndarray:
    """Layer index of every sample given its loss (Algorithm 1, l.1-6).

    Layer 0 collects samples whose loss-distance from the center (the
    minimum loss) is within the mean loss ``R``; outer layers double in
    radius, giving at most ``O(log |D|)`` layers.
    """
    losses = np.asarray(losses, dtype=float)
    if losses.ndim != 1 or losses.size == 0:
        raise ValueError("losses must be a non-empty vector")
    if (losses < 0).any():
        raise ValueError("losses must be non-negative")
    center = losses.min()
    radius = losses.mean() if losses.mean() > 0 else 1.0
    dist = losses - center
    layers = np.zeros(losses.size, dtype=np.int64)
    outer = dist > radius
    with np.errstate(divide="ignore"):
        layers[outer] = np.floor(np.log2(dist[outer] / radius)).astype(np.int64) + 1
    return layers


def allocate_layer_quotas(
    layer_weight: np.ndarray, layer_count: np.ndarray, target_size: int
) -> np.ndarray:
    """Split ``target_size`` samples across layers.

    Quotas are proportional to each layer's total data weight — heavier
    layers deserve more representatives — with every non-empty layer
    guaranteed at least one sample and no layer allocated more samples
    than it contains.
    """
    n_layers = len(layer_weight)
    quotas = np.zeros(n_layers, dtype=np.int64)
    nonempty = layer_count > 0
    n_nonempty = int(nonempty.sum())
    if n_nonempty == 0:
        return quotas
    target_size = max(target_size, n_nonempty)
    quotas[nonempty] = 1
    remaining = target_size - n_nonempty
    if remaining > 0:
        mass = np.where(nonempty, layer_weight, 0.0)
        total = mass.sum()
        if total > 0:
            extra = np.floor(remaining * mass / total).astype(np.int64)
            quotas += extra
            # Distribute leftovers to the heaviest layers.
            leftover = remaining - int(extra.sum())
            order = np.argsort(-mass)
            for layer_idx in order[:leftover]:
                quotas[layer_idx] += 1
    return np.minimum(quotas, layer_count)


def build_coreset(
    dataset: DrivingDataset,
    losses: np.ndarray,
    target_size: int,
    rng: np.random.Generator,
) -> Coreset:
    """Algorithm 1: layered-sampling coreset of ``dataset``.

    Parameters
    ----------
    dataset:
        The weighted local dataset ``D``.
    losses:
        Per-sample losses ``f(x; d)`` under the current model, aligned
        with the dataset's frame order.
    target_size:
        Desired ``|C|`` (the paper's default is 150).
    """
    if len(dataset) == 0:
        raise ValueError("cannot build a coreset from an empty dataset")
    losses = np.asarray(losses, dtype=float)
    if losses.size != len(dataset):
        raise ValueError(f"{losses.size} losses for {len(dataset)} samples")
    if target_size >= len(dataset):
        # Degenerate case: the dataset is already small enough.
        return Coreset(dataset.with_weights(dataset.weights))

    weights = dataset.weights
    layers = layer_assignments(losses)
    n_layers = int(layers.max()) + 1
    layer_weight = np.zeros(n_layers)
    layer_count = np.zeros(n_layers, dtype=np.int64)
    for j in range(n_layers):
        mask = layers == j
        layer_count[j] = int(mask.sum())
        layer_weight[j] = float(weights[mask].sum())
    quotas = allocate_layer_quotas(layer_weight, layer_count, target_size)

    chosen_per_layer: list[np.ndarray] = []
    w_c_per_layer: list[np.ndarray] = []
    for j in range(n_layers):
        if quotas[j] == 0:
            continue
        members = np.where(layers == j)[0]
        member_weights = weights[members]
        probs = member_weights / member_weights.sum()
        chosen = rng.choice(members, size=int(quotas[j]), replace=False, p=probs)
        # Algorithm 1 line 12: one ratio per layer.
        w_c = float(layer_weight[j] / weights[chosen].sum())
        chosen_per_layer.append(np.asarray(chosen, dtype=np.int64))
        w_c_per_layer.append(np.full(chosen.size, w_c))
    if chosen_per_layer:
        idx = np.concatenate(chosen_per_layer)
        w_c_all = np.concatenate(w_c_per_layer)
    else:
        idx = np.zeros(0, dtype=np.int64)
        w_c_all = np.zeros(0)
    return Coreset(dataset.subset(idx, weights=w_c_all))

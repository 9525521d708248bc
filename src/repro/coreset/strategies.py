"""Alternative coreset construction strategies (§V, Discussion).

The paper's main method is layered sampling (Algorithm 1), but it notes
that random-sampling-based and clustering-based constructions "can be
adapted in LbChat" since value assessment only needs loss differences on
shared sample sets.  This module provides both alternatives behind the
same interface as :func:`repro.coreset.construction.build_coreset`:

* :func:`uniform_coreset` — w(d)-weighted random sampling with
  importance-style reweighting (the sensitivity-sampling baseline,
  Langberg & Schulman).
* :func:`kmeans_coreset` — cluster samples by (loss, command) features
  and sample per cluster (the clustering-based family, Lu et al.), which
  like layered sampling stratifies by model behaviour but with
  data-driven strata.
"""

from __future__ import annotations

import numpy as np

from repro.coreset.construction import Coreset
from repro.nn.model import N_COMMANDS
from repro.sim.dataset import DrivingDataset

__all__ = ["uniform_coreset", "kmeans_coreset", "CONSTRUCTORS", "build_coreset_with"]


def _select(
    dataset: DrivingDataset, indices: np.ndarray, coreset_weights: np.ndarray
) -> Coreset:
    idx = np.asarray(indices, dtype=np.int64)
    return Coreset(
        data=dataset.subset(idx, weights=np.asarray(coreset_weights, dtype=float)),
        source_weights=dataset.weights[idx],
    )


def uniform_coreset(
    dataset: DrivingDataset,
    losses: np.ndarray,
    target_size: int,
    rng: np.random.Generator,
) -> Coreset:
    """w(d)-weighted random sample with importance reweighting.

    Sample i is drawn with probability proportional to its weight; the
    coreset weight ``w_C(d) = W / (m * p(d)) * p(d)·...`` reduces to the
    classic Horvitz–Thompson form ``W / m`` under weight-proportional
    sampling, keeping the weighted-loss estimator unbiased.
    """
    n = len(dataset)
    if n == 0:
        raise ValueError("cannot build a coreset from an empty dataset")
    if target_size >= n:
        return Coreset(dataset.with_weights(dataset.weights), dataset.weights.copy())
    weights = dataset.weights
    probs = weights / weights.sum()
    indices = rng.choice(n, size=target_size, replace=False, p=probs)
    w_c = np.full(target_size, weights.sum() / target_size)
    return _select(dataset, indices, w_c)


def kmeans_coreset(
    dataset: DrivingDataset,
    losses: np.ndarray,
    target_size: int,
    rng: np.random.Generator,
    n_clusters: int | None = None,
    n_iters: int = 8,
) -> Coreset:
    """Cluster by (normalized loss, command one-hot) and sample per cluster.

    Each cluster contributes representatives proportional to its weight
    mass (at least one), with per-cluster ratio weights as in Algorithm
    1's per-layer formula — clusters are simply data-driven strata.
    """
    n = len(dataset)
    if n == 0:
        raise ValueError("cannot build a coreset from an empty dataset")
    if target_size >= n:
        return Coreset(dataset.with_weights(dataset.weights), dataset.weights.copy())
    losses = np.asarray(losses, dtype=float)
    if losses.size != n:
        raise ValueError(f"{losses.size} losses for {n} samples")
    commands, weights = dataset.commands, dataset.weights

    # Feature space: normalized loss + scaled command one-hot.
    loss_feat = (losses - losses.min()) / max(np.ptp(losses), 1e-9)
    features = np.zeros((n, 1 + N_COMMANDS))
    features[:, 0] = loss_feat
    features[np.arange(n), 1 + commands] = 0.5

    k = n_clusters or max(min(target_size // 3, 8), 2)
    k = min(k, n)
    centers = features[rng.choice(n, size=k, replace=False)]
    assign = np.zeros(n, dtype=int)
    for _ in range(n_iters):
        dists = np.linalg.norm(features[:, None, :] - centers[None, :, :], axis=2)
        assign = dists.argmin(axis=1)
        for c in range(k):
            members = features[assign == c]
            if len(members):
                centers[c] = members.mean(axis=0)

    # Allocate per-cluster quotas by weight mass.
    from repro.coreset.construction import allocate_layer_quotas

    cluster_weight = np.array([weights[assign == c].sum() for c in range(k)])
    cluster_count = np.array([(assign == c).sum() for c in range(k)])
    quotas = allocate_layer_quotas(cluster_weight, cluster_count, target_size)

    indices, w_cs = [], []
    for c in range(k):
        if quotas[c] == 0:
            continue
        members = np.where(assign == c)[0]
        probs = weights[members] / weights[members].sum()
        chosen = rng.choice(members, size=int(quotas[c]), replace=False, p=probs)
        ratio = cluster_weight[c] / weights[chosen].sum()
        indices.extend(chosen.tolist())
        w_cs.extend([ratio] * len(chosen))
    return _select(dataset, np.asarray(indices), np.asarray(w_cs))


def _layered(dataset, losses, target_size, rng):
    from repro.coreset.construction import build_coreset

    return build_coreset(dataset, losses, target_size, rng)


#: Strategy registry: name -> constructor with the common signature.
CONSTRUCTORS = {
    "layered": _layered,
    "uniform": uniform_coreset,
    "kmeans": kmeans_coreset,
}


def build_coreset_with(
    strategy: str,
    dataset: DrivingDataset,
    losses: np.ndarray,
    target_size: int,
    rng: np.random.Generator,
) -> Coreset:
    """Construct a coreset with a named strategy."""
    try:
        constructor = CONSTRUCTORS[strategy]
    except KeyError:
        raise ValueError(
            f"unknown strategy {strategy!r}; choose from {sorted(CONSTRUCTORS)}"
        ) from None
    return constructor(dataset, losses, target_size, rng)

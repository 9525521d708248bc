"""Coresets for continuous-and-bounded learning (§II-B, §III-B, §III-D).

A coreset is a small weighted subset of a dataset whose weighted loss
approximates the full dataset's loss for any model in a bounded region
of parameter space.  LbChat builds coresets by layered sampling
(Algorithm 1), exchanges them during encounters, evaluates models on
them to assess value, absorbs received coresets into local datasets,
and keeps its own coreset fresh with merge-and-reduce updates.
"""

from repro.coreset.construction import (
    Coreset,
    build_coreset,
    layer_assignments,
)
from repro.coreset.merge import merge_coresets, reduce_coreset
from repro.coreset.penalty import (
    command_loss_entropy,
    penalized_loss,
    penalized_losses,
)
from repro.coreset.verify import relative_coreset_error
from repro.coreset.strategies import build_coreset_with, kmeans_coreset, uniform_coreset
from repro.coreset.theory import coreset_size_bound, epsilon_for_size

__all__ = [
    "build_coreset_with",
    "uniform_coreset",
    "kmeans_coreset",
    "coreset_size_bound",
    "epsilon_for_size",
    "Coreset",
    "build_coreset",
    "layer_assignments",
    "merge_coresets",
    "reduce_coreset",
    "penalized_loss",
    "penalized_losses",
    "command_loss_entropy",
    "relative_coreset_error",
]

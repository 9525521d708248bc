"""Tests for empirical ε-coreset verification."""

import numpy as np

from repro.coreset import build_coreset, relative_coreset_error
from repro.coreset.verify import weighted_dataset_loss
from repro.nn.params import get_flat_params


class TestWeightedDatasetLoss:
    def test_positive_on_untrained_model(self, node):
        assert weighted_dataset_loss(node.detached_model(), node.dataset) > 0

    def test_weight_sensitivity(self, node):
        base = weighted_dataset_loss(node.detached_model(), node.dataset)
        losses = node.per_sample_losses(node.dataset)
        # Up-weight the highest-loss frame heavily: loss must rise.
        weights = np.ones(len(node.dataset))
        weights[np.argmax(losses)] = 100.0
        reweighted = node.dataset.with_weights(weights)
        assert weighted_dataset_loss(node.detached_model(), reweighted) > base


class TestRelativeCoresetError:
    def test_whole_dataset_zero_error(self, node):
        losses = node.per_sample_losses(node.dataset)
        coreset = build_coreset(node.dataset, losses, len(node.dataset) + 10, np.random.default_rng(0))
        err = relative_coreset_error(node.detached_model(), node.dataset, coreset)
        assert err < 1e-6

    def test_reasonable_coreset_small_error(self, node):
        losses = node.per_sample_losses(node.dataset)
        coreset = build_coreset(node.dataset, losses, 40, np.random.default_rng(0))
        err = relative_coreset_error(node.detached_model(), node.dataset, coreset)
        assert err < 0.35

    def test_probing_ball_restores_params(self, node):
        losses = node.per_sample_losses(node.dataset)
        coreset = build_coreset(node.dataset, losses, 20, np.random.default_rng(0))
        model = node.detached_model()
        before = get_flat_params(model).copy()
        relative_coreset_error(model, node.dataset, coreset, radius=0.5, n_probes=3)
        assert np.array_equal(get_flat_params(model), before)

    def test_larger_coreset_not_worse_on_average(self, node):
        losses = node.per_sample_losses(node.dataset)
        rng_small = np.random.default_rng(1)
        rng_big = np.random.default_rng(1)
        errs_small, errs_big = [], []
        for trial in range(5):
            small = build_coreset(node.dataset, losses, 8, rng_small)
            big = build_coreset(node.dataset, losses, 48, rng_big)
            errs_small.append(relative_coreset_error(node.detached_model(), node.dataset, small))
            errs_big.append(relative_coreset_error(node.detached_model(), node.dataset, big))
        assert np.mean(errs_big) <= np.mean(errs_small) + 0.05

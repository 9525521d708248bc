"""Tests for alternative coreset construction strategies (§V)."""

import numpy as np
import pytest

from repro.coreset.strategies import (
    CONSTRUCTORS,
    build_coreset_with,
    kmeans_coreset,
    uniform_coreset,
)
from repro.coreset.verify import relative_coreset_error, weighted_dataset_loss


@pytest.fixture
def losses(node):
    return node.per_sample_losses(node.dataset)


class TestUniform:
    def test_size_exact(self, node, losses):
        coreset = uniform_coreset(node.dataset, losses, 15, np.random.default_rng(0))
        assert len(coreset) == 15

    def test_weight_mass_preserved(self, node, losses):
        coreset = uniform_coreset(node.dataset, losses, 15, np.random.default_rng(0))
        assert coreset.data.weights.sum() == pytest.approx(
            node.dataset.weights.sum(), rel=1e-6
        )

    def test_small_dataset_whole(self, node, losses):
        small = node.dataset.subset(range(4))
        coreset = uniform_coreset(small, losses[:4], 100, np.random.default_rng(0))
        assert len(coreset) == 4

    def test_empty_rejected(self):
        from repro.sim.dataset import DrivingDataset

        with pytest.raises(ValueError):
            uniform_coreset(DrivingDataset(), np.zeros(0), 5, np.random.default_rng(0))

    def test_approximates_loss(self, node, losses):
        errs = [
            relative_coreset_error(
                node.detached_model(),
                node.dataset,
                uniform_coreset(node.dataset, losses, 30, np.random.default_rng(s)),
            )
            for s in range(5)
        ]
        assert np.mean(errs) < 0.4


class TestKmeans:
    def test_size_close(self, node, losses):
        coreset = kmeans_coreset(node.dataset, losses, 15, np.random.default_rng(0))
        assert 10 <= len(coreset) <= 20

    def test_weights_positive(self, node, losses):
        coreset = kmeans_coreset(node.dataset, losses, 15, np.random.default_rng(0))
        assert (coreset.data.weights > 0).all()

    def test_approximates_loss(self, node, losses):
        errs = [
            relative_coreset_error(
                node.detached_model(),
                node.dataset,
                kmeans_coreset(node.dataset, losses, 30, np.random.default_rng(s)),
            )
            for s in range(5)
        ]
        assert np.mean(errs) < 0.4

    def test_loss_mismatch_rejected(self, node):
        with pytest.raises(ValueError):
            kmeans_coreset(node.dataset, np.zeros(3), 10, np.random.default_rng(0))


class TestRegistry:
    def test_all_strategies_runnable(self, node, losses):
        for name in CONSTRUCTORS:
            coreset = build_coreset_with(
                name, node.dataset, losses, 12, np.random.default_rng(1)
            )
            assert len(coreset) > 0
            # Every strategy produces a usable loss estimate.
            full = weighted_dataset_loss(node.detached_model(), node.dataset)
            approx = weighted_dataset_loss(node.detached_model(), coreset.data)
            assert abs(approx - full) / full < 1.0

    def test_unknown_strategy(self, node, losses):
        with pytest.raises(ValueError):
            build_coreset_with("magic", node.dataset, losses, 5, np.random.default_rng(0))

    def test_node_level_strategy_config(self, fleet_datasets):
        from tests.conftest import make_node

        for strategy in ("layered", "uniform", "kmeans"):
            node = make_node(
                "v0", fleet_datasets["v0"], coreset_strategy=strategy
            )
            assert len(node.coreset) > 0

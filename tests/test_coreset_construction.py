"""Unit tests for Algorithm 1: layered-sampling coreset construction."""

import numpy as np
import pytest

from repro.coreset import build_coreset, layer_assignments
from repro.coreset.construction import allocate_layer_quotas
from repro.coreset.verify import weighted_dataset_loss


class TestLayerAssignments:
    def test_minimum_loss_in_layer_zero(self):
        losses = np.array([0.1, 0.5, 2.0, 8.0])
        layers = layer_assignments(losses)
        assert layers[0] == 0

    def test_layers_monotone_with_loss(self):
        losses = np.array([0.1, 0.2, 1.0, 4.0, 16.0])
        layers = layer_assignments(losses)
        assert all(a <= b for a, b in zip(layers, layers[1:]))

    def test_layer_count_logarithmic(self):
        rng = np.random.default_rng(0)
        losses = rng.uniform(0, 100, 1000)
        layers = layer_assignments(losses)
        assert layers.max() <= np.log2(1000) + 2

    def test_uniform_losses_single_layer(self):
        layers = layer_assignments(np.full(10, 3.0))
        assert (layers == 0).all()

    def test_doubling_radius_structure(self):
        # center=0, R=mean; distances R*2^k land in layer k+1.
        losses = np.array([0.0, 1.0, 2.0, 4.0, 8.0])
        layers = layer_assignments(losses)
        radius = losses.mean()
        expected = [0 if (l - 0) <= radius else int(np.floor(np.log2(l / radius))) + 1 for l in losses]
        assert layers.tolist() == expected

    def test_rejects_negative_losses(self):
        with pytest.raises(ValueError):
            layer_assignments(np.array([-1.0, 1.0]))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            layer_assignments(np.zeros(0))


class TestQuotaAllocation:
    def test_every_nonempty_layer_gets_one(self):
        quotas = allocate_layer_quotas(
            np.array([100.0, 1.0, 0.0]), np.array([50, 5, 0]), target_size=4
        )
        assert quotas[0] >= 1 and quotas[1] >= 1 and quotas[2] == 0

    def test_total_close_to_target(self):
        weight = np.array([10.0, 30.0, 60.0])
        count = np.array([100, 100, 100])
        quotas = allocate_layer_quotas(weight, count, 50)
        assert quotas.sum() == 50

    def test_heavier_layers_get_more(self):
        quotas = allocate_layer_quotas(
            np.array([10.0, 90.0]), np.array([100, 100]), 20
        )
        assert quotas[1] > quotas[0]

    def test_never_exceeds_layer_population(self):
        quotas = allocate_layer_quotas(np.array([1.0, 99.0]), np.array([2, 100]), 50)
        assert quotas[0] <= 2

    def test_all_empty(self):
        quotas = allocate_layer_quotas(np.zeros(3), np.zeros(3, dtype=int), 10)
        assert quotas.sum() == 0


class TestBuildCoreset:
    def test_size_close_to_target(self, node):
        losses = node.per_sample_losses(node.dataset)
        coreset = build_coreset(node.dataset, losses, 15, np.random.default_rng(0))
        assert 10 <= len(coreset) <= 20

    def test_small_dataset_returned_whole(self, node):
        small = node.dataset.subset(range(5))
        losses = node.per_sample_losses(small)
        coreset = build_coreset(small, losses, 100, np.random.default_rng(0))
        assert len(coreset) == 5

    def test_loss_count_mismatch_rejected(self, node):
        with pytest.raises(ValueError):
            build_coreset(node.dataset, np.zeros(3), 10, np.random.default_rng(0))

    def test_empty_dataset_rejected(self):
        from repro.sim.dataset import DrivingDataset

        with pytest.raises(ValueError):
            build_coreset(DrivingDataset(), np.zeros(0), 10, np.random.default_rng(0))

    def test_coreset_approximates_dataset_loss(self, node):
        losses = node.per_sample_losses(node.dataset)
        coreset = build_coreset(node.dataset, losses, 30, np.random.default_rng(0))
        full = weighted_dataset_loss(node.detached_model(), node.dataset)
        approx = weighted_dataset_loss(node.detached_model(), coreset.data)
        assert abs(approx - full) / full < 0.5

    def test_coreset_weights_positive(self, node):
        losses = node.per_sample_losses(node.dataset)
        coreset = build_coreset(node.dataset, losses, 15, np.random.default_rng(0))
        assert (coreset.data.weights > 0).all()

    def test_layer_weight_ratio_formula(self):
        """w_C for a layer equals layer weight / selected weight sum."""
        from repro.sim.dataset import DrivingDataset, Frame

        frames = [
            Frame(f"f{i}", np.zeros((1, 2, 2), np.float32), 0, np.zeros(2, np.float32), 1.0)
            for i in range(20)
        ]
        ds = DrivingDataset(frames)
        losses = np.full(20, 2.0)  # one layer
        coreset = build_coreset(ds, losses, 5, np.random.default_rng(0))
        # Uniform weights: w_C = 20 / 5 = 4 for every selected sample.
        assert np.allclose(coreset.data.weights, 20 / len(coreset))

    def test_nominal_bytes_scale_with_size(self, node):
        losses = node.per_sample_losses(node.dataset)
        small = build_coreset(node.dataset, losses, 10, np.random.default_rng(0))
        big = build_coreset(node.dataset, losses, 40, np.random.default_rng(0))
        assert big.nominal_bytes > small.nominal_bytes

    def test_deterministic_given_rng(self, node):
        losses = node.per_sample_losses(node.dataset)
        a = build_coreset(node.dataset, losses, 15, np.random.default_rng(42))
        b = build_coreset(node.dataset, losses, 15, np.random.default_rng(42))
        assert a.data.ids == b.data.ids

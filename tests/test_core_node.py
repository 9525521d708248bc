"""Unit tests for VehicleNode."""

import numpy as np
import pytest

from repro.compression import compress_topk
from repro.sim.dataset import DrivingDataset
from tests.conftest import make_node


class TestTraining:
    def test_train_step_returns_loss(self, node):
        loss = node.train_step()
        assert loss > 0

    def test_training_reduces_loss(self, node):
        first = node.evaluate(node.dataset, with_penalty=False)
        for _ in range(60):
            node.train_step()
        assert node.evaluate(node.dataset, with_penalty=False) < first

    def test_version_bumps_per_step(self, node):
        v0 = node.model_version
        node.train_step()
        assert node.model_version == v0 + 1

    def test_empty_dataset_rejected(self, fleet_datasets):
        with pytest.raises(ValueError):
            make_node("vX", DrivingDataset())


class TestLossCache:
    def test_cache_consistent_with_direct_eval(self, node):
        losses_a = node.per_sample_losses(node.dataset)
        losses_b = node.per_sample_losses(node.dataset)  # cached path
        assert np.allclose(losses_a, losses_b)

    def test_cache_invalidated_by_training(self, node):
        before = node.per_sample_losses(node.dataset).copy()
        for _ in range(30):
            node.train_step()
        after = node.per_sample_losses(node.dataset)
        assert not np.allclose(before, after)

    def test_partial_cache_hits(self, node):
        subset = node.dataset.subset(range(5))
        node.per_sample_losses(subset)
        full = node.per_sample_losses(node.dataset)
        direct = []
        bev, cmds, tgts, _ = node.dataset.arrays()
        pred = node.detached_model().forward(bev, cmds)
        from repro.nn import waypoint_l1

        _, per, _ = waypoint_l1(pred, tgts)
        assert np.allclose(full, per, atol=1e-5)


class TestEvaluate:
    def test_penalty_increases_loss(self, node):
        with_p = node.evaluate(node.dataset, with_penalty=True)
        without = node.evaluate(node.dataset, with_penalty=False)
        assert with_p >= without

    def test_evaluate_model_on_matches_self(self, node):
        a = node.evaluate(node.coreset.data, with_penalty=True)
        b = node.evaluate_model_on(node.detached_model(), node.coreset.data)
        assert a == pytest.approx(b, rel=1e-5)


class TestCoresetLifecycle:
    def test_initial_coreset_built(self, node):
        assert 0 < len(node.coreset) <= len(node.dataset)

    def test_refresh_after_steps(self, fleet_datasets):
        node = make_node("v0", fleet_datasets["v0"], coreset_refresh_steps=3)
        ids_before = node.coreset.data.ids
        for _ in range(4):
            node.train_step()
        node.maybe_refresh_coreset()
        # Refresh ran (steps-since-refresh reset); contents may differ.
        assert node._steps_since_refresh == 0

    def test_absorb_grows_dataset(self, node_pair):
        node_a, node_b = node_pair
        before = len(node_a.dataset)
        added = node_a.absorb_coreset(node_b.coreset)
        assert added == len(node_b.coreset)
        assert len(node_a.dataset) == before + added

    def test_absorb_idempotent(self, node_pair):
        node_a, node_b = node_pair
        node_a.absorb_coreset(node_b.coreset)
        again = node_a.absorb_coreset(node_b.coreset)
        assert again == 0

    def test_absorbed_frames_have_unit_weight(self, node_pair):
        node_a, node_b = node_pair
        peer_ids = set(node_b.coreset.data.ids)
        node_a.absorb_coreset(node_b.coreset)
        for i, frame_id in enumerate(node_a.dataset.ids):
            if frame_id in peer_ids:
                assert node_a.dataset.frame(i).weight == 1.0

    def test_merge_reduce_keeps_coreset_bounded(self, fleet_datasets):
        node_a = make_node("v0", fleet_datasets["v0"], coreset_size=10)
        node_b = make_node("v1", fleet_datasets["v1"], coreset_size=10, seed=6)
        node_a.absorb_coreset(node_b.coreset)
        assert len(node_a.coreset) <= 14


class TestModelExchange:
    def test_compress_model_roundtrip_size(self, node):
        compressed = node.compress_model(0.5)
        assert compressed.psi == pytest.approx(0.5, abs=0.02)

    def test_receive_better_model_improves(self, node_pair):
        node_a, node_b = node_pair
        for _ in range(80):
            node_b.train_step()
        eval_set = node_a.coreset.data
        before = node_a.evaluate(eval_set, with_penalty=False)
        compressed = node_b.compress_model(1.0)
        node_a.receive_and_aggregate(compressed, eval_set)
        after = node_a.evaluate(eval_set, with_penalty=False)
        assert after < before

    def test_receive_weights_favor_better_model(self, node_pair):
        node_a, node_b = node_pair
        for _ in range(80):
            node_b.train_step()
        compressed = node_b.compress_model(1.0)
        w_local, w_received = node_a.receive_and_aggregate(
            compressed, node_a.coreset.data
        )
        assert w_received > w_local

    def test_mean_weights_override(self, node_pair):
        node_a, node_b = node_pair
        compressed = node_b.compress_model(1.0)
        weights = node_a.receive_and_aggregate(
            compressed, node_a.coreset.data, mean_weights=True
        )
        assert weights == (0.5, 0.5)

    def test_sparse_receive_overlays_local(self, node_pair):
        node_a, node_b = node_pair
        local_before = node_a.flat_params.copy()
        compressed = node_b.compress_model(0.1)
        node_a.receive_and_aggregate(compressed, node_a.coreset.data, mean_weights=True)
        merged = node_a.flat_params
        untouched = np.setdiff1d(np.arange(len(merged)), compressed.indices)
        # Unsent coordinates: merged = 0.5*local + 0.5*local = local.
        assert np.allclose(merged[untouched], local_before[untouched], atol=1e-6)

    def test_replace_model_params(self, node):
        target = np.zeros_like(node.flat_params)
        node.replace_model_params(target)
        assert np.allclose(node.flat_params, 0.0)

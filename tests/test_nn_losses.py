"""Unit tests for loss functions."""

import numpy as np
import pytest

from repro.nn import fleet_waypoint_l1, waypoint_l1


class TestWaypointL1:
    def test_unweighted_matches_mean(self):
        pred = np.array([[1.0, 1.0], [3.0, 3.0]])
        target = np.zeros((2, 2))
        scalar, per, _ = waypoint_l1(pred, target)
        assert per.tolist() == [1.0, 3.0]
        assert scalar == pytest.approx(2.0)

    def test_weights_shift_scalar(self):
        pred = np.array([[1.0, 1.0], [3.0, 3.0]])
        target = np.zeros((2, 2))
        scalar, _, _ = waypoint_l1(pred, target, weights=np.array([3.0, 1.0]))
        assert scalar == pytest.approx((3 * 1 + 1 * 3) / 4)

    def test_zero_weight_sum_rejected(self):
        with pytest.raises(ValueError):
            waypoint_l1(np.ones((1, 2)), np.zeros((1, 2)), weights=np.array([0.0]))

    def test_gradient_respects_weights(self):
        pred = np.array([[1.0], [1.0]])
        target = np.zeros((2, 1))
        _, _, grad = waypoint_l1(pred, target, weights=np.array([1.0, 0.0]))
        assert grad[1, 0] == 0.0
        assert grad[0, 0] > 0.0

    def test_descent_reduces_loss(self):
        rng = np.random.default_rng(0)
        pred = rng.normal(size=(8, 6)).astype(np.float32)
        target = np.zeros((8, 6), dtype=np.float32)
        scalar0, _, grad = waypoint_l1(pred, target)
        scalar1, _, _ = waypoint_l1(pred - 0.5 * np.sign(grad) * 0.1, target)
        assert scalar1 < scalar0


class TestWaypointL1Dtype:
    def test_float32_end_to_end(self):
        # The driving model is float32 throughout; the loss must not
        # silently upcast the per-sample vector or the gradient even
        # when the caller passes float64 weights.
        pred = np.ones((4, 6), dtype=np.float32)
        target = np.zeros((4, 6), dtype=np.float32)
        weights = np.array([1.0, 2.0, 1.0, 0.5])  # float64 on purpose
        _, per_sample, grad = waypoint_l1(pred, target, weights=weights)
        assert per_sample.dtype == np.float32
        assert grad.dtype == np.float32
        _, per_unweighted, grad_unweighted = waypoint_l1(pred, target)
        assert per_unweighted.dtype == np.float32
        assert grad_unweighted.dtype == np.float32


class TestFleetWaypointL1:
    def test_matches_per_node_loss(self):
        rng = np.random.default_rng(0)
        pred = rng.normal(size=(3, 5, 6)).astype(np.float32)
        target = rng.normal(size=(3, 5, 6)).astype(np.float32)
        weights = rng.uniform(0.5, 2.0, size=(3, 5)).astype(np.float32)
        scalars, per_sample, grad = fleet_waypoint_l1(pred, target, weights)
        for row in range(3):
            scalar, per, g = waypoint_l1(pred[row], target[row], weights[row])
            assert scalars[row] == pytest.approx(scalar, rel=1e-6)
            np.testing.assert_array_equal(per_sample[row], per)
            np.testing.assert_array_equal(grad[row], g)

    def test_float32_end_to_end(self):
        pred = np.ones((2, 3, 4), dtype=np.float32)
        target = np.zeros((2, 3, 4), dtype=np.float32)
        scalars, per_sample, grad = fleet_waypoint_l1(pred, target)
        assert scalars.dtype == np.float32
        assert per_sample.dtype == np.float32
        assert grad.dtype == np.float32

    def test_shared_target_broadcasts(self):
        pred = np.ones((2, 3, 4), dtype=np.float32)
        target = np.zeros((3, 4), dtype=np.float32)
        scalars, _, grad = fleet_waypoint_l1(pred, target)
        assert scalars.shape == (2,)
        assert grad.shape == pred.shape

    def test_zero_weight_sum_rejected_per_node(self):
        pred = np.ones((2, 2, 2), dtype=np.float32)
        target = np.zeros((2, 2, 2), dtype=np.float32)
        weights = np.array([[1.0, 1.0], [0.0, 0.0]], dtype=np.float32)
        with pytest.raises(ValueError):
            fleet_waypoint_l1(pred, target, weights)

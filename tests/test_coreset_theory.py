"""Tests for the coreset size-bound helpers."""

import numpy as np
import pytest

from repro.coreset.theory import (
    coreset_size_bound,
    epsilon_for_size,
    estimate_lipschitz,
    loss_infimum_term,
)


class TestSizeBound:
    def test_grows_with_dataset_logarithmically(self):
        small = coreset_size_bound(1_000, 0.1, ddim=10)
        big = coreset_size_bound(1_000_000, 0.1, ddim=10)
        assert big > small
        assert big < small * 3  # log growth, not linear

    def test_shrinking_epsilon_explodes_size(self):
        loose = coreset_size_bound(1_000, 0.5, ddim=10)
        tight = coreset_size_bound(1_000, 0.05, ddim=10)
        assert tight > loose * 20

    def test_ddim_scales_linearly(self):
        lo = coreset_size_bound(1_000, 0.1, ddim=5, eta=0.5)
        hi = coreset_size_bound(1_000, 0.1, ddim=50, eta=0.5)
        assert 5 < hi / lo < 15

    def test_higher_confidence_costs_more(self):
        assert coreset_size_bound(1_000, 0.1, 10, eta=0.01) > coreset_size_bound(
            1_000, 0.1, 10, eta=0.5
        )

    @pytest.mark.parametrize("epsilon", [0.0, 1.0, -0.5])
    def test_invalid_epsilon(self, epsilon):
        with pytest.raises(ValueError):
            coreset_size_bound(100, epsilon, 10)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            coreset_size_bound(0, 0.1, 10)
        with pytest.raises(ValueError):
            coreset_size_bound(100, 0.1, -1)
        with pytest.raises(ValueError):
            coreset_size_bound(100, 0.1, 10, eta=0.0)


class TestEpsilonForSize:
    def test_roundtrip_consistency(self):
        n, ddim = 10_000, 8
        epsilon = epsilon_for_size(n, 5_000, ddim)
        implied = coreset_size_bound(n, epsilon, ddim)
        assert implied <= 5_000
        slightly_tighter = coreset_size_bound(n, epsilon * 0.9, ddim)
        assert slightly_tighter > 5_000 * 0.8

    def test_bigger_coreset_gives_smaller_epsilon(self):
        n, ddim = 10_000, 8
        assert epsilon_for_size(n, 20_000, ddim) < epsilon_for_size(n, 2_000, ddim)

    def test_tiny_coreset_saturates(self):
        assert epsilon_for_size(10_000, 1, ddim=8) == pytest.approx(0.999)

    def test_invalid_size(self):
        with pytest.raises(ValueError):
            epsilon_for_size(100, 0, 10)


class TestEmpiricalEstimates:
    def test_lipschitz_positive_and_restores(self, node):
        from repro.nn.params import get_flat_params

        model = node.detached_model()
        before = get_flat_params(model).copy()
        alpha = estimate_lipschitz(
            model,
            lambda m: node.evaluate_model_on(m, node.coreset.data),
            n_probes=4,
        )
        assert alpha > 0
        assert np.array_equal(get_flat_params(model), before)

    def test_loss_infimum_mean(self):
        assert loss_infimum_term(np.array([1.0, 3.0])) == 2.0

    def test_loss_infimum_empty_rejected(self):
        with pytest.raises(ValueError):
            loss_infimum_term(np.zeros(0))

    def test_penalty_raises_infimum(self, node):
        """Eq. 6's L2 term keeps the objective away from zero."""
        raw = node.evaluate(node.coreset.data, with_penalty=False)
        penalized = node.evaluate(node.coreset.data, with_penalty=True)
        assert penalized >= raw

"""Tests for coreset merge/reduce and the Eq. 6 penalized loss."""

import numpy as np
import pytest

from repro.coreset import (
    build_coreset,
    command_loss_entropy,
    merge_coresets,
    penalized_loss,
    penalized_losses,
    reduce_coreset,
)
from repro.coreset import penalty


def set_penalty(monkeypatch, lambda_l2: float, lambda_entropy: float) -> None:
    """Run Eq. 6 with other coefficients than §III-B's."""
    monkeypatch.setattr(penalty, "LAMBDA_L2", lambda_l2)
    monkeypatch.setattr(penalty, "LAMBDA_ENTROPY", lambda_entropy)


@pytest.fixture
def two_coresets(node_pair):
    node_a, node_b = node_pair
    rng = np.random.default_rng(0)
    cs_a = build_coreset(node_a.dataset, node_a.per_sample_losses(node_a.dataset), 10, rng)
    cs_b = build_coreset(node_b.dataset, node_b.per_sample_losses(node_b.dataset), 10, rng)
    return cs_a, cs_b


class TestMerge:
    def test_union_size(self, two_coresets):
        a, b = two_coresets
        merged = merge_coresets(a, b)
        assert len(merged) == len(a) + len(b)  # disjoint ids

    def test_weights_preserved(self, two_coresets):
        a, b = two_coresets
        merged = merge_coresets(a, b)
        assert np.allclose(
            merged.data.weights, np.concatenate([a.data.weights, b.data.weights])
        )

    def test_duplicate_ids_kept_once(self, two_coresets):
        a, _ = two_coresets
        merged = merge_coresets(a, a)
        assert len(merged) == len(a)

    def test_a_duplicate_mid_b_leaves_every_weight_on_its_frame(self):
        """``b``'s frames after a duplicate keep their own weights, and
        the duplicate keeps ``a``'s."""
        from repro.coreset import Coreset
        from repro.sim.dataset import DrivingDataset, Frame

        def coreset(weights: dict[str, float]) -> Coreset:
            bev, waypoints = np.zeros((2, 3, 3), np.float32), np.zeros(4, np.float32)
            return Coreset(
                DrivingDataset([Frame(fid, bev, 0, waypoints, w) for fid, w in weights.items()])
            )

        merged = merge_coresets(
            coreset({"f0": 10.0, "f1": 11.0}), coreset({"f1": 21.0, "f2": 22.0, "f3": 23.0})
        )
        assert merged.data.ids == ["f0", "f1", "f2", "f3"]
        assert merged.data.weights.tolist() == [10.0, 11.0, 22.0, 23.0]


class TestReduce:
    def test_reduces_to_target(self, node, two_coresets):
        a, b = two_coresets
        merged = merge_coresets(a, b)
        losses = node.per_sample_losses(merged.data)
        reduced = reduce_coreset(merged, losses, 10, np.random.default_rng(1))
        assert len(reduced) <= 12

    def test_small_coreset_untouched(self, node, two_coresets):
        a, _ = two_coresets
        losses = node.per_sample_losses(a.data)
        out = reduce_coreset(a, losses, 100, np.random.default_rng(1))
        assert out is a


class TestCommandLossEntropy:
    def test_balanced_losses_zero(self):
        losses = np.array([1.0, 1.0, 1.0, 1.0])
        commands = np.array([0, 1, 2, 3])
        assert command_loss_entropy(losses, commands) == pytest.approx(0.0, abs=1e-9)

    def test_concentrated_losses_positive(self):
        losses = np.array([10.0, 0.01, 0.01, 0.01])
        commands = np.array([0, 1, 2, 3])
        assert command_loss_entropy(losses, commands) > 0.5

    def test_single_command_zero(self):
        assert command_loss_entropy(np.array([1.0, 2.0]), np.array([0, 0])) == 0.0

    def test_absent_commands_excluded(self):
        # Only two commands present: max imbalance is log(2), not log(4).
        losses = np.array([10.0, 0.001])
        commands = np.array([0, 1])
        value = command_loss_entropy(losses, commands)
        assert value <= np.log(2) + 1e-9

    def test_zero_losses_zero(self):
        assert command_loss_entropy(np.zeros(4), np.array([0, 1, 2, 3])) == 0.0


class TestPenalizedLoss:
    def test_reduces_to_weighted_mean_when_disabled(self, model, monkeypatch):
        set_penalty(monkeypatch, 0.0, 0.0)
        losses = np.array([1.0, 3.0])
        value = penalized_loss(model, losses, np.array([0, 1]), np.array([1.0, 1.0]))
        assert value == pytest.approx(2.0)

    def test_l2_term_added(self, model, monkeypatch):
        from repro.nn.params import get_flat_params

        set_penalty(monkeypatch, 0.5, 0.0)
        losses = np.array([1.0])
        value = penalized_loss(model, losses, np.array([0]), np.array([1.0]))
        expected = 1.0 + 0.5 * np.linalg.norm(get_flat_params(model))
        assert value == pytest.approx(expected, rel=1e-5)

    def test_entropy_term_added(self, model, monkeypatch):
        set_penalty(monkeypatch, 0.0, 1.0)
        losses = np.array([10.0, 0.01])
        commands = np.array([0, 1])
        value = penalized_loss(model, losses, commands, np.ones(2))
        assert value > losses.mean()

    def test_weights_respected(self, model, monkeypatch):
        set_penalty(monkeypatch, 0.0, 0.0)
        losses = np.array([1.0, 3.0])
        value = penalized_loss(model, losses, np.array([0, 1]), np.array([3.0, 1.0]))
        assert value == pytest.approx(1.5)

    def test_zero_weight_sum_rejected(self, model):
        with pytest.raises(ValueError):
            penalized_loss(model, np.ones(2), np.zeros(2, int), np.zeros(2))

    def test_enabled_flag(self):
        """Both §III-B terms are on in every run."""
        assert penalty.LAMBDA_L2 > 0 and penalty.LAMBDA_ENTROPY > 0


def eq6_one_model(flat, per_sample_losses, commands, weights):
    """Eq. 6 for one model, a command mask at a time: the statement
    :func:`penalized_losses` must equal on every row."""
    weights = np.asarray(weights, dtype=float)
    value = float(per_sample_losses @ (weights / weights.sum()))
    if penalty.LAMBDA_L2 > 0:
        value += penalty.LAMBDA_L2 * float(np.linalg.norm(flat))
    if penalty.LAMBDA_ENTROPY > 0:
        losses = np.asarray(per_sample_losses, dtype=float)
        means = [losses[commands == cmd].mean() for cmd in range(4) if (commands == cmd).any()]
        q = np.asarray(means)
        if len(means) > 1 and q.sum() > 0:
            q = q / q.sum()
            entropy = float(-(q * np.log(np.clip(q, 1e-12, None))).sum())
            value += penalty.LAMBDA_ENTROPY * float(np.log(len(means)) - entropy)
    return value


#: ``(LAMBDA_L2, LAMBDA_ENTROPY)``: §III-B's pair, each term alone, neither.
PENALTIES = {
    "both": (1e-4, 0.05),
    "l2": (1e-4, 0.0),
    "entropy": (0.0, 0.05),
    "none": (0.0, 0.0),
}


class TestEq6OverRows:
    """Seven probe rows through one statement against Eq. 6 per row."""

    @staticmethod
    def rows(seed, n, dtype, commands=None, zero_rows=()):
        rng = np.random.default_rng(seed)
        losses = rng.uniform(0.0, 3.0, (7, n)).astype(dtype)
        losses[list(zero_rows)] = 0.0
        if commands is None:
            commands = rng.integers(0, 4, n)
        weights = rng.uniform(0.5, 2.0, n)
        params = rng.normal(size=(7, 500)).astype(np.float32)
        return params, losses, np.asarray(commands), weights

    @pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["f32", "f64"])
    @pytest.mark.parametrize("penalty", sorted(PENALTIES))
    @pytest.mark.parametrize("n", [1, 5, 12, 150, 1000])
    def test_rows_equal_eq6_per_row(self, penalty, dtype, n, monkeypatch):
        set_penalty(monkeypatch, *PENALTIES[penalty])
        for seed in range(6):
            params, losses, commands, weights = self.rows(seed, n, dtype)
            got = penalized_losses(params, losses, commands, weights)
            assert got.dtype == np.float64 and got.shape == (7,)
            for row in range(7):
                args = (params[row], losses[row], commands, weights)
                assert got[row] == eq6_one_model(*args) == penalized_loss(*args)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["f32", "f64"])
    @pytest.mark.parametrize(
        "commands, zero_rows",
        [
            (np.arange(40) % 3, ()),  # command 3 absent
            (np.where(np.arange(40) % 2, 1, 3), ()),  # commands 0 and 2 absent
            (np.full(40, 2), ()),  # one command: entropy term 0
            (np.arange(40) % 4, (0, 3, 6)),  # all-zero losses: total <= 0
        ],
        ids=["one-absent", "two-absent", "single-command", "zero-loss-rows"],
    )
    def test_degenerate_command_sets(self, commands, zero_rows, dtype, monkeypatch):
        params, losses, commands, weights = self.rows(9, 40, dtype, commands, zero_rows)
        for lambdas in PENALTIES.values():
            set_penalty(monkeypatch, *lambdas)
            got = penalized_losses(params, losses, commands, weights)
            for row in range(7):
                args = (params[row], losses[row], commands, weights)
                assert got[row] == eq6_one_model(*args) == penalized_loss(*args)
        entropies = command_loss_entropy(losses, commands)
        assert entropies.shape == (7,)
        assert all(entropies[row] == 0.0 for row in zero_rows)
        if len(set(commands.tolist())) == 1:
            assert not entropies.any()

    @pytest.mark.parametrize("penalty", sorted(PENALTIES))
    def test_non_positive_weight_sum_still_raises(self, penalty, monkeypatch):
        set_penalty(monkeypatch, *PENALTIES[penalty])
        params, losses, commands, _ = self.rows(1, 10, np.float32)
        for weights in (np.zeros(10), -np.ones(10)):
            with pytest.raises(ValueError, match="positive sum"):
                penalized_losses(params, losses, commands, weights)

    @pytest.mark.parametrize("penalty", sorted(PENALTIES))
    def test_given_norms_stand_in_for_the_rows(self, penalty, monkeypatch):
        """The psi probe hands the L2 norms, not the rows: the same
        norms give the same bits."""
        set_penalty(monkeypatch, *PENALTIES[penalty])
        params, losses, commands, weights = self.rows(4, 150, np.float32)
        norms = np.array([float(np.linalg.norm(row)) for row in params])
        got = penalized_losses(None, losses, commands, weights, norms=norms)
        assert got.tobytes() == penalized_losses(params, losses, commands, weights).tobytes()

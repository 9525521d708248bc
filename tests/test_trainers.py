"""Integration tests for LbChat and all baseline trainers."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.baselines import (
    DflDdsTrainer,
    DpTrainer,
    ProxSkipConfig,
    ProxSkipTrainer,
    RsuLConfig,
    RsuLTrainer,
)
from repro.core.lbchat import LbChatConfig, LbChatTrainer
from repro.core.trainer_base import RoundConfig, TrainerBase, TrainerConfig
from repro.sim.dataset import DrivingDataset
from tests.conftest import make_fleet

DURATION = 120.0
#: Non-negative losses, diverged ones (inf, NaN) included.
LOSSES = st.one_of(
    st.floats(min_value=0.0, allow_infinity=True), st.just(math.inf), st.just(math.nan)
)


@pytest.fixture()
def validation(fleet_datasets):
    val = DrivingDataset()
    for dataset in fleet_datasets.values():
        val.extend([dataset.frame(i) for i in range(0, len(dataset), 8)])
    return val


@pytest.fixture()
def nodes(fleet_datasets):
    return make_fleet(fleet_datasets, coreset_size=10, seed=3)


def config_kwargs(**extra):
    base = dict(
        duration=DURATION,
        train_interval=2.0,
        record_interval=20.0,
        wireless_loss=False,
        seed=1,
    )
    base.update(extra)
    return base


def assert_learned(trainer, nodes):
    grid = np.linspace(0.0, DURATION, 5)
    curve = trainer.loss_curve.mean_curve(grid)
    assert curve[-1] < curve[0], f"{trainer.name} failed to learn: {curve}"
    assert len(trainer.loss_curve.keys()) == len(nodes)


class TestLbChatTrainer:
    def test_learns_and_chats(self, nodes, traces, validation):
        trainer = LbChatTrainer(nodes, traces, validation, LbChatConfig(**config_kwargs()))
        trainer.run()
        assert_learned(trainer, nodes)
        assert trainer.counters.get("chats") > 0
        assert trainer.counters.get("frames_absorbed") > 0

    def test_wireless_loss_reduces_receive_rate(self, fleet_datasets, traces, validation):
        rates = {}
        for wireless in (False, True):
            nodes = make_fleet(fleet_datasets, coreset_size=10, seed=3)
            trainer = LbChatTrainer(
                nodes, traces, validation, LbChatConfig(**config_kwargs(wireless_loss=wireless))
            )
            trainer.run()
            rates[wireless] = trainer.receive_rate.rate
        if rates[False] > 0:
            assert rates[True] <= rates[False] + 0.05

    def test_node_count_mismatch_rejected(self, nodes, traces, validation):
        with pytest.raises(ValueError):
            LbChatTrainer(nodes[:2], traces, validation, LbChatConfig(**config_kwargs()))

    def test_pair_cooldown_limits_rechats(self, nodes, traces, validation, monkeypatch):
        from repro.core import trainer_base

        monkeypatch.setattr(trainer_base, "PAIR_COOLDOWN", 1e9)  # one chat per pair, ever
        config = LbChatConfig(**config_kwargs())
        trainer = LbChatTrainer(nodes, traces, validation, config)
        trainer.run()
        n = len(nodes)
        assert trainer.counters.get("chats") <= n * (n - 1) / 2


class TestScoTrainer:
    def test_no_model_transfers(self, nodes, traces, validation):
        config = LbChatConfig(**config_kwargs(coreset_only=True))
        trainer = LbChatTrainer(nodes, traces, validation, config)
        trainer.run()
        assert trainer.receive_rate.attempted == 0
        assert trainer.counters.get("frames_absorbed") > 0
        assert_learned(trainer, nodes)


class TestAblationTrainers:
    def test_equal_compression(self, nodes, traces, validation):
        config = LbChatConfig(**config_kwargs(equal_compression=True))
        trainer = LbChatTrainer(nodes, traces, validation, config)
        trainer.run()
        assert trainer.config.equal_compression
        assert_learned(trainer, nodes)

    def test_mean_aggregation(self, nodes, traces, validation):
        config = LbChatConfig(**config_kwargs(mean_aggregation=True))
        trainer = LbChatTrainer(nodes, traces, validation, config)
        trainer.run()
        assert trainer.config.mean_aggregation
        assert_learned(trainer, nodes)

    def test_no_prioritization(self, nodes, traces, validation):
        config = LbChatConfig(**config_kwargs(prioritize_neighbors=False))
        trainer = LbChatTrainer(nodes, traces, validation, config)
        trainer.run()
        assert not trainer.config.prioritize_neighbors
        assert_learned(trainer, nodes)


class TestLocalOnly:
    def test_trains_without_communication(self, nodes, traces, validation):
        trainer = TrainerBase(nodes, traces, validation, TrainerConfig(**config_kwargs()))
        trainer.run()
        assert trainer.receive_rate.attempted == 0
        assert_learned(trainer, nodes)

    def test_datasets_never_grow(self, nodes, traces, validation):
        before = [len(n.dataset) for n in nodes]
        trainer = TrainerBase(nodes, traces, validation, TrainerConfig(**config_kwargs()))
        trainer.run()
        assert [len(n.dataset) for n in nodes] == before


class TestProxSkip:
    def test_learns_with_rounds(self, nodes, traces, validation):
        trainer = ProxSkipTrainer(
            nodes, traces, validation, ProxSkipConfig(**config_kwargs())
        )
        trainer.run()
        assert trainer.counters.get("rounds") > 0
        assert_learned(trainer, nodes)

    def test_sync_converges_models(self, nodes, traces, validation):
        trainer = ProxSkipTrainer(
            nodes,
            traces,
            validation,
            ProxSkipConfig(**config_kwargs(wireless_loss=False)),
        )
        trainer.run()
        # After the last lossless sync all models were identical; local
        # steps since then keep them close but not equal.  Check the
        # receive rate instead: lossless backend never fails.
        assert trainer.receive_rate.rate == 1.0

    def test_loss_drops_receive_rate(self, nodes, traces, validation):
        trainer = ProxSkipTrainer(
            nodes,
            traces,
            validation,
            ProxSkipConfig(**config_kwargs(wireless_loss=True)),
        )
        trainer.run()
        assert trainer.receive_rate.rate < 1.0


class TestRsuL:
    def test_learns_and_syncs(self, nodes, traces, validation):
        trainer = RsuLTrainer(nodes, traces, validation, RsuLConfig(**config_kwargs()))
        trainer.run()
        assert trainer.counters.get("rsu_syncs") > 0
        assert_learned(trainer, nodes)

    def test_rsu_positions_inside_trace_bbox(self, nodes, traces, validation):
        trainer = RsuLTrainer(nodes, traces, validation, RsuLConfig(**config_kwargs()))
        pts = traces.positions.reshape(-1, 2)
        lo, hi = pts.min(axis=0) - 1, pts.max(axis=0) + 1
        for rsu in trainer.rsus:
            assert (rsu.position >= lo).all() and (rsu.position <= hi).all()

    def test_rsu_window_aggregation(self):
        from repro.baselines.rsul import RoadSideUnit

        rsu = RoadSideUnit("r0", np.zeros(2), np.zeros(4, dtype=np.float32))
        rsu.fold_in(np.ones(4, dtype=np.float32))
        assert np.allclose(rsu.params, 1.0)
        rsu.fold_in(np.full(4, 3.0, dtype=np.float32))
        assert np.allclose(rsu.params, 2.0)


class TestDflDds:
    def test_learns_with_rounds(self, nodes, traces, validation):
        trainer = DflDdsTrainer(
            nodes, traces, validation, RoundConfig(**config_kwargs())
        )
        trainer.run()
        assert trainer.counters.get("rounds") > 0
        assert_learned(trainer, nodes)

    def test_source_counts_grow(self, nodes, traces, validation):
        trainer = DflDdsTrainer(
            nodes, traces, validation, RoundConfig(**config_kwargs())
        )
        trainer.run()
        off_diagonal = trainer.source_counts - np.diag(np.diag(trainer.source_counts))
        assert off_diagonal.sum() > 0

    def test_diversity_weights_decay(self, nodes, traces, validation):
        trainer = DflDdsTrainer(
            nodes, traces, validation, RoundConfig(**config_kwargs())
        )
        params = np.ones_like(nodes[0].flat_params)
        trainer._aggregate(0, 1, params)
        first = trainer.source_counts[0, 1]
        trainer._aggregate(0, 1, params)
        assert trainer.source_counts[0, 1] == first + 1


class TestDp:
    def test_learns_by_gossip(self, nodes, traces, validation):
        trainer = DpTrainer(nodes, traces, validation, TrainerConfig(**config_kwargs()))
        trainer.run()
        assert trainer.counters.get("gossips") > 0
        assert_learned(trainer, nodes)

    def test_equal_models_merge_half_and_half(self, nodes, traces, validation, monkeypatch):
        """Both sides of a DP merge are scored alike (unpenalised — Eq. 6's
        terms are LbChat's), so a received copy of the node's own model
        weighs exactly as much as the model."""
        from repro.baselines import dp

        trainer = DpTrainer(nodes, traces, validation, TrainerConfig(**config_kwargs()))
        trainer.fleet.train_step_all()  # stale loss cache: both sides are fresh forwards
        node = nodes[0]
        before = node.flat_params.copy()
        weights, powerloss_weights = [], dp.powerloss_weights
        monkeypatch.setattr(
            dp, "powerloss_weights", lambda *losses: weights.append(powerloss_weights(*losses)) or weights[-1]
        )
        trainer._merge(0, 1, before.copy())
        assert weights == [(0.5, 0.5)]
        assert np.array_equal(node.flat_params, before)

    def test_powerloss_weights(self):
        from repro.baselines.dp import powerloss_weights

        w_local, w_received = powerloss_weights(2.0, 1.0)
        assert w_received > w_local
        assert w_local + w_received == pytest.approx(1.0)
        assert powerloss_weights(1.0, 1.0) == (0.5, 0.5)
        assert powerloss_weights(0.0, 0.0) == (0.5, 0.5)
        with pytest.raises(ValueError):
            powerloss_weights(-1.0, 1.0)

    @given(loss_local=LOSSES, loss_received=LOSSES)
    def test_powerloss_weights_of_any_losses_are_a_distribution(
        self, loss_local, loss_received
    ):
        """A diverged (inf/NaN) loss gets weight 0 and both diverged keep
        the local model; finite losses keep the formula's exact bits."""
        from repro.baselines.dp import powerloss_weights

        w_local, w_received = powerloss_weights(loss_local, loss_received)
        assert 0.0 <= w_local <= 1.0 and 0.0 <= w_received <= 1.0
        assert w_local + w_received == pytest.approx(1.0, abs=1e-12)
        if not math.isfinite(loss_received):
            assert (w_local, w_received) == (1.0, 0.0)
        elif not math.isfinite(loss_local):
            assert (w_local, w_received) == (0.0, 1.0)
        elif loss_local + loss_received > 0:
            total = loss_local + loss_received
            score_local = -np.log(max(loss_local / total, 1e-6))
            score_received = -np.log(max(loss_received / total, 1e-6))
            denom = score_local + score_received
            assert (w_local, w_received) == (score_local / denom, score_received / denom)

"""Tests for LbChat trainer configuration features."""

import numpy as np
import pytest

from repro.core.lbchat import LbChatConfig, LbChatTrainer
from repro.sim.dataset import DrivingDataset
from tests.conftest import make_node


@pytest.fixture()
def setup(fleet_datasets, traces):
    validation = DrivingDataset()
    for dataset in fleet_datasets.values():
        validation.extend([dataset.frame(i) for i in range(0, len(dataset), 10)])
    nodes = [
        make_node(vid, ds, coreset_size=8, seed=4)
        for vid, ds in sorted(fleet_datasets.items())
    ]
    return nodes, traces, validation


def run_trainer(setup):
    nodes, traces, validation = setup
    config = LbChatConfig(
        duration=100.0,
        train_interval=2.0,
        record_interval=25.0,
        wireless_loss=True,
        seed=1,
    )
    trainer = LbChatTrainer(nodes, traces, validation, config)
    trainer.run()
    return trainer


class TestTrainingDuringChats:
    def test_train_steps_unaffected_by_chatting(self, setup):
        """Local training continues during chats (GPU || radio)."""
        busy = run_trainer(setup)
        nodes, traces, validation = setup
        expected_steps = len(nodes) * int(100.0 / 2.0)
        # All vehicles train at full rate regardless of chat load.
        assert busy.counters.get("train_steps") >= expected_steps * 0.95


class TestRecording:
    def test_curve_covers_duration(self, setup):
        trainer = run_trainer(setup)
        grid = np.linspace(0.0, 100.0, 5)
        curve = trainer.loss_curve.mean_curve(grid)
        assert len(curve) == 5
        assert np.isfinite(curve).all()

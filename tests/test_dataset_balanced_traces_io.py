"""Tests for balanced batch sampling."""

import numpy as np
import pytest

from repro.nn.model import N_COMMANDS
from repro.sim.dataset import DrivingDataset, Frame


def make_dataset(counts):
    """A dataset with `counts[c]` frames of command c."""
    frames = []
    i = 0
    for cmd, n in enumerate(counts):
        for _ in range(n):
            frames.append(
                Frame(
                    f"f{i}",
                    np.zeros((1, 4, 4), np.float32),
                    cmd,
                    np.zeros(4, np.float32),
                    1.0,
                )
            )
            i += 1
    return DrivingDataset(frames)


class TestBalancedSampling:
    def test_rare_commands_overrepresented(self):
        ds = make_dataset([97, 1, 1, 1])
        rng = np.random.default_rng(0)
        _, commands, _, _ = ds.sample_batch(64, rng, balance_commands=True)
        counts = np.bincount(commands, minlength=N_COMMANDS)
        # Each present command gets ~a quarter of the batch.
        assert counts.min() >= 10

    def test_unbalanced_respects_frequency(self):
        ds = make_dataset([97, 1, 1, 1])
        rng = np.random.default_rng(0)
        _, commands, _, _ = ds.sample_batch(64, rng, balance_commands=False)
        counts = np.bincount(commands, minlength=N_COMMANDS)
        assert counts[0] > 40

    def test_batch_size_respected(self):
        ds = make_dataset([10, 10])
        rng = np.random.default_rng(0)
        bev, commands, targets, idx = ds.sample_batch(16, rng, balance_commands=True)
        assert len(commands) == 16

    @pytest.mark.parametrize("balanced", [True, False], ids=["balanced", "plain"])
    def test_small_dataset_still_fills_the_batch(self, balanced):
        """Ten frames against a batch of 64: drawn with replacement, never
        capped — a short batch is a ragged row the fleet bank cannot stack."""
        ds = make_dataset([4, 3, 2, 1])
        batch = ds.sample_batch(64, np.random.default_rng(0), balance_commands=balanced)
        assert [len(part) for part in batch] == [64] * 4
        assert set(np.asarray(batch[3]).tolist()) <= set(range(10))

    def test_single_command_dataset(self):
        ds = make_dataset([20])
        rng = np.random.default_rng(0)
        _, commands, _, _ = ds.sample_batch(8, rng, balance_commands=True)
        assert (commands == 0).all()

    def test_weights_still_matter_within_command(self):
        frames = [
            Frame("a", np.zeros((1, 4, 4), np.float32), 0, np.zeros(4, np.float32), 1e-9),
            Frame("b", np.zeros((1, 4, 4), np.float32), 0, np.zeros(4, np.float32), 1.0),
        ]
        ds = DrivingDataset(frames)
        rng = np.random.default_rng(0)
        _, _, _, idx = ds.sample_batch(64, rng, balance_commands=True)
        assert (np.asarray(idx) == 1).mean() > 0.95


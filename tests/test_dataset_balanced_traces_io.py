"""Tests for balanced batch sampling."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

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
        _, commands, _, _ = ds.sample_batch(64, rng)
        counts = np.bincount(commands, minlength=N_COMMANDS)
        # Each present command gets ~a quarter of the batch.
        assert counts.min() >= 10

    def test_batch_size_respected(self):
        ds = make_dataset([10, 10])
        rng = np.random.default_rng(0)
        bev, commands, targets, idx = ds.sample_batch(16, rng)
        assert len(commands) == 16

    def test_small_dataset_still_fills_the_batch(self):
        """Ten frames against a batch of 64: drawn with replacement, never
        capped — a short batch is a ragged row the fleet bank cannot stack."""
        ds = make_dataset([4, 3, 2, 1])
        batch = ds.sample_batch(64, np.random.default_rng(0))
        assert [len(part) for part in batch] == [64] * 4
        assert set(np.asarray(batch[3]).tolist()) <= set(range(10))

    def test_single_command_dataset(self):
        ds = make_dataset([20])
        rng = np.random.default_rng(0)
        _, commands, _, _ = ds.sample_batch(8, rng)
        assert (commands == 0).all()

    def test_weights_still_matter_within_command(self):
        frames = [
            Frame("a", np.zeros((1, 4, 4), np.float32), 0, np.zeros(4, np.float32), 1e-9),
            Frame("b", np.zeros((1, 4, 4), np.float32), 0, np.zeros(4, np.float32), 1.0),
        ]
        ds = DrivingDataset(frames)
        rng = np.random.default_rng(0)
        _, _, _, idx = ds.sample_batch(64, rng)
        assert (np.asarray(idx) == 1).mean() > 0.95



def choice_draw(dataset, batch_size, rng):
    """The balanced draw as ``Generator.choice`` states it, stratum by stratum."""
    commands, weights = dataset.commands, dataset.weights
    present, picks = np.unique(commands), []
    share, extra = divmod(batch_size, len(present))
    for k, cmd in enumerate(present):
        members = np.where(commands == cmd)[0]
        probs = weights[members] / weights[members].sum()
        quota = share + (1 if k < extra else 0)
        picks.append(rng.choice(members, size=quota, replace=True, p=probs))
    return np.concatenate(picks)


class TestStratumTable:
    """The cached stratum table draws what ``Generator.choice`` draws.

    A numpy release that changes ``choice``'s statement fails here, not
    in a golden digest."""

    @settings(max_examples=60, deadline=None)
    @given(
        frames=st.lists(
            st.tuples(
                st.integers(0, N_COMMANDS - 1),
                st.one_of(st.just(0.0), st.floats(1e-6, 1e6)),
            ),
            min_size=1,
            max_size=40,
        ),
        batch_size=st.integers(1, 70),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_draws_equal_generator_choice(self, frames, batch_size, seed):
        for cmd in {cmd for cmd, _ in frames}:
            assume(sum(w for c, w in frames if c == cmd) > 0)
        ds = DrivingDataset(
            [
                Frame(f"f{i}", np.zeros((1, 2, 2), np.float32), cmd, np.zeros(2, np.float32), w)
                for i, (cmd, w) in enumerate(frames)
            ]
        )
        got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(2):  # the second draw reads the cached table
            _, commands, _, idx = ds.sample_batch(batch_size, got_rng)
            want = choice_draw(ds, batch_size, want_rng)
            assert idx.dtype == want.dtype and idx.tolist() == want.tolist()
            assert np.array_equal(commands, ds.commands[want])
            assert got_rng.bit_generator.state == want_rng.bit_generator.state

    def test_fewer_picks_than_commands_leaves_the_late_strata_empty(self):
        ds = make_dataset([3, 3, 3, 3])
        _, commands, _, idx = ds.sample_batch(2, np.random.default_rng(4))
        assert commands.tolist() == [0, 1]
        assert idx.tolist() == choice_draw(ds, 2, np.random.default_rng(4)).tolist()

    def test_a_stratum_without_weight_is_refused_like_choice_refuses_it(self):
        frames = [
            Frame("a", np.zeros((1, 2, 2), np.float32), 0, np.zeros(2, np.float32), 1.0),
            Frame("b", np.zeros((1, 2, 2), np.float32), 1, np.zeros(2, np.float32), 0.0),
        ]
        ds = DrivingDataset(frames)
        with np.errstate(invalid="ignore"), pytest.raises(ValueError):
            choice_draw(ds, 4, np.random.default_rng(0))
        with pytest.raises(ValueError, match="not a distribution"):
            ds.sample_batch(4, np.random.default_rng(0))

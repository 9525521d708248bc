"""Unit tests for the command-branched WaypointNet."""

import numpy as np
import pytest

from repro.nn import Adam, make_driving_model, waypoint_l1
from repro.nn.model import N_COMMANDS
from repro.nn.params import get_flat_params, num_params


BEV_SHAPE = (3, 8, 8)


@pytest.fixture
def model():
    return make_driving_model(BEV_SHAPE, n_waypoints=4, hidden=16, seed=0)


def batch(rng, n=8):
    bev = rng.normal(size=(n, *BEV_SHAPE)).astype(np.float32)
    commands = rng.integers(0, N_COMMANDS, n)
    return bev, commands


def test_output_shape(model):
    rng = np.random.default_rng(0)
    bev, commands = batch(rng)
    out = model.forward(bev, commands)
    assert out.shape == (8, 8)  # 4 waypoints x 2


def test_same_seed_same_init():
    a = make_driving_model(BEV_SHAPE, 4, 16, seed=7)
    b = make_driving_model(BEV_SHAPE, 4, 16, seed=7)
    assert np.array_equal(get_flat_params(a), get_flat_params(b))


def test_different_seed_different_init():
    a = make_driving_model(BEV_SHAPE, 4, 16, seed=7)
    b = make_driving_model(BEV_SHAPE, 4, 16, seed=8)
    assert not np.array_equal(get_flat_params(a), get_flat_params(b))


def test_command_branches_differ(model):
    rng = np.random.default_rng(0)
    bev = rng.normal(size=(1, *BEV_SHAPE)).astype(np.float32)
    outs = [model.forward(bev, np.array([cmd]))[0] for cmd in range(N_COMMANDS)]
    for a in range(N_COMMANDS):
        for b in range(a + 1, N_COMMANDS):
            assert not np.allclose(outs[a], outs[b])


def test_mismatched_commands_rejected(model):
    rng = np.random.default_rng(0)
    bev, _ = batch(rng, 4)
    with pytest.raises(ValueError):
        model.forward(bev, np.zeros((4, 1), dtype=int))
    with pytest.raises(ValueError):
        model.forward(bev, np.zeros(3, dtype=int))


def test_backward_routes_gradients_to_used_head_only(model):
    rng = np.random.default_rng(0)
    bev = rng.normal(size=(4, *BEV_SHAPE)).astype(np.float32)
    commands = np.zeros(4, dtype=int)  # only head 0 used
    out = model.forward(bev, commands)
    model.zero_grad()
    model.backward(np.ones_like(out))
    grads = [np.abs(h.weight.grad).sum() for h in model.heads]
    assert grads[0] > 0
    assert all(g == 0 for g in grads[1:])


def test_training_reduces_loss(model):
    rng = np.random.default_rng(1)
    bev, commands = batch(rng, 32)
    targets = rng.normal(size=(32, 8)).astype(np.float32)
    opt = Adam(model.parameters(), lr=1e-2)
    first = None
    for _ in range(60):
        pred = model.forward(bev, commands)
        scalar, _, grad = waypoint_l1(pred, targets)
        if first is None:
            first = scalar
        model.zero_grad()
        model.backward(grad)
        opt.step()
    assert scalar < first * 0.5


def test_parameter_count_stable(model):
    # Trunk (MLP): 192->16, 16->16 plus 4 heads 16->8.
    expected = (192 * 16 + 16) + (16 * 16 + 16) + 4 * (16 * 8 + 8)
    assert num_params(model) == expected

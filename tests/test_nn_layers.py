"""Unit tests for nn layers, including numeric gradient checks."""

import numpy as np
import pytest

from repro.nn import Flatten, Linear, ReLU, Sequential
from repro.nn.params import get_flat_params, num_params, set_flat_params


def numeric_grad(f, x, eps=1e-4):
    grad = np.zeros_like(x, dtype=np.float64)
    flat = x.reshape(-1)
    out = np.zeros_like(flat, dtype=np.float64)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        hi = f()
        flat[i] = orig - eps
        lo = f()
        flat[i] = orig
        out[i] = (hi - lo) / (2 * eps)
    return out.reshape(x.shape)


@pytest.fixture
def rng():
    return np.random.default_rng(3)


class TestLinear:
    def test_output_shape(self, rng):
        layer = Linear(4, 3, rng)
        out = layer.forward(np.ones((5, 4), dtype=np.float32))
        assert out.shape == (5, 3)

    def test_input_gradient_matches_numeric(self, rng):
        layer = Linear(4, 3, rng)
        x = rng.normal(size=(2, 4)).astype(np.float64)

        def loss():
            return layer.forward(x).sum()

        grad_num = numeric_grad(loss, x)
        layer.forward(x)
        grad = layer.backward(np.ones((2, 3)))
        assert np.allclose(grad, grad_num, atol=1e-3)

    def test_weight_gradient_matches_numeric(self, rng):
        layer = Linear(3, 2, rng)
        x = rng.normal(size=(4, 3)).astype(np.float32)

        def loss():
            return float(layer.forward(x).sum())

        grad_num = numeric_grad(loss, layer.weight.data)
        layer.zero_grad()
        layer.forward(x)
        layer.backward(np.ones((4, 2), dtype=np.float32))
        assert np.allclose(layer.weight.grad, grad_num, atol=1e-2)

    def test_bias_gradient_accumulates(self, rng):
        layer = Linear(2, 2, rng)
        x = np.ones((3, 2), dtype=np.float32)
        layer.forward(x)
        layer.backward(np.ones((3, 2), dtype=np.float32))
        layer.forward(x)
        layer.backward(np.ones((3, 2), dtype=np.float32))
        assert np.allclose(layer.bias.grad, 6.0)

    def test_backward_before_forward_raises(self, rng):
        with pytest.raises(RuntimeError):
            Linear(2, 2, rng).backward(np.ones((1, 2)))

    def test_input_mutated_between_forward_and_backward(self, rng):
        # Training loops legally refill their batch buffer between
        # forward and backward; the layer must not read the caller's
        # (possibly overwritten) array in backward.
        layer = Linear(3, 2, rng)
        x = rng.normal(size=(4, 3)).astype(np.float32)
        pristine = x.copy()
        layer.zero_grad()
        layer.forward(x)
        x[...] = 999.0  # caller reuses its buffer
        layer.backward(np.ones((4, 2), dtype=np.float32))
        corrupted_grad = layer.weight.grad.copy()
        layer.zero_grad()
        layer.forward(pristine)
        layer.backward(np.ones((4, 2), dtype=np.float32))
        assert np.array_equal(corrupted_grad, layer.weight.grad)

    def test_read_only_input_aliased_not_copied(self, rng):
        layer = Linear(3, 2, rng)
        x = rng.normal(size=(4, 3)).astype(np.float32)
        x.flags.writeable = False
        layer.forward(x)
        assert layer._input is x


class TestActivations:
    def test_relu_masks_negatives(self):
        relu = ReLU()
        out = relu.forward(np.array([[-1.0, 2.0]]))
        assert out.tolist() == [[0.0, 2.0]]
        grad = relu.backward(np.array([[5.0, 5.0]]))
        assert grad.tolist() == [[0.0, 5.0]]


class TestFlattenSequential:
    def test_flatten_roundtrip(self):
        flatten = Flatten()
        x = np.arange(24.0).reshape(2, 3, 4)
        out = flatten.forward(x)
        assert out.shape == (2, 12)
        back = flatten.backward(out)
        assert back.shape == x.shape

    def test_sequential_composes(self, rng):
        net = Sequential(Linear(4, 8, rng), ReLU(), Linear(8, 2, rng))
        out = net.forward(rng.normal(size=(3, 4)).astype(np.float32))
        assert out.shape == (3, 2)

    def test_sequential_parameters_collected(self, rng):
        net = Sequential(Linear(4, 8, rng), ReLU(), Linear(8, 2, rng))
        assert num_params(net) == 4 * 8 + 8 + 8 * 2 + 2

    def test_sequential_gradient_matches_numeric(self, rng):
        net = Sequential(Linear(3, 4, rng), ReLU(), Linear(4, 1, rng))
        x = rng.normal(size=(2, 3)).astype(np.float64)

        def loss():
            return float(net.forward(x).sum())

        grad_num = numeric_grad(loss, x)
        net.forward(x)
        grad = net.backward(np.ones((2, 1)))
        assert np.allclose(grad, grad_num, atol=1e-3)


class TestFlatParams:
    def test_roundtrip(self, rng):
        net = Sequential(Linear(3, 4, rng), Linear(4, 2, rng))
        flat = get_flat_params(net)
        set_flat_params(net, flat * 2.0)
        assert np.allclose(get_flat_params(net), flat * 2.0)

    def test_wrong_size_rejected(self, rng):
        net = Sequential(Linear(3, 4, rng))
        with pytest.raises(ValueError):
            set_flat_params(net, np.zeros(5))

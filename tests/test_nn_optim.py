"""Unit tests for optimizers."""

import numpy as np
import pytest

from repro.nn import Adam
from repro.nn.params import Parameter


def quadratic_step(opt, param, target=0.0):
    """One step on f(w) = 0.5 * (w - target)^2."""
    param.zero_grad()
    param.grad += param.data - target
    opt.step()


class TestAdam:
    def test_converges_on_quadratic(self):
        p = Parameter(np.array([5.0]))
        opt = Adam([p], lr=0.2)
        for _ in range(200):
            quadratic_step(opt, p)
        assert abs(p.data[0]) < 1e-2

    def test_first_step_size_close_to_lr(self):
        # With bias correction the first Adam step is ~lr in magnitude.
        p = Parameter(np.array([1.0]))
        opt = Adam([p], lr=0.1)
        quadratic_step(opt, p)
        assert p.data[0] == pytest.approx(0.9, abs=1e-6)

    def test_scale_invariance(self):
        # Adam normalizes by gradient magnitude: big and small gradients
        # produce similar step sizes.
        big = Parameter(np.array([100.0]))
        small = Parameter(np.array([0.01]))
        opt = Adam([big, small], lr=0.1)
        big.grad += 1000.0
        small.grad += 0.0001
        opt.step()
        assert abs(100.0 - big.data[0]) == pytest.approx(
            abs(0.01 - small.data[0]), rel=0.01
        )

    def test_invalid_lr_rejected(self):
        with pytest.raises(ValueError):
            Adam([Parameter(np.zeros(1))], lr=-1.0)

    def test_zero_weight_decay_no_drift(self):
        # There is no decay term: a zero gradient moves nothing.
        p = Parameter(np.array([10.0]))
        opt = Adam([p], lr=0.1)
        opt.step()
        assert p.data[0] == 10.0

    def test_negative_weight_decay_rejected(self):
        # Training-time weight decay is gone; asking for any is refused.
        for weight_decay in (-0.1, 0.0, 0.5):
            with pytest.raises(TypeError, match="weight_decay"):
                Adam([Parameter(np.zeros(1))], lr=0.1, weight_decay=weight_decay)

    def test_two_step_trace(self):
        # Hand-computed two-step Adam trace with bias correction.
        lr, b1, b2, eps = 0.1, 0.9, 0.999, 1e-8
        p = Parameter(np.array([1.0]))
        opt = Adam([p], lr=lr, betas=(b1, b2), eps=eps)
        w, m, v = 1.0, 0.0, 0.0
        for t, g in ((1, 0.5), (2, -0.25)):
            p.zero_grad()
            p.grad += g
            opt.step()
            m = b1 * m + (1 - b1) * g
            v = b2 * v + (1 - b2) * g**2
            m_hat = m / (1 - b1**t)
            v_hat = v / (1 - b2**t)
            w = w - lr * m_hat / (np.sqrt(v_hat) + eps)
            # Parameter storage is float32; the float64 hand trace
            # matches to single precision.
            assert p.data[0] == pytest.approx(w, abs=1e-6)

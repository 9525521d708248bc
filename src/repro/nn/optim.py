"""The optimizer over a :class:`~repro.nn.params.Parameter` list."""

from __future__ import annotations

import numpy as np

from repro.nn.params import Parameter

__all__ = ["Adam"]


def _flatten_buffers(buffers: list[np.ndarray]) -> np.ndarray:
    """Concatenate per-parameter state buffers into one flat vector."""
    if not buffers:
        return np.zeros(0)
    return np.concatenate([buf.ravel() for buf in buffers])


def _restore_buffers(buffers: list[np.ndarray], flat: np.ndarray) -> None:
    """Split a flat vector back into per-parameter state buffers."""
    flat = np.asarray(flat)
    total = sum(buf.size for buf in buffers)
    if flat.size != total:
        raise ValueError(
            f"optimizer state has {flat.size} entries, model needs {total}"
        )
    offset = 0
    for buf in buffers:
        chunk = flat[offset : offset + buf.size]
        buf[...] = chunk.reshape(buf.shape).astype(buf.dtype, copy=False)
        offset += buf.size


class Adam:
    """Adam (Kingma & Ba) with bias correction.

    The paper trains the driving model with lr 1e-4, the default here.

    The statement of the update that :class:`~repro.nn.bank.FleetAdam`
    (kernel and numpy fallback) is held to bit-for-bit, and the examples'
    optimizer.  A trainer's fleet imports its *state* into the bank at
    construction and never calls :meth:`step`.
    """

    def __init__(
        self,
        params: list[Parameter],
        lr: float = 1e-4,
        betas: tuple[float, float] = (0.9, 0.999),
        eps: float = 1e-8,
    ):
        if lr <= 0:
            raise ValueError(f"learning rate must be positive: {lr}")
        self.params = params
        self.lr = lr
        self.beta1, self.beta2 = betas
        self.eps = eps
        self._step = 0
        self._m = [np.zeros_like(p.data) for p in params]
        self._v = [np.zeros_like(p.data) for p in params]

    def step(self) -> None:
        """Apply one bias-corrected Adam update."""
        self._step += 1
        bc1 = 1.0 - self.beta1**self._step
        bc2 = 1.0 - self.beta2**self._step
        for p, m, v in zip(self.params, self._m, self._v):
            m *= self.beta1
            m += (1.0 - self.beta1) * p.grad
            v *= self.beta2
            v += (1.0 - self.beta2) * (p.grad**2)
            m_hat = m / bc1
            v_hat = v / bc2
            p.data -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)

    def zero_grad(self) -> None:
        """Clear accumulated gradients on all managed parameters."""
        for p in self.params:
            p.zero_grad()

    def snapshot(self) -> dict:
        """Internal state as plain arrays (checkpoint state)."""
        return {
            "step": int(self._step),
            "m": _flatten_buffers(self._m),
            "v": _flatten_buffers(self._v),
        }

    def restore(self, state: dict) -> None:
        """Replace internal state with a :meth:`snapshot`'s."""
        self._step = int(state["step"])
        _restore_buffers(self._m, state["m"])
        _restore_buffers(self._v, state["v"])

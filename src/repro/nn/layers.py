"""Layers with explicit forward/backward passes.

Each :class:`Module` caches whatever its backward pass needs during
``forward`` and exposes its :class:`~repro.nn.params.Parameter` objects
through :meth:`Module.parameters`.  There is no autograd graph — the
call order of ``backward`` must mirror ``forward`` in reverse, which
:class:`Sequential` handles for the common case.
"""

from __future__ import annotations

import numpy as np

from repro.nn.params import Parameter

__all__ = ["Module", "Linear", "Conv2d", "ReLU", "Flatten", "Sequential"]


class Module:
    """Base class: a differentiable function with parameters."""

    def parameters(self) -> list[Parameter]:
        """All learnable parameters, in a stable order."""
        params: list[Parameter] = []
        for value in self.__dict__.values():
            if isinstance(value, Parameter):
                params.append(value)
            elif isinstance(value, Module):
                params.extend(value.parameters())
            elif isinstance(value, (list, tuple)):
                for item in value:
                    if isinstance(item, Module):
                        params.extend(item.parameters())
        return params

    def zero_grad(self) -> None:
        """Reset every parameter's accumulated gradient to zero."""
        for p in self.parameters():
            p.zero_grad()

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Compute the layer output, caching what backward needs."""
        raise NotImplementedError

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        """Accumulate parameter grads; return the input gradient."""
        raise NotImplementedError

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return self.forward(x)


class Linear(Module):
    """Affine layer ``y = x @ W + b`` with He-style initialization."""

    def __init__(self, in_features: int, out_features: int, rng: np.random.Generator):
        scale = np.sqrt(2.0 / in_features)
        self.weight = Parameter(
            rng.normal(0.0, scale, size=(in_features, out_features)), name="weight"
        )
        self.bias = Parameter(np.zeros(out_features), name="bias")
        self._input: np.ndarray | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        # Backward runs after control returns to the caller, who may
        # legally refill its batch buffer in between — caching a bare
        # reference would silently corrupt the weight gradient.  Defend
        # with a copy; read-only inputs (dataset views) cannot mutate
        # under us and are aliased for free.
        self._input = x.copy() if x.flags.writeable else x
        return x @ self.weight.data + self.bias.data

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._input is None:
            raise RuntimeError("backward before forward")
        self.weight.grad += self._input.T @ grad_out
        self.bias.grad += grad_out.sum(axis=0)
        return grad_out @ self.weight.data.T


class Conv2d(Module):
    """2D convolution (stride 1, 'valid' padding) via im2col.

    Input is ``(batch, channels, height, width)``.  Kept deliberately
    small-featured: the BEV encoder only needs a couple of 3x3 layers.
    Unlike :class:`Linear`, no reference to the caller's input survives
    ``forward`` — backward reads only the im2col matrix, which is an
    owned contiguous copy — so callers may reuse their input buffer
    freely between forward and backward.
    """

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: int,
        rng: np.random.Generator,
    ):
        fan_in = in_channels * kernel_size * kernel_size
        scale = np.sqrt(2.0 / fan_in)
        self.weight = Parameter(
            rng.normal(0.0, scale, size=(out_channels, in_channels, kernel_size, kernel_size)),
            name="weight",
        )
        self.bias = Parameter(np.zeros(out_channels), name="bias")
        self.kernel_size = kernel_size
        self._cols: np.ndarray | None = None
        self._x_shape: tuple[int, ...] | None = None

    def _im2col(self, x: np.ndarray) -> np.ndarray:
        batch, channels, height, width = x.shape
        k = self.kernel_size
        out_h, out_w = height - k + 1, width - k + 1
        # Gather every kxk patch: shape (batch, out_h*out_w, channels*k*k).
        windows = np.lib.stride_tricks.sliding_window_view(x, (k, k), axis=(2, 3))
        # windows: (batch, channels, out_h, out_w, k, k)
        cols = windows.transpose(0, 2, 3, 1, 4, 5).reshape(batch, out_h * out_w, channels * k * k)
        return np.ascontiguousarray(cols)

    def forward(self, x: np.ndarray) -> np.ndarray:
        batch, _, height, width = x.shape
        k = self.kernel_size
        out_h, out_w = height - k + 1, width - k + 1
        cols = self._im2col(x)
        self._cols = cols
        self._x_shape = x.shape
        w = self.weight.data.reshape(self.weight.data.shape[0], -1)  # (out_c, c*k*k)
        out = cols @ w.T + self.bias.data  # (batch, out_h*out_w, out_c)
        return out.transpose(0, 2, 1).reshape(batch, -1, out_h, out_w)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._cols is None or self._x_shape is None:
            raise RuntimeError("backward before forward")
        batch, out_c, out_h, out_w = grad_out.shape
        k = self.kernel_size
        grad_flat = grad_out.reshape(batch, out_c, out_h * out_w).transpose(0, 2, 1)
        w = self.weight.data.reshape(out_c, -1)
        # Parameter grads.
        grad_w = np.einsum("bpo,bpc->oc", grad_flat, self._cols)
        self.weight.grad += grad_w.reshape(self.weight.data.shape)
        self.bias.grad += grad_flat.sum(axis=(0, 1))
        # Input grad: scatter columns back (col2im).
        grad_cols = grad_flat @ w  # (batch, out_h*out_w, c*k*k)
        _, channels, height, width = self._x_shape
        grad_x = np.zeros(self._x_shape, dtype=grad_out.dtype)
        grad_cols = grad_cols.reshape(batch, out_h, out_w, channels, k, k)
        for di in range(k):
            for dj in range(k):
                grad_x[:, :, di : di + out_h, dj : dj + out_w] += grad_cols[
                    :, :, :, :, di, dj
                ].transpose(0, 3, 1, 2)
        return grad_x


class ReLU(Module):
    """Rectified linear unit, ``max(x, 0)``."""

    def __init__(self):
        self._mask: np.ndarray | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._mask = x > 0
        out = x * self._mask
        # A fresh array nobody else holds: frozen, so that the Linear it
        # feeds aliases it instead of taking its defensive copy.
        out.flags.writeable = False
        return out

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._mask is None:
            raise RuntimeError("backward before forward")
        return grad_out * self._mask


class Flatten(Module):
    """Flattens ``(batch, ...)`` inputs to ``(batch, features)``."""

    def __init__(self):
        self._shape: tuple[int, ...] | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._shape = x.shape
        return x.reshape(x.shape[0], -1)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._shape is None:
            raise RuntimeError("backward before forward")
        return grad_out.reshape(self._shape)


class Sequential(Module):
    """Composes modules; backward runs them in reverse automatically."""

    def __init__(self, *modules: Module):
        self.modules = list(modules)

    def forward(self, x: np.ndarray) -> np.ndarray:
        for module in self.modules:
            x = module.forward(x)
        return x

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        for module in reversed(self.modules):
            grad_out = module.backward(grad_out)
        return grad_out

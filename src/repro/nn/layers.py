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

__all__ = ["Module", "Linear", "ReLU", "Flatten", "Sequential"]


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

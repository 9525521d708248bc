"""Parameters and flat-vector utilities.

LbChat treats a model as a point in parameter space: it sparsifies,
transmits, and convexly combines parameter vectors.  These helpers map
between a structured model and the flat ``float32`` vector the rest of
the system manipulates.
"""

from __future__ import annotations

import copy
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.nn.layers import Module

__all__ = [
    "Parameter",
    "get_flat_params",
    "set_flat_params",
    "clone_model",
    "num_params",
]


class Parameter:
    """A learnable array with an accumulated gradient."""

    __slots__ = ("data", "grad", "name")

    def __init__(self, data: np.ndarray, name: str = ""):
        self.data = np.asarray(data, dtype=np.float32)
        self.grad = np.zeros_like(self.data)
        self.name = name

    @property
    def size(self) -> int:
        """Number of scalar entries in this parameter."""
        return int(self.data.size)

    def zero_grad(self) -> None:
        """Reset the accumulated gradient to zero in place."""
        self.grad.fill(0.0)


def num_params(model: "Module") -> int:
    """Total number of scalar parameters in ``model``."""
    return sum(p.size for p in model.parameters())


def get_flat_params(model: "Module") -> np.ndarray:
    """Concatenate all parameters into one float32 vector (a copy)."""
    parts = [p.data.ravel() for p in model.parameters()]
    if not parts:
        return np.zeros(0, dtype=np.float32)
    return np.concatenate(parts).astype(np.float32, copy=False)


def set_flat_params(model: "Module", flat: np.ndarray) -> None:
    """Write ``flat`` back into the model's parameter arrays in place."""
    flat = np.asarray(flat, dtype=np.float32)
    expected = num_params(model)
    if flat.size != expected:
        raise ValueError(f"flat vector has {flat.size} entries, model needs {expected}")
    offset = 0
    for p in model.parameters():
        chunk = flat[offset : offset + p.size]
        p.data[...] = chunk.reshape(p.data.shape)
        offset += p.size


def clone_model(model: "Module") -> "Module":
    """Deep-copy a model (parameters, structure, no shared arrays)."""
    return copy.deepcopy(model)

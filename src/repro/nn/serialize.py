"""Model checkpointing.

Checkpoints store the flat parameter vector plus the architecture
metadata needed to rebuild the network, as a single ``.npz`` file.
Used by the CLI and examples to hand trained models between the
collaborative-training phase and online evaluation.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from repro.nn.model import WaypointNet, make_driving_model
from repro.nn.params import get_flat_params, set_flat_params

__all__ = ["save_model", "load_model"]

_FORMAT_VERSION = 1


def save_model(model: WaypointNet, path: str | Path) -> None:
    """Write a WaypointNet checkpoint to ``path`` (.npz)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    np.savez_compressed(
        path,
        version=np.int64(_FORMAT_VERSION),
        params=get_flat_params(model),
        bev_shape=np.asarray(model.bev_shape, dtype=np.int64),
        n_waypoints=np.int64(model.n_waypoints),
        hidden=np.int64(_hidden_width(model)),
    )


def load_model(path: str | Path) -> WaypointNet:
    """Rebuild a WaypointNet from a checkpoint written by :func:`save_model`."""
    with np.load(Path(path)) as data:
        version = int(data["version"])
        if version != _FORMAT_VERSION:
            raise ValueError(f"unsupported checkpoint version: {version}")
        bev_shape = tuple(int(x) for x in data["bev_shape"])
        model = make_driving_model(
            bev_shape,
            n_waypoints=int(data["n_waypoints"]),
            hidden=int(data["hidden"]),
            seed=0,
        )
        params = data["params"]
        expected = get_flat_params(model).size
        if params.ndim != 1 or params.size != expected:
            raise ValueError(
                f"corrupt checkpoint {path}: stored {params.size} parameters "
                f"but the {bev_shape} architecture needs {expected}"
            )
        set_flat_params(model, params)
    return model


def _hidden_width(model: WaypointNet) -> int:
    """Recover the trunk width from the head input dimension."""
    return model.heads[0].weight.data.shape[0]

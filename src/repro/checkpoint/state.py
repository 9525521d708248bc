"""Snapshot protocol and state-tree flattening.

A component participates in checkpointing by implementing the
:class:`Snapshottable` protocol: ``snapshot()`` returns a plain nested
dict of JSON scalars, strings, lists, and numpy arrays; ``restore``
takes that tree back and overwrites the component's state.  Snapshots
must be *pure reads* — taking one never changes behaviour.

The store serializes state trees with :func:`flatten_state`, which
splits a tree into (a) a JSON-able meta tree in which every array is
replaced by a ``{"__array__": path}`` marker, and (b) a flat
``path -> ndarray`` mapping destined for one ``.npz`` member per array.
:func:`unflatten_state` is the exact inverse.
"""

from __future__ import annotations

from typing import Any, Mapping, Protocol, runtime_checkable

import numpy as np

from repro.sim.dataset import DrivingDataset

__all__ = [
    "Snapshottable",
    "flatten_state",
    "unflatten_state",
    "dataset_state",
    "dataset_from_state",
]

#: Reserved meta-tree key marking a leaf that lives in the array table.
ARRAY_MARKER = "__array__"


@runtime_checkable
class Snapshottable(Protocol):
    """A component whose full state can round-trip through a checkpoint."""

    def snapshot(self) -> dict:
        """The component's state as a plain tree (dicts/lists/arrays)."""
        ...

    def restore(self, state: Mapping) -> None:
        """Overwrite the component's state with a snapshot's contents."""
        ...


# -- tree flattening ---------------------------------------------------------


def _flatten(value: Any, path: str, arrays: dict[str, np.ndarray]) -> Any:
    if isinstance(value, np.ndarray):
        # Not copied: state trees hold zero-copy views into live
        # parameter banks and dataset storage, and the store serializes
        # them before control returns to the simulator.
        arrays[path] = value
        return {ARRAY_MARKER: path}
    if isinstance(value, Mapping):
        out = {}
        for key, child in value.items():
            if not isinstance(key, str):
                raise TypeError(f"non-string state key at {path!r}: {key!r}")
            if "/" in key or key == ARRAY_MARKER:
                raise TypeError(f"reserved character in state key at {path!r}: {key!r}")
            out[key] = _flatten(child, f"{path}/{key}", arrays)
        return out
    if isinstance(value, (list, tuple)):
        return [_flatten(child, f"{path}/{i}", arrays) for i, child in enumerate(value)]
    if isinstance(value, (np.integer, np.floating, np.bool_)):
        return value.item()
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    raise TypeError(f"unsupported state value at {path!r}: {type(value).__name__}")


def flatten_state(state: Mapping) -> tuple[dict, dict[str, np.ndarray]]:
    """Split a state tree into a JSON-able meta tree plus an array table.

    Arrays become ``{"__array__": "<path>"}`` markers in the meta tree,
    with the actual data keyed by the slash-joined path into ``arrays``
    (the tree's own arrays, not copies: serialize before they mutate).
    Numpy scalars are converted to Python scalars; anything that is not
    JSON-representable raises :class:`TypeError` with the failing path.
    """
    arrays: dict[str, np.ndarray] = {}
    meta = _flatten(dict(state), "", arrays)
    return meta, arrays


def _unflatten(meta: Any, arrays: Mapping[str, np.ndarray]) -> Any:
    if isinstance(meta, dict):
        if set(meta) == {ARRAY_MARKER}:
            return arrays[meta[ARRAY_MARKER]]
        return {key: _unflatten(child, arrays) for key, child in meta.items()}
    if isinstance(meta, list):
        return [_unflatten(child, arrays) for child in meta]
    return meta


def unflatten_state(meta: dict, arrays: Mapping[str, np.ndarray]) -> dict:
    """Rebuild a state tree from :func:`flatten_state`'s two halves."""
    return _unflatten(meta, arrays)


# -- dataset state -----------------------------------------------------------


def dataset_state(dataset: DrivingDataset) -> dict:
    """A :class:`DrivingDataset`'s contents as a checkpointable tree."""
    if len(dataset) == 0:
        return {"ids": []}
    bev, commands, targets, weights = dataset.arrays()
    return {
        "ids": dataset.ids,
        "bev": bev,
        "commands": commands,
        "targets": targets,
        "weights": weights,
    }


def dataset_from_state(state: Mapping) -> DrivingDataset:
    """Rebuild a dataset saved by :func:`dataset_state` (same row order)."""
    ids = list(state["ids"])
    if not ids:
        return DrivingDataset()
    return DrivingDataset.from_arrays(
        ids, state["bev"], state["commands"], state["targets"], state["weights"]
    )

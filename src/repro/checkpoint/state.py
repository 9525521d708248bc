"""State-tree flattening and the frame table.

A component takes part in checkpointing through a ``snapshot`` that
returns a plain nested dict of JSON scalars, strings, lists, and numpy
arrays, and a ``restore`` that takes that tree back and overwrites the
component's state.  Snapshots must be *pure reads* — taking one never
changes behaviour.

The store serializes state trees with :func:`flatten_state`, which
splits a tree into (a) a JSON-able meta tree in which every array is
replaced by a ``{"__array__": path}`` marker, and (b) a flat
``path -> ndarray`` mapping destined for one ``.npz`` member per array.
:func:`unflatten_state` is the exact inverse.

A snapshot holds the live state, not a copy of it: the fleet's
parameters and optimizer moments go in as row views of their banks, so
a state tree is valid only until the simulator runs on.  The store
writes it before that; a caller that keeps a state past the barrier
(an in-memory checkpointer, a test) copies it.

Datasets do not snapshot themselves: a tree's datasets go in as rows and
weights through one :class:`FrameTable` per snapshot, which writes the
frames they name once (the components that hold datasets — nodes, chats
on the air — take the table as their ``snapshot``/``restore`` argument).
A frame that any resume's pool already holds is written by id alone.
"""

from __future__ import annotations

from collections.abc import Mapping
from typing import Any

import numpy as np

from repro.checkpoint.format import CheckpointError
from repro.sim.dataset import DrivingDataset

__all__ = [
    "flatten_state",
    "unflatten_state",
    "FrameTable",
]

#: Reserved meta-tree key marking a leaf that lives in the array table.
ARRAY_MARKER = "__array__"

#: Leaf types the meta tree keeps as they are (exact types: a numpy
#: scalar subclassing ``float`` is converted by ``_flatten``).
_PLAIN = frozenset({str, int, float, bool, type(None)})


# -- tree flattening ---------------------------------------------------------


def _flatten(value: Any, path: str, arrays: dict[str, np.ndarray]) -> Any:
    if isinstance(value, np.ndarray):
        # Not copied: state trees hold zero-copy views into live
        # parameter and optimizer banks and datasets' row and weight
        # arrays, and the store serializes them before control returns
        # to the simulator.
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
        # Frame-id and cache-id lists are most of a barrier's values.
        if all(type(child) in _PLAIN for child in value):
            return list(value)
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


# -- frames and the datasets over them ---------------------------------------


class FrameTable:
    """The frames of one snapshot, written once however many datasets hold them.

    Writing: every dataset of the tree goes through :meth:`ref`, which
    returns its state — the number of its pool in this table, its pool
    rows and its weights — and notes which rows of which pool it names;
    :meth:`state` is then each pool's referenced rows with their ids,
    once, and the columns of the ones a resume cannot find by id.
    ``known`` is ``(pool, n)`` when any pool a resume restores onto holds
    ``pool``'s first ``n`` frames (the run's one pool, as it was built):
    those are written by id alone.  Reading: ``FrameTable(state)``, then
    :meth:`dataset` rebuilds a dataset over a live pool, finding each
    frame there by id and interning from the table the ones it lacks.
    """

    def __init__(self, state: Mapping | None = None, known: tuple[Any, int] | None = None):
        #: id of a live pool -> (its number here, the pool, row arrays naming it).
        self._refs: dict[int, tuple[int, Any, list[np.ndarray]]] = {}
        self._state = state
        self._known = known
        #: (saved pool number, id of live pool) -> saved row -> live row.
        self._resolved: dict[tuple[int, int], dict[int, int]] = {}

    def ref(self, dataset: DrivingDataset) -> dict:
        """``dataset`` as rows of one of this table's pools, plus weights."""
        pool = dataset.pool
        number, _, used = self._refs.setdefault(id(pool), (len(self._refs), pool, []))
        used.append(dataset.rows)
        return {"pool": number, "rows": dataset.rows, "weights": dataset.weights}

    def state(self) -> dict:
        """Every referenced frame once, per pool; and how often they were named.

        A pool's carried rows (with columns) come first, then the rows
        named by id alone — the order :meth:`_resolve` reads them in.
        """
        pools = []
        known_pool, known = self._known or (None, 0)
        for _, pool, used in self._refs.values():
            rows = np.unique(np.concatenate(used))
            carried = rows >= (known if pool is known_pool else 0)
            rows = np.concatenate([rows[carried], rows[~carried]])
            bev, commands, targets = pool.take(rows[: np.count_nonzero(carried)])
            pools.append(
                {
                    "rows": rows,
                    "ids": [pool.ids[row] for row in rows.tolist()],
                    "bev": bev,
                    "commands": commands,
                    "targets": targets,
                }
            )
        refs = sum(rows.size for _, _, used in self._refs.values() for rows in used)
        return {"pools": pools, "frame_refs": int(refs)}

    def _resolve(self, number: int, pool) -> dict[int, int]:
        key = (number, id(pool))
        if key not in self._resolved:
            saved = self._state["pools"][number]
            ids = [str(frame_id) for frame_id in saved["ids"]]
            carried = len(saved["bev"])  # the columns may stop short of the ids
            live = pool.intern(
                ids[:carried], saved["bev"], saved["commands"], saved["targets"]
            ).tolist()
            for frame_id in ids[carried:]:
                row = pool.row(frame_id)
                if row is None:
                    raise CheckpointError(
                        f"frame {frame_id!r} is neither in the run's frame pool "
                        "nor carried by the checkpoint"
                    )
                live.append(row)
            self._resolved[key] = dict(zip(np.asarray(saved["rows"]).tolist(), live))
        return self._resolved[key]

    def dataset(self, state: Mapping, pool) -> DrivingDataset:
        """Rebuild a dataset saved by :meth:`ref` over ``pool`` (same order)."""
        live = self._resolve(int(state["pool"]), pool)
        try:
            rows = [live[row] for row in np.asarray(state["rows"]).tolist()]
        except KeyError as exc:
            raise CheckpointError(
                f"a dataset names row {exc.args[0]} of pool {state['pool']}, "
                "which the checkpoint's frame table does not list"
            ) from None
        return pool.dataset(rows, state["weights"])

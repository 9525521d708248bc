"""Experiment persistence: context caching and result archives.

Building an :class:`~repro.experiments.runner.ExperimentContext` (world
run, dataset collection, mobility traces) is the most expensive
method-independent step of every experiment; :func:`cached_context`
persists it to disk keyed by a hash of the scale parameters, so repeated
benchmark sessions skip straight to training.

:func:`save_run` / :func:`load_run` archive a run's measurable outputs
(loss curve, receive rate, counters) as JSON for post-processing.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import warnings
from dataclasses import asdict
from pathlib import Path

import numpy as np

from repro.experiments.configs import ExperimentScale
from repro.experiments.runner import (
    ExperimentContext,
    RunResult,
    build_context,
    register_context,
)

__all__ = ["scale_fingerprint", "cached_context", "save_run", "load_run"]

DEFAULT_CACHE_DIR = Path(".repro_cache")

#: Bump when the pickled context representation changes (format 2:
#: array-native DrivingDataset storage; format 3: spatial-grid world —
#: TownMap grew a lazy node table and TrafficManager/World pickle
#: struct-of-arrays agent mirrors; format 4: multi-district city maps —
#: TownMap grew ``districts_per_side``, WorldConfig grew
#: ``city_blocks``/``shard_stepping``, MobilityTraces memoize contact
#: indexes; format 5: the fleet's frames are one ``FramePool`` and every
#: dataset is rows and weights over it; format 6: the contact-index memo
#: is a declared ``MobilityTraces`` field, so older traces lack it;
#: format 7: ``WorldConfig`` lost ``dt``, ``snapshot_interval`` and
#: ``out_of_district_prob``, now §IV-A constants of ``repro.sim.world``;
#: format 8: ``TownMap``'s roads are an adjacency dict, no networkx
#: graph, and ``TrafficManager``'s pedestrians are rows of arrays;
#: format 9: ``FramePool`` stores a rendered BEV as ``uint8`` occupancy
#: plus one ``float32`` speed per frame, in place of one float32 ``bev``
#: column).
_CACHE_FORMAT = 9


def scale_fingerprint(scale: ExperimentScale) -> str:
    """Deterministic hash of every context-relevant scale parameter."""
    payload = {
        "format": _CACHE_FORMAT,
        "world": asdict(scale.world),
        "bev": (scale.bev.grid, scale.bev.cell, scale.bev.back_fraction),
        "collect_duration": scale.collect_duration,
        "trace_duration": scale.trace_duration,
        "validation_stride": scale.validation_stride,
    }
    blob = json.dumps(payload, sort_keys=True, default=str).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def cached_context(
    scale: ExperimentScale, cache_dir: str | Path = DEFAULT_CACHE_DIR
) -> ExperimentContext:
    """Load the scale's context from disk, building and storing on miss.

    The cache key covers everything that influences the context, so a
    changed world parameter never serves stale data.  A cache file that
    does not unpickle is discarded with a warning naming it and rebuilt.
    Each process pickles into a temporary file of its own in the cache
    directory and renames it over the final name, so processes resolving
    the same cold cache at once (``jobs=N`` workers) each leave a whole
    file, never an interleaving of several.
    """
    cache_dir = Path(cache_dir)
    path = cache_dir / f"context-{scale.name}-{scale_fingerprint(scale)}.pkl"
    if path.exists():
        try:
            with open(path, "rb") as fh:
                context = pickle.load(fh)
            if not isinstance(context, ExperimentContext):
                raise pickle.UnpicklingError(f"it holds a {type(context).__name__}")
            register_context(context)
            return context
        except (pickle.UnpicklingError, EOFError, AttributeError, ImportError, IndexError) as exc:
            warnings.warn(
                f"discarding the context cache file {path} and rebuilding the "
                f"context: {exc!r}",
                RuntimeWarning,
                stacklevel=2,
            )
            path.unlink(missing_ok=True)
    context = build_context(scale)
    cache_dir.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            pickle.dump(context, fh, protocol=pickle.HIGHEST_PROTOCOL)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)
    return context


def save_run(result: RunResult, path: str | Path, n_points: int = 41) -> None:
    """Archive a run's outputs as JSON.

    Only the result's own (picklable) fields are touched, so results
    returned from worker processes archive identically to serial ones.
    """
    grid, curve = result.loss_curve(n_points)
    payload = {
        "method": result.method,
        "duration": result.duration,
        "wireless_loss": result.wireless,
        "seed": result.seed,
        "grid": grid.tolist(),
        "loss_curve": curve.tolist(),
        "receive_rate": result.receive_rate,
        "counters": dict(result.counters),
        "per_vehicle_final_loss": {
            key: result.loss_recorder.series(key)[1][-1]
            for key in result.loss_recorder.keys()
        },
    }
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    # Atomic, like the context cache above: a crash mid-write must not
    # leave a truncated archive under the final name.
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(json.dumps(payload, indent=2, default=float))
    tmp.replace(path)


def load_run(path: str | Path) -> dict:
    """Load a run archive; arrays come back as numpy."""
    payload = json.loads(Path(path).read_text())
    payload["grid"] = np.asarray(payload["grid"])
    payload["loss_curve"] = np.asarray(payload["loss_curve"])
    return payload

"""Throughput auto-tuner for within-run step sharding.

``--step-workers auto`` should pick the worker count that actually
maximizes fleet-step throughput on *this* host — which depends on core
count, BLAS build, cache sizes, and fork cost, none of which we want to
model.  So this module measures instead of predicting, borrowing the
power-of-two-scaling + binary-search shape of Lightning's
``batch_size_finder`` (per ROADMAP): double the worker count while
measured throughput keeps improving, then binary-search the gap between
the last two candidates.

Every measurement drives a real :class:`~repro.core.fleet.FleetEngine`
over a synthetic paper-shaped fleet, so the tuned numbers reflect the
actual sharded step path (fork, pipe round-trip, shared-memory banks)
rather than a microbenchmark.  Results are cached in
``.repro_cache/autotune.json`` keyed by a host fingerprint; the probe
runs once per host, not once per run.

Step sharding is bit-identical for every worker count, so whatever this
module picks can never change a result — only how fast it arrives.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import time
from pathlib import Path

import numpy as np

__all__ = [
    "AutotuneResult",
    "autotune",
    "host_fingerprint",
    "measure_step_throughput",
    "resolve_step_workers",
]

#: Override the autotune cache file (tests point this at a temp path).
_CACHE_ENV = "REPRO_AUTOTUNE_CACHE"

_DEFAULT_CACHE = Path(".repro_cache") / "autotune.json"

#: Synthetic fleet used for probing — paper-shaped but small enough that
#: the full probe stays in the low seconds.
_PROBE = dict(n_nodes=32, hidden=32, batch_size=16, bev_shape=(3, 10, 10))


def host_fingerprint() -> str:
    """Stable identity of the execution environment for cache keying."""
    tag = "\x00".join(
        [
            platform.platform(),
            platform.machine(),
            str(os.cpu_count() or 1),
            platform.python_version(),
            np.__version__,
        ]
    )
    return hashlib.sha256(tag.encode()).hexdigest()[:16]


def _cache_path() -> Path:
    override = os.environ.get(_CACHE_ENV)
    return Path(override) if override else _DEFAULT_CACHE


class AutotuneResult(dict):
    """Tuned configuration: ``step_workers`` and its evidence.

    A cached entry may carry keys nothing reads any more (``adam_chunk``).
    """

    @property
    def step_workers(self) -> int:
        return int(self["step_workers"])


def _build_probe_engine(step_workers: int, seed: int = 0):
    """A FleetEngine over a synthetic homogeneous fleet (probe workload)."""
    # Imported lazily: repro.core.fleet imports this package.
    from repro.core.fleet import FleetEngine
    from repro.core.node import NodeConfig
    from repro.engine.random import spawn_rng
    from repro.nn import make_driving_model
    from repro.sim.dataset import DrivingDataset, Frame

    n_waypoints = 4
    bev_shape = _PROBE["bev_shape"]
    batch_size = _PROBE["batch_size"]
    config = NodeConfig(
        coreset_size=2 * batch_size, learning_rate=1e-3, batch_size=batch_size
    )
    members = []
    for i in range(_PROBE["n_nodes"]):
        rng = np.random.default_rng(seed * 1000 + i)
        frames = [
            Frame(
                f"probe-{i}-{k}",
                rng.normal(size=bev_shape).astype(np.float32),
                int(rng.integers(0, 4)),
                rng.normal(size=2 * n_waypoints).astype(np.float32),
                1.0,
            )
            for k in range(2 * batch_size)
        ]
        members.append((f"probe-{i}", DrivingDataset(frames), spawn_rng(seed, f"autotune-{i}")))
    template = make_driving_model(bev_shape, n_waypoints, hidden=_PROBE["hidden"], seed=0)
    return FleetEngine(template, members, config, step_workers=step_workers)


def measure_step_throughput(
    step_workers: int, *, steps: int = 12, warmup: int = 3, seed: int = 0
) -> float:
    """Measured fleet-step throughput (node-steps/second) at a worker count.

    Spawn cost is excluded (the pool is persistent across a whole run, so
    warmup absorbs fork + first-touch) but the per-step pipe round-trip
    and shared-memory staging are fully included.
    """
    engine = _build_probe_engine(step_workers, seed=seed)
    try:
        for _ in range(warmup):
            engine.train_step_all()
        start = time.perf_counter()
        for _ in range(steps):
            engine.train_step_all()
        elapsed = time.perf_counter() - start
    finally:
        engine.close()
    return _PROBE["n_nodes"] * steps / max(elapsed, 1e-9)


def _tune_step_workers(measure) -> tuple[int, dict[str, float]]:
    """Power-of-two scaling then binary search over the last interval."""
    cores = os.cpu_count() or 1
    evidence: dict[str, float] = {}

    def probe(w: int) -> float:
        if str(w) not in evidence:
            evidence[str(w)] = measure(w)
        return evidence[str(w)]

    best, best_rate = 1, probe(1)
    w = 2
    # Doubling phase: climb while throughput improves, up to 2x cores
    # (beyond that oversubscription can only get worse).
    while w <= max(2, 2 * cores):
        rate = probe(w)
        if rate <= best_rate:
            break
        best, best_rate = w, rate
        w *= 2
    # Binary-search phase: the optimum sits between the last winner and
    # the first loser; probe midpoints until the interval closes.
    lo, hi = best, min(w, max(2, 2 * cores))
    while hi - lo > 1:
        mid = (lo + hi) // 2
        rate = probe(mid)
        if rate > best_rate:
            best, best_rate = mid, rate
            lo = mid
        else:
            hi = mid
    return best, evidence


def autotune(force: bool = False) -> AutotuneResult:
    """Tuned ``step_workers`` for this host, cached on disk."""
    cache_path = _cache_path()
    key = host_fingerprint()
    if not force and cache_path.exists():
        try:
            cached = json.loads(cache_path.read_text())
        except (OSError, ValueError):
            cached = {}
        if key in cached:
            return AutotuneResult(cached[key])
    workers, worker_evidence = _tune_step_workers(measure_step_throughput)
    result = AutotuneResult(
        step_workers=workers,
        host_cores=os.cpu_count() or 1,
        throughput=worker_evidence,
    )
    try:
        cached = {}
        if cache_path.exists():
            cached = json.loads(cache_path.read_text())
        cached[key] = dict(result)
        cache_path.parent.mkdir(parents=True, exist_ok=True)
        tmp = cache_path.with_suffix(".tmp")
        tmp.write_text(json.dumps(cached, indent=2, sort_keys=True))
        os.replace(tmp, cache_path)
    except OSError:
        pass  # unwritable cache: tune again next time
    return result


def resolve_step_workers(value) -> int:
    """Normalize a ``--step-workers`` value: int-like, or ``"auto"``.

    ``auto`` runs (or reads) the host autotune.
    """
    if isinstance(value, str) and value.strip().lower() == "auto":
        return autotune().step_workers
    workers = int(value)
    if workers < 1:
        raise ValueError(f"step workers must be >= 1 (or 'auto'): {value}")
    return workers

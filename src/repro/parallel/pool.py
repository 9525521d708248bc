"""Process-pool execution of independent experiment runs.

:func:`run_specs` fans :class:`~repro.experiments.runner.RunSpec` jobs
out to worker processes and collects results *in submission order*, so
its output is bit-identical to running the same specs serially — every
job re-derives its RNG streams from its own spec, and nothing mutable
crosses process boundaries (see :mod:`repro.parallel.worker`).

Failure policy, per job:

1. the job is retried up to ``retries`` times in a (fresh, if broken)
   pool — this absorbs flaky worker deaths and per-job timeouts;
2. when retries are exhausted the job runs *serially in the parent*,
   so a sick pool degrades to the serial path instead of losing work;
3. an error in that final serial attempt is a real, reproducible
   failure of the job itself and propagates to the caller.

A per-job ``timeout`` (wall-clock seconds) counts as a failure: the
pool is recycled so the retry gets a fresh worker (the abandoned worker
finishes its stale task in the background and then exits).
"""

from __future__ import annotations

import warnings
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import replace

from repro.parallel import worker
from repro.parallel.stepshard import usable_cores

__all__ = ["clamp_step_workers", "resolve_jobs", "run_specs"]


def resolve_jobs(jobs: int) -> int:
    """Normalize a --jobs value: non-positive selects all usable cores."""
    return jobs if jobs > 0 else usable_cores()


def clamp_step_workers(specs: list, n_jobs: int) -> list:
    """Budget run-level jobs x per-run step shards against usable cores.

    Each pooled run steps its fleet in row shards on threads, so ``jobs``
    runs at ``step_workers`` shards each would oversubscribe the cores
    ``jobs x shards`` fold.  A spec that asked for no shard count gets
    the budget, ``usable_cores() // n_jobs``; one asking for more is
    clamped to it (results are bit-identical for every shard count, so
    either is free), and one warning and one telemetry counter report
    how many explicit asks were cut instead of silently thrashing the
    machine.
    """
    from repro.telemetry import hooks

    if n_jobs <= 1:
        return specs
    cores = usable_cores()
    budget = max(1, cores // n_jobs)
    clamped = []
    touched = 0
    for spec in specs:
        asked = spec.overrides.get("step_workers")
        if asked is None or asked > budget:
            spec = replace(spec, overrides={**spec.overrides, "step_workers": budget})
            touched += asked is not None  # the default takes the budget silently
        clamped.append(spec)
    if touched:
        warnings.warn(
            f"step_workers clamped to {budget} on {touched} of {len(specs)} "
            f"specs: {n_jobs} pooled jobs share {cores} usable cores",
            RuntimeWarning,
            stacklevel=3,
        )
        hooks.count("stepshard.oversubscription_clamped", touched)
    return clamped


def run_specs(specs, jobs: int = 1, timeout: float | None = None, retries: int = 1):
    """Execute specs (serially or in a process pool) and return results in order.

    ``jobs <= 0`` means "all usable cores"; ``jobs == 1`` is the serial
    path (no pool, no pickling).  The pool uses the platform's default
    start method ("fork" on Linux, which also lets workers inherit
    already-built contexts).  ``timeout`` (wall-clock seconds per job)
    and ``retries`` are the failure policy's (module doc).  With an
    active telemetry session, worker registries are merged back into it
    in job order; on the serial path hooks record into it directly.
    """
    from repro.telemetry import hooks

    specs = list(specs)
    if not specs:
        return []
    session = hooks.active()
    capture = session is not None
    n_workers = min(resolve_jobs(jobs), len(specs))
    if n_workers <= 1:
        # Single run: record straight into the active session (keeps
        # tracer spans — e.g. `repro trace`).  Several runs: use the same
        # per-run capture-and-merge protocol as the pool, so the final
        # registry is identical for every jobs value.
        if not capture or len(specs) == 1:
            return [worker.execute_spec(spec) for spec in specs]
        results = []
        for spec in specs:
            result, state = worker.run_isolated(spec)
            results.append(result)
            session.registry.merge_state(state)
        return results
    specs = clamp_step_workers(specs, n_workers)
    n = len(specs)
    results: list = [None] * n
    states: list = [None] * n
    attempts = [0] * n
    executor = ProcessPoolExecutor(max_workers=n_workers)
    futures: dict[int, object] = {}

    def submit(i: int) -> None:
        futures[i] = executor.submit(worker.run_job, specs[i], capture)

    def recycle() -> None:
        """Replace a broken/stalled pool and resubmit every pending job."""
        nonlocal executor
        executor.shutdown(wait=False, cancel_futures=True)
        executor = ProcessPoolExecutor(max_workers=n_workers)
        for j in list(futures):
            submit(j)

    try:
        for i in range(n):
            submit(i)
        for i in range(n):  # ordered collection: job i's result lands in slot i
            while True:
                future = futures.pop(i)
                try:
                    results[i], states[i] = future.result(timeout=timeout)
                    break
                except Exception as exc:
                    attempts[i] += 1
                    if isinstance(exc, (BrokenProcessPool, TimeoutError)):
                        recycle()  # job i is already popped; peers resubmit
                    if attempts[i] <= retries:
                        submit(i)
                        continue
                    # Retries exhausted: degrade to the serial path in the
                    # parent so completed results are never thrown away.
                    if capture:
                        results[i], states[i] = worker.run_isolated(specs[i])
                    else:
                        results[i] = worker.execute_spec(specs[i])
                    break
    finally:
        executor.shutdown(wait=False, cancel_futures=True)

    if capture:
        for state in states:
            if state is not None:
                session.registry.merge_state(state)
    return results

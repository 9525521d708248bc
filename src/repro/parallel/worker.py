"""Worker-side execution of :class:`~repro.experiments.runner.RunSpec` jobs.

A worker process receives only the picklable spec — never a built
context or a live trainer.  It resolves the context locally (the
per-process memo in :func:`repro.experiments.runner.build_context`
means each worker builds a scale at most once, and fork-started workers
inherit contexts the parent already built for free), runs the method,
and ships back a picklable :class:`~repro.experiments.runner.RunResult`
plus an optional telemetry registry state for the parent to merge.

Imports of the experiment stack are deliberately lazy so that
``repro.parallel`` can be imported from inside ``repro.experiments``
modules without creating an import cycle.

Specs with ``checkpoint_every`` set compose with the pool's
crash-recovery for free: ``run_method`` routes them through
:func:`repro.checkpoint.resume.run_with_checkpoints`, so a retried or
serial-fallback attempt resumes from the newest on-disk barrier
snapshot instead of recomputing from virtual time zero — and still
returns a bit-identical result.
"""

from __future__ import annotations

import os

__all__ = ["execute_spec", "run_isolated", "run_job", "resolve_context"]

#: Env knobs for fault-injection tests: crash jobs whose method matches
#: ``REPRO_PARALLEL_CRASH_METHOD``.  With ``REPRO_PARALLEL_CRASH_FLAG``
#: set to a path, the crash happens only while that file exists (the
#: worker unlinks it first, so exactly one attempt dies — the retry
#: path); without it every worker attempt dies (the serial-fallback
#: path).  ``REPRO_PARALLEL_CRASH_HARD=1`` kills the process outright
#: instead of raising (exercises BrokenProcessPool recovery).
CRASH_METHOD_ENV = "REPRO_PARALLEL_CRASH_METHOD"
CRASH_FLAG_ENV = "REPRO_PARALLEL_CRASH_FLAG"
CRASH_HARD_ENV = "REPRO_PARALLEL_CRASH_HARD"


def _maybe_crash(spec) -> None:
    """Fault-injection hook; a no-op unless the crash env knobs are set."""
    target = os.environ.get(CRASH_METHOD_ENV)
    if target is None or spec.method != target:
        return
    flag = os.environ.get(CRASH_FLAG_ENV)
    if flag is not None:
        if not os.path.exists(flag):
            return
        os.unlink(flag)
    if os.environ.get(CRASH_HARD_ENV) == "1":
        os._exit(3)
    raise RuntimeError(f"injected worker crash for {spec.method!r}")


def resolve_context(spec):
    """The context for a spec's scale, built or loaded in this process."""
    if spec.use_cache:
        from repro.experiments.io import cached_context

        return cached_context(spec.scale)
    from repro.experiments.runner import build_context

    return build_context(spec.scale)


def execute_spec(spec):
    """Run one spec in the *current* process (serial path and fallback).

    Telemetry, if a session is active here, records directly into it —
    no capture/merge detour.
    """
    from repro.experiments.runner import run_method

    return run_method(resolve_context(spec), spec)


def run_isolated(spec):
    """Execute a spec under a private telemetry session.

    Returns ``(result, registry_state)``.  Wrapping each run in its own
    session makes a run's metric contribution a pure function of its
    spec, summed on its own: a float counter such as
    ``transfer.bytes_delivered`` then adds up in the same order whether
    the runs happened in one process or many, so merging the states in
    job order yields the same registry, to the bit, for every ``jobs``.
    """
    from repro.telemetry import TelemetrySession

    with TelemetrySession(label=spec.label) as session:
        result = execute_spec(spec)
    return result, session.registry.state()


def run_job(spec, capture_telemetry: bool):
    """Pool entry point: execute a spec inside a worker process.

    Returns ``(result, registry_state_or_None)``.  When the parent has
    an active telemetry session, the run is wrapped in a private
    worker-side session whose registry state is returned for the parent
    to merge in job order (tracer spans stay worker-local; the registry
    is the cross-process contract).
    """
    _maybe_crash(spec)
    if capture_telemetry:
        return run_isolated(spec)
    return execute_spec(spec), None

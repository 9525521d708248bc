"""Process-parallel experiment engine.

Independent ``(method, seed, scale, wireless)`` runs are embarrassingly
parallel: each re-derives every RNG stream from its own
:class:`~repro.experiments.runner.RunSpec`, so fanning them out to
worker processes cannot change any number.  :func:`run_specs` is the
single entry point — the serial path (``jobs=1``) and the pool path run
the same per-job code and return bit-identical results in job order::

    from repro.experiments import RunSpec, build_context, get_scale
    from repro.parallel import run_specs

    context = build_context(get_scale("ci"))
    specs = [RunSpec.for_context(context, "LbChat", seed=s) for s in (1, 2, 3)]
    results = run_specs(specs, jobs=3)

The ``parallel.jobs4`` row of ``repro selfcheck`` gates exactly this
determinism claim.  Inside one run, :mod:`repro.parallel.stepshard`
steps the fleet's bank rows in shards on threads, bit-identical for
every shard count.  Before any run, a set-up's two worlds step on two
processes: :func:`~repro.experiments.runner.build_context` collects in
this one while :func:`repro.parallel.forked.fork_call` steps the trace
world in a forked child, whose traces are the in-process ones bit for
bit (the ``context.forked`` row).  A process forks nowhere else under
``src/``.
"""

from repro.parallel.pool import clamp_step_workers, resolve_jobs, run_specs
from repro.parallel.stepshard import partition_rows, usable_cores
from repro.parallel.worker import execute_spec, run_job

__all__ = [
    "clamp_step_workers",
    "resolve_jobs",
    "run_specs",
    "execute_spec",
    "run_job",
    "partition_rows",
    "usable_cores",
]

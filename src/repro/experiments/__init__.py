"""Experiment harness: everything needed to regenerate the paper's
figures and tables (see DESIGN.md's per-experiment index).

* :mod:`repro.experiments.configs` — scale presets (``ci`` for tests and
  benchmark runs, ``paper`` for §IV-A-faithful parameters).
* :mod:`repro.experiments.runner` — builds the shared world/data/trace
  context, instantiates any method by name, runs it, and online-evaluates
  the resulting models.
* :mod:`repro.experiments.artifacts` — the evaluation itself: the
  registry ``ARTIFACTS`` (Fig. 2a/2b, the §IV-C receive rates, Tables
  II-VII, Fig. 3 and three extra ablations, each with its runs, title
  and claims) and ``produce``, the one function that trains, measures
  and assembles them.
* :mod:`repro.experiments.report` — the claim checklist over the numbers
  a benchmark run saved.
* :mod:`repro.experiments.render` — plain-text renderers shaped like the
  paper's tables.
"""

from repro.experiments.configs import (
    ExperimentScale,
    get_scale,
    iter_scales,
    register_scale,
    scale_names,
)
from repro.experiments.runner import (
    ExperimentContext,
    METHODS,
    METHOD_NAMES,
    RunResult,
    RunSpec,
    build_context,
    make_config,
    make_nodes,
    make_trainer,
    online_evaluate,
    register_context,
    run_method,
)
from repro.experiments.render import render_curves, render_table
from repro.experiments.artifacts import (
    ARTIFACTS,
    Artifact,
    ArtifactResult,
    ClaimCheck,
    produce,
)
from repro.experiments.analysis import (
    convergence_summary,
    relative_slowdown,
    time_to_threshold,
)
from repro.experiments.io import cached_context, load_run, save_run
from repro.experiments.multiseed import SeedSummary, compare_methods, run_seeds
from repro.experiments.report import build_report

__all__ = [
    "ARTIFACTS",
    "Artifact",
    "ArtifactResult",
    "ClaimCheck",
    "produce",
    "time_to_threshold",
    "relative_slowdown",
    "convergence_summary",
    "cached_context",
    "save_run",
    "load_run",
    "SeedSummary",
    "run_seeds",
    "compare_methods",
    "build_report",
    "ExperimentScale",
    "get_scale",
    "register_scale",
    "iter_scales",
    "scale_names",
    "ExperimentContext",
    "METHODS",
    "METHOD_NAMES",
    "RunSpec",
    "RunResult",
    "build_context",
    "make_config",
    "make_nodes",
    "make_trainer",
    "register_context",
    "run_method",
    "online_evaluate",
    "render_table",
    "render_curves",
]

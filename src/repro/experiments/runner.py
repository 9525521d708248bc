"""Experiment runner: context building, method dispatch, online eval.

The expensive, method-independent work — running the world to collect
per-vehicle datasets and mobility traces — happens once per scale in
:func:`build_context` (memoized in-process).  Every method then trains
from identical initial models, identical local datasets, and identical
encounter patterns, so differences in outcomes are attributable to the
methods alone, matching the paper's controlled comparison.

One run is described by a :class:`RunSpec` — a small picklable job
description that carries everything a worker process needs to reproduce
the run from scratch (the scale, the method, the seed, and any config
overrides).  :func:`run_method` executes a spec against a context and
returns a :class:`RunResult`, which is likewise plain picklable data so
results can cross process boundaries (see :mod:`repro.parallel`).

:data:`METHODS` is the one statement of what a method is: a trainer
class plus the config fields the method fixes.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from typing import Any, Mapping

import numpy as np

from repro.baselines import DflDdsTrainer, DpTrainer, ProxSkipTrainer, RsuLTrainer
from repro.core.fleet import FleetEngine
from repro.core.lbchat import LbChatTrainer
from repro.core.node import NodeConfig, VehicleNode
from repro.core.trainer_base import TrainerBase, TrainerConfig
from repro.engine.metrics import TimeSeriesRecorder
from repro.engine.random import spawn_rng
from repro.experiments.configs import ExperimentScale
from repro.nn import make_driving_model
from repro.net.wireless import RADIO_RANGE
from repro.sim.dataset import N_WAYPOINTS, DrivingDataset, collect_fleet_datasets
from repro.sim.evaluate import DrivingCondition, EvalConfig, success_rate
from repro.sim.map import TownMap
from repro.sim.traces import MobilityTraces, simulate_traces
from repro.sim.world import World

__all__ = [
    "ExperimentContext",
    "RunSpec",
    "RunResult",
    "METHODS",
    "METHOD_NAMES",
    "build_context",
    "register_context",
    "make_nodes",
    "make_config",
    "make_trainer",
    "prepare_trainer",
    "run_method",
    "online_evaluate",
]

#: Every method by its paper name: ``(trainer class, config fields it
#: fixes)``.  ``Local`` is the base trainer (its scan does nothing); SCO
#: (§IV-G) and the ablations (§IV-F and one extra) are LbChat with one
#: design masked.  A fixed field wins over an override of the same name.
METHODS: dict[str, tuple[type[TrainerBase], dict[str, Any]]] = {
    "Local": (TrainerBase, {}),
    "ProxSkip": (ProxSkipTrainer, {}),
    "RSU-L": (RsuLTrainer, {}),
    "DFL-DDS": (DflDdsTrainer, {}),
    "DP": (DpTrainer, {}),
    "LbChat": (LbChatTrainer, {}),
    "SCO": (LbChatTrainer, {"coreset_only": True}),
    "LbChat (equal comp.)": (LbChatTrainer, {"equal_compression": True}),
    "LbChat (avg. agg.)": (LbChatTrainer, {"mean_aggregation": True}),
    "LbChat (no priority)": (LbChatTrainer, {"prioritize_neighbors": False}),
}

METHOD_NAMES = tuple(METHODS)


@dataclass
class ExperimentContext:
    """Method-independent world artifacts shared by all runs."""

    scale: ExperimentScale
    town: TownMap
    datasets: dict[str, DrivingDataset]
    validation: DrivingDataset
    traces: MobilityTraces


@dataclass(frozen=True)
class RunSpec:
    """Picklable description of one (method, seed, scale, wireless) run.

    A spec is self-contained: a worker process that receives one can
    rebuild the context from ``scale`` and reproduce the run exactly —
    every RNG stream is re-derived from ``(seed, name)`` inside the run,
    so execution order across jobs never changes results.

    ``overrides`` sets trainer-config fields by name (validated against
    the method's config class via :func:`make_config`); ``use_cache``
    lets workers resolve the context through the on-disk cache instead
    of rebuilding it.

    ``checkpoint_every`` opts the run into barrier checkpointing (see
    :mod:`repro.checkpoint`): state is snapshotted every that many
    virtual seconds and a crashed/retried run resumes from the newest
    snapshot.  A snapshot carries every generator's state, so a
    checkpointed run, resumed or not, equals the same spec without
    checkpoints.  ``checkpoint_dir`` only says where snapshots live.
    """

    method: str
    scale: ExperimentScale
    wireless: bool = True
    seed: int = 1
    coreset_size: int | None = None
    coreset_strategy: str | None = None
    overrides: Mapping[str, Any] = field(default_factory=dict)
    use_cache: bool = False
    checkpoint_every: float | None = None
    checkpoint_dir: str | None = None

    def __post_init__(self):
        if self.method not in METHOD_NAMES:
            raise ValueError(
                f"unknown method {self.method!r}; choose from {METHOD_NAMES}"
            )
        if self.checkpoint_every is not None and not self.checkpoint_every > 0:
            raise ValueError(
                f"checkpoint_every must be positive: {self.checkpoint_every}"
            )
        object.__setattr__(self, "overrides", dict(self.overrides))

    @classmethod
    def for_context(cls, context: ExperimentContext, method: str, **kwargs) -> "RunSpec":
        """A spec targeting an already-built context's scale."""
        return cls(method=method, scale=context.scale, **kwargs)

    @property
    def label(self) -> str:
        """Short human-readable job label (logs, telemetry, progress)."""
        loss = "w" if self.wireless else "w/o"
        return f"{self.method} @ {self.scale.name} seed={self.seed} ({loss} loss)"


@dataclass
class RunResult:
    """Output of one method's collaborative-training run.

    Plain data plus the trained nodes: everything downstream consumers
    need (curves, rates, counters, deployable models) without the live
    trainer, so results pickle cleanly across process boundaries.  On
    the serial path ``trainer`` still exposes the full trainer for
    inspection; it is dropped on pickle (simulator generators cannot
    cross processes).
    """

    method: str
    seed: int
    wireless: bool
    duration: float
    loss_recorder: TimeSeriesRecorder
    receive_attempted: int
    receive_completed: int
    counters: dict[str, float]
    nodes: list[VehicleNode]
    spec: RunSpec | None = None
    trainer: TrainerBase | None = None

    @classmethod
    def from_trainer(
        cls, spec: RunSpec, trainer: TrainerBase, nodes: list[VehicleNode]
    ) -> "RunResult":
        """Capture a finished trainer's measurable outputs."""
        return cls(
            method=spec.method,
            seed=spec.seed,
            wireless=trainer.config.wireless_loss,
            duration=trainer.config.duration,
            loss_recorder=trainer.loss_curve,
            receive_attempted=trainer.receive_rate.attempted,
            receive_completed=trainer.receive_rate.completed,
            counters=dict(trainer.counters.as_dict()),
            nodes=nodes,
            spec=spec,
            trainer=trainer,
        )

    def __getstate__(self):
        state = self.__dict__.copy()
        state["trainer"] = None  # simulator generators are not picklable
        return state

    @property
    def receive_rate(self) -> float:
        """The run's §IV-C model-receive completion rate."""
        return (
            self.receive_completed / self.receive_attempted
            if self.receive_attempted
            else 0.0
        )

    def loss_curve(self, n_points: int = 21) -> tuple[np.ndarray, np.ndarray]:
        """(grid, mean fleet validation loss) over the run."""
        grid = np.linspace(0.0, self.duration, n_points)
        return grid, self.loss_recorder.mean_curve(grid)

    def final_loss(self) -> float:
        """Mean of each vehicle's final recorded loss."""
        return self.loss_recorder.final_mean()


_context_cache: dict[str, ExperimentContext] = {}


def build_context(scale: ExperimentScale) -> ExperimentContext:
    """Collect datasets and traces for a scale (memoized per process).

    The memo is keyed by ``scale.name``: a second scale under a name
    already built raises :class:`ValueError` instead of serving the
    first one's world (a run would train the wrong model width).
    """
    cached = _context_cache.get(scale.name)
    if cached is not None:
        if cached.scale != scale:
            raise ValueError(
                f"a different scale named {scale.name!r} was built in this process; "
                "give the variant its own name"
            )
        return cached
    world = World(scale.world)
    raw = collect_fleet_datasets(world, scale.collect_duration, scale.bev)
    # The split stays on the fleet's one frame pool: the validation set
    # and every local dataset are row numbers over it.
    validation = DrivingDataset(pool=next(iter(raw.values())).pool)
    datasets: dict[str, DrivingDataset] = {}
    stride = scale.validation_stride
    for vid, dataset in sorted(raw.items()):
        n = len(dataset)
        validation.absorb_from(dataset.subset(range(0, n, stride)))
        datasets[vid] = dataset.subset([i for i in range(n) if i % stride])
    traces = simulate_traces(scale.world, scale.trace_duration)
    context = ExperimentContext(
        scale=scale, town=world.town, datasets=datasets, validation=validation, traces=traces
    )
    _context_cache[scale.name] = context
    return context


def register_context(context: ExperimentContext) -> None:
    """Adopt an externally built context into the per-process memo.

    Lets contexts loaded from the disk cache (or built by hand) be found
    by code that resolves contexts through :func:`build_context` — e.g.
    the serial path of :func:`repro.parallel.run_specs`.
    """
    _context_cache[context.scale.name] = context


def make_nodes(
    context: ExperimentContext, seed: int = 1, *, step_workers: int | None = None
) -> list[VehicleNode]:
    """Fresh nodes, born rows of one fleet from one initialisation (§II-A).

    ``step_workers`` caps the row shards the fleet steps in (:class:`~repro.
    core.fleet.FleetEngine`; default one per usable core); results are
    bit-identical for every value.
    """
    scale = context.scale
    node_config = NodeConfig(
        coreset_size=scale.coreset_size,
        batch_size=scale.batch_size,
        loss_cache_budget=scale.loss_cache_budget,
    )
    template = make_driving_model(scale.bev.shape, N_WAYPOINTS, scale.hidden, seed=0)
    # Each node gets a *copy* of its dataset: trainers mutate them.  The
    # copy is row numbers over the context's frame pool, which a run
    # reads and never adds to.
    members = [
        (vid, dataset.copy(), spawn_rng(seed, f"node-{vid}"))
        for vid, dataset in sorted(context.datasets.items())
    ]
    return list(FleetEngine(template, members, node_config, step_workers=step_workers).nodes)


def make_config(method: str, **overrides) -> TrainerConfig:
    """Build a method's trainer config without importing its class.

    Callers tweak one field via ``make_config("DP", lambda_c=0.2)``
    instead of importing the per-baseline ``*Config`` classes.  Unknown
    fields raise :class:`AttributeError` naming the offending key; the
    fields the method fixes (:data:`METHODS`) win over ``overrides``.
    """
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}; choose from {METHOD_NAMES}")
    trainer_class, fixed = METHODS[method]
    cls = trainer_class.config_class
    unknown = sorted(set(overrides) - {f.name for f in fields(cls)})
    if unknown:
        raise AttributeError(
            f"{method} config ({cls.__name__}) has no field(s) {unknown}"
        )
    return cls(**{**overrides, **fixed})


def _base_trainer_kwargs(scale: ExperimentScale, wireless: bool, seed: int) -> dict:
    return dict(
        duration=scale.train_duration,
        train_interval=scale.train_interval,
        record_interval=scale.record_interval,
        wireless_loss=wireless,
        seed=seed,
        chat_log_budget=scale.chat_log_budget,
    )


def make_trainer(
    method: str,
    nodes: list[VehicleNode],
    context: ExperimentContext,
    wireless: bool = True,
    seed: int = 1,
    overrides: Mapping[str, Any] | None = None,
) -> TrainerBase:
    """Instantiate any method by its paper name.

    ``overrides`` sets trainer-config fields (validated by
    :func:`make_config`) on top of the scale's base parameters.
    """
    scale = context.scale
    kwargs = _base_trainer_kwargs(scale, wireless, seed)
    kwargs.update(overrides or {})
    if method == "RSU-L" and "rsu_range" not in kwargs:
        # RSU radio range scaled to the map so that, like in the paper's
        # 1 km world, vehicles regularly leave RSU coverage.
        kwargs["rsu_range"] = min(RADIO_RANGE, scale.world.map_size * 0.4)
    config = make_config(method, **kwargs)
    trainer_class, _ = METHODS[method]
    trainer = trainer_class(nodes, context.traces, context.validation, config)
    trainer.name = method
    return trainer


def run_method(context: ExperimentContext, spec: RunSpec, /) -> RunResult:
    """Train one :class:`RunSpec` on the shared context and return its results."""
    if not isinstance(spec, RunSpec):
        raise TypeError(
            f"run_method(context, spec) takes a RunSpec, not {type(spec).__name__}; "
            "build one with RunSpec.for_context(context, method, ...)"
        )

    if spec.checkpoint_every is not None:
        from repro.checkpoint.resume import run_with_checkpoints

        return run_with_checkpoints(context, spec)

    nodes, trainer = prepare_trainer(context, spec)
    trainer.run()
    return RunResult.from_trainer(spec, trainer, nodes)


def prepare_trainer(
    context: ExperimentContext, spec: RunSpec
) -> tuple[list[VehicleNode], TrainerBase]:
    """Build the (nodes, trainer) pair a spec describes, ready to run.

    Split out of :func:`run_method` so the checkpoint subsystem can
    build the identical trainer and then restore a snapshot into it
    before running.  The spec's ``step_workers`` override goes to the
    fleet's birth, every other one to the trainer's config.
    """
    overrides = dict(spec.overrides)
    step_workers = overrides.pop("step_workers", None)
    nodes = make_nodes(context, seed=spec.seed, step_workers=step_workers)
    node_overrides = {}
    if spec.coreset_size is not None:
        node_overrides["coreset_size"] = spec.coreset_size
    if spec.coreset_strategy is not None:
        node_overrides["coreset_strategy"] = spec.coreset_strategy
    if node_overrides:
        for node in nodes:
            node.config = replace(node.config, **node_overrides)
            node.refresh_coreset()
    trainer = make_trainer(
        spec.method,
        nodes,
        context,
        wireless=spec.wireless,
        seed=spec.seed,
        overrides=overrides,
    )
    return nodes, trainer


def select_eval_nodes(result: RunResult, context: ExperimentContext) -> list[VehicleNode]:
    """The vehicles whose models get deployed: the fleet's median.

    Fully decentralized methods leave mild quality variance across the
    fleet; the paper deploys "the trained model" on a testing autopilot,
    which we read as a *typical* vehicle.  Ranking by validation loss
    and taking the middle ``eval_models`` nodes measures exactly that
    (server-based methods are unaffected — their models are identical).
    """
    k = context.scale.eval_models
    ranked = sorted(
        result.nodes,
        key=lambda node: node.evaluate(context.validation, with_penalty=False),
    )
    start = max((len(ranked) - k) // 2, 0)
    return ranked[start : start + k]


def online_evaluate(
    result: RunResult,
    context: ExperimentContext,
    conditions: list[DrivingCondition] | None = None,
    seed: int = 0,
) -> dict[str, float]:
    """Deploy trained models on test routes; mean success rate (%) per condition.

    Evaluates the fleet-median models (see :func:`select_eval_nodes`)
    and averages their success rates.
    """
    scale = context.scale
    conditions = conditions or list(DrivingCondition)
    config = EvalConfig(
        bev_spec=scale.bev,
        normal_cars=scale.eval_normal_cars,
        normal_pedestrians=scale.eval_normal_pedestrians,
    )
    out: dict[str, list[float]] = {cond.value: [] for cond in conditions}
    for node in select_eval_nodes(result, context):
        model = node.detached_model()
        for cond in conditions:
            rate = success_rate(
                model, context.town, cond, scale.eval_trials, config, seed=seed
            )
            out[cond.value].append(100.0 * rate)
    return {key: float(np.mean(values)) for key, values in out.items()}

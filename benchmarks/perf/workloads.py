"""The benchmark's registry: worlds, workloads and metric definitions.

``BENCHMARK.json`` at the repo root is :func:`benchmark_manifest` written
out; ``tests/test_registry.py`` keeps the two identical.  Horizons and
world sizes are constants here and never adapt to the host: the PR
driver gives one invocation (cold imports, three world set-ups, the
timed repetitions) well under a minute, which is what sizes them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.experiments.configs import CITY, PAPER, ExperimentScale
from repro.experiments.runner import ExperimentContext, RunSpec

from benchmarks.perf.hostclock import ARRAY_BOUND, HEAP_BOUND
from benchmarks.perf.tracer import SPANS

__all__ = [
    "Workload",
    "Metric",
    "WORKLOADS",
    "END_TO_END",
    "COUNTS",
    "PER_LAYER",
    "RUN_SECONDS",
    "benchmark_manifest",
]

#: How long one invocation measures (``--seconds``).
RUN_SECONDS = 6

#: The paper's map, fleet, model and radio (32 vehicles, 1 km map,
#: 150-sample coresets, hidden 96, 20x20 BEV, batch 64).  Background
#: traffic is thinned (10 cars, 40 pedestrians for the paper's 50 and
#: 250) and the horizons are cut so that three set-ups fit in one
#: invocation: 36 s of driving leaves every vehicle just over one batch
#: of frames, which keeps fleet training on the dense path, and the
#: trace covers the chatting horizons (8 s) plus twice T_B of lookahead
#: (``Local`` reads no trace).
BENCH_PAPER = PAPER.derived(
    "bench-paper",
    world=dict(n_background_cars=10, n_pedestrians=40),
    collect_duration=36.0,
    trace_duration=40.0,
)

#: The ``cityscale-smoke`` world: 48 vehicles (``SWEPT_MIN_VEHICLES``,
#: so neighbour queries go through the swept contact index) on a 2x2
#: block city map, sharded world stepping, tiny models and coresets,
#: bounded loss cache and chat log.
BENCH_CITY = CITY.derived(
    "bench-city",
    world=dict(
        map_size=900.0,
        grid_n=3,
        n_vehicles=48,
        n_background_cars=6,
        n_pedestrians=12,
        seed=13,
        min_route_length=100.0,
        n_districts=4,
        city_blocks=2,
        shard_stepping=True,
    ),
    collect_duration=16.0,
    trace_duration=50.0,
    train_interval=5.0,
    record_interval=10.0,
    coreset_size=8,
    batch_size=16,
    loss_cache_budget=64,
    chat_log_budget=16,
)


@dataclass(frozen=True)
class Workload:
    """One set of inputs: a world, a method, a horizon and run options."""

    name: str
    why: str
    scale: ExperimentScale
    method: str
    #: Virtual seconds one repetition trains for.
    horizon: float
    #: Calibration-kernel weights of the clock its repetitions are read
    #: off (:mod:`~benchmarks.perf.hostclock`): what the run is bound by.
    clock_mix: tuple[float, ...] = ARRAY_BOUND
    overrides: dict = field(default_factory=dict)
    checkpoint_every: float | None = None

    def spec(
        self, context: ExperimentContext, seed: int, horizon: float | None = None,
        checkpoint_dir: str | None = None,
    ) -> RunSpec:
        """The run one repetition executes (wireless loss on)."""
        return RunSpec.for_context(
            context,
            self.method,
            seed=seed,
            overrides={"duration": horizon or self.horizon, **self.overrides},
            checkpoint_every=self.checkpoint_every,
            checkpoint_dir=checkpoint_dir,
        )

    def expected_train_steps(self, horizon: float | None = None) -> int:
        """Every vehicle trains once per ``train_interval``, chatting or not."""
        instants = math.ceil((horizon or self.horizon) / self.scale.train_interval)
        return self.scale.world.n_vehicles * instants


WORKLOADS: tuple[Workload, ...] = (
    Workload(
        name="paper_lbchat",
        why="The paper's headline run: synchronous LbChat on the paper world; "
        "chat-dominated and array-bound (psi map, coreset absorb, top-k).",
        scale=BENCH_PAPER,
        method="LbChat",
        horizon=8.0,
    ),
    Workload(
        name="paper_local",
        why="Same world, method Local, zero chats: fleet train step and "
        "evaluation only, so a chat optimisation must predict no change here.",
        scale=BENCH_PAPER,
        method="Local",
        horizon=60.0,
    ),
    Workload(
        name="city_lbchat",
        why="LbChat on a 48-vehicle city block world with tiny models, swept "
        "contact index and bounded caches: Python-overhead-bound chats.",
        scale=BENCH_CITY,
        method="LbChat",
        horizon=30.0,
        clock_mix=HEAP_BOUND,
    ),
    Workload(
        name="paper_overlap_ckpt",
        why="LbChat with overlapped transfers and a checkpoint barrier: the "
        "other chat protocol plus a snapshot write, which costs nothing elsewhere.",
        scale=BENCH_PAPER,
        method="LbChat",
        horizon=6.0,
        overrides={"overlap_chat": True},
        checkpoint_every=3.0,
    ),
)


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    #: Share of the parent's median by which an end-to-end metric may
    #: worsen before it is a regression; per-layer metrics have none.
    bound: float | None = None

    def manifest(self) -> dict:
        entry = {"name": self.name, "unit": self.unit, "better": self.better}
        if self.bound is not None:
            entry["bound"] = self.bound
        return entry


END_TO_END: tuple[Metric, ...] = (
    # Median repetition (run_method: prepare_trainer + trainer.run), tracing off.
    Metric("run_wall_s", "s", "lower", 0.25),
    # Cold imports + median of the world set-ups (build_context + warm-up run).
    Metric("setup_s", "s", "lower", 0.25),
    # ru_maxrss of the measuring process at exit.
    Metric("peak_rss_mb", "MB", "lower", 0.05),
    # RunResult.final_loss(): the quality guard at equal virtual time.
    Metric("final_val_loss", "L1", "lower", 0.05),
)

#: Counts read from RunResult / trainer / checkpoint directory of a repetition.
COUNTS: tuple[Metric, ...] = (
    Metric("core.train_steps", "count", "higher"),
    Metric("core.chats", "count", "higher"),
    Metric("core.models_attempted", "count", "higher"),
    Metric("core.models_received", "count", "higher"),
    # RunResult.receive_rate (paper §IV-C).  Not an end-to-end metric: at the
    # benchmark's horizons two of the four workloads attempt no or one model.
    Metric("core.model_receive_rate", "ratio", "higher"),
    Metric("core.coresets_exchanged", "count", "higher"),
    Metric("core.frames_absorbed", "count", "higher"),
    Metric("core.virtual_chat_seconds", "s", "lower"),
    Metric("core.mean_step_width", "count", "higher"),
    Metric("checkpoint.barriers", "count", "higher"),
    Metric("checkpoint.bytes_per_barrier", "B", "lower"),
)

PER_LAYER: tuple[Metric, ...] = (
    *(
        metric
        for span in SPANS
        for metric in (
            Metric(f"{span}.calls", "count", "lower"),
            Metric(f"{span}.total_s", "s", "lower"),
            Metric(f"{span}.self_s", "s", "lower"),
        )
    ),
    *COUNTS,
    # Traced repetition / untraced repetition - 1, same invocation.
    Metric("trace.overhead_ratio", "ratio", "lower"),
    # Event loop + trainer glue: engine.sim_run.self_s / traced repetition.
    Metric("trace.root_self_ratio", "ratio", "lower"),
)


def benchmark_manifest() -> dict:
    """The content of ``BENCHMARK.json``."""
    return {
        "command": ["python3", "benchmarks/perf/run.py"],
        "paths": ["benchmarks/perf"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS],
        "end_to_end": [m.manifest() for m in END_TO_END],
        "per_layer": [m.manifest() for m in PER_LAYER],
    }

"""Scale presets for the experiment harness.

``paper`` mirrors §IV-A: a ~1 km x 1 km town+rural map, 32 expert
vehicles, 50 background cars, 250 pedestrians and 150-sample coresets.
What no scale varies — the 52 MB nominal model, the 31 Mbps / 500 m
radios, T_B = 15 s — is a module constant of the code that reads it.
(Training horizons are scaled: the paper trains for simulated hours on
a GPU; the pure-numpy learner here reaches its convergence plateau far
sooner.)

``ci`` is a miniature of the same world that keeps every mechanism
exercised while finishing on one CPU core — used by the test suite and
the pytest-benchmark targets.

``city`` goes beyond the paper: a multi-district map ~10x the paper's
town with 512 vehicles, sharded world stepping, swept contact
detection over the mobility traces, and memory-bounded loss-cache /
chat-log budgets so per-node state stays O(coreset) as the fleet grows.

Scales enter the system through an open registry: :func:`register_scale`
adds a preset (the three built-ins register the same way third-party
scales do), :func:`iter_scales` / :func:`scale_names` enumerate it, and
:func:`get_scale` looks one up by name.  New scales are declared as
deltas of an existing preset via :meth:`ExperimentScale.derived`.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field, replace as _dc_replace
from typing import Iterator

from repro.sim.bev import BevSpec
from repro.sim.world import WorldConfig

__all__ = [
    "ExperimentScale",
    "register_scale",
    "iter_scales",
    "scale_names",
    "get_scale",
    "CI",
    "PAPER",
    "CITY",
]


@dataclass(frozen=True)
class ExperimentScale:
    """Everything that differs between the experiment scales."""

    name: str
    world: WorldConfig
    bev: BevSpec = field(default_factory=lambda: BevSpec(grid=20, cell=2.0))
    hidden: int = 96
    #: Seconds of expert driving collected per local dataset.
    collect_duration: float = 120.0
    #: Seconds of mobility traces for the communication phase.
    trace_duration: float = 600.0
    #: Collaborative-training horizon T.
    train_duration: float = 300.0
    train_interval: float = 2.0
    record_interval: float = 30.0
    coreset_size: int = 30
    batch_size: int = 64
    #: Online-evaluation trials per driving condition.
    eval_trials: int = 6
    #: Vehicles whose trained models are online-evaluated (averaged).
    eval_models: int = 2
    eval_normal_cars: int = 8
    eval_normal_pedestrians: int = 30
    #: Fraction of collected frames held out as the shared validation set.
    validation_stride: int = 10
    #: Max entries in a node's loss cache (0 = unbounded); see
    #: ``NodeConfig.loss_cache_budget``.
    loss_cache_budget: int = 0
    #: Max retained ChatRecord entries per run (0 = unbounded).
    chat_log_budget: int = 0

    def derived(self, name: str, *, world=None, **overrides) -> "ExperimentScale":
        """A copy of this scale with ``overrides`` applied.

        ``world`` may be a full :class:`WorldConfig` or a mapping of
        WorldConfig field overrides applied on top of this scale's
        world; every other keyword replaces the scale field of the same
        name.  The derived scale is *not* registered — pass it to
        :func:`register_scale` to make it addressable by name.
        """
        if world is not None:
            if isinstance(world, Mapping):
                world = _dc_replace(self.world, **dict(world))
            elif not isinstance(world, WorldConfig):
                raise TypeError(
                    f"world override must be a WorldConfig or mapping, got {type(world).__name__}"
                )
            overrides["world"] = world
        return _dc_replace(self, name=name, **overrides)


#: Registry of named scales, in registration order.  Mutate only via
#: :func:`register_scale` — the CLI, error messages, and cache
#: fingerprints all derive their name lists from here.
_SCALES: dict[str, ExperimentScale] = {}


def register_scale(scale: ExperimentScale, *, replace: bool = False) -> ExperimentScale:
    """Add ``scale`` to the registry; returns it for chaining.

    Registration is the only way scales enter the system: ``repro
    scales``, ``--scale`` choices, and :func:`get_scale` all read the
    registry.  Re-registering a taken name raises unless
    ``replace=True``.
    """
    if not isinstance(scale, ExperimentScale):
        raise TypeError(f"expected ExperimentScale, got {type(scale).__name__}")
    if not scale.name:
        raise ValueError("scale name must be non-empty")
    if scale.name in _SCALES and not replace:
        raise ValueError(
            f"scale {scale.name!r} is already registered; pass replace=True to override"
        )
    _SCALES[scale.name] = scale
    return scale


def iter_scales() -> Iterator[ExperimentScale]:
    """Registered scales, in registration order."""
    return iter(tuple(_SCALES.values()))


def scale_names() -> tuple[str, ...]:
    """Registered scale names, in registration order."""
    return tuple(_SCALES)


def get_scale(name: str) -> ExperimentScale:
    """Look up a registered preset by name (e.g. 'ci', 'paper', 'city')."""
    try:
        return _SCALES[name]
    except KeyError:
        raise ValueError(f"unknown scale {name!r}; choose from {sorted(_SCALES)}") from None


PAPER = ExperimentScale(
    name="paper",
    world=WorldConfig(
        map_size=1000.0,
        grid_n=6,
        n_vehicles=32,
        n_background_cars=50,
        n_pedestrians=250,
        seed=7,
        min_route_length=250.0,
        n_districts=4,
        ped_district_skew=True,
    ),
    collect_duration=300.0,
    trace_duration=2400.0,
    train_duration=1800.0,
    coreset_size=150,
    eval_trials=20,
    eval_models=4,
    eval_normal_cars=50,
    eval_normal_pedestrians=250,
)

#: The ci miniature is a delta of the paper world — same mechanisms,
#: one-core-sized horizons.
CI = PAPER.derived(
    "ci",
    world=dict(
        map_size=500.0,
        grid_n=4,
        n_vehicles=6,
        n_background_cars=6,
        n_pedestrians=20,
        min_route_length=150.0,
    ),
    collect_duration=120.0,
    trace_duration=1300.0,
    train_duration=1200.0,
    train_interval=1.0,
    coreset_size=12,
    eval_trials=8,
    eval_models=2,
    eval_normal_cars=8,
    eval_normal_pedestrians=30,
)

#: City scale: a 3x3 district grid (each district a paper-sized town,
#: arterial links between neighbours), 512 expert vehicles, sharded
#: world stepping + swept contact detection, and bounded per-node
#: memory.  Horizons are trimmed so an end-to-end run finishes on one
#: core in minutes rather than hours.
CITY = PAPER.derived(
    "city",
    world=dict(
        map_size=3200.0,
        grid_n=4,
        n_vehicles=512,
        n_background_cars=64,
        n_pedestrians=128,
        min_route_length=300.0,
        n_districts=9,
        city_blocks=3,
        shard_stepping=True,
    ),
    bev=BevSpec(grid=12, cell=3.0),
    hidden=48,
    collect_duration=40.0,
    trace_duration=360.0,
    train_duration=300.0,
    train_interval=10.0,
    record_interval=100.0,
    coreset_size=16,
    batch_size=32,
    eval_trials=2,
    eval_models=1,
    eval_normal_cars=12,
    eval_normal_pedestrians=40,
    validation_stride=20,
    loss_cache_budget=4096,
    chat_log_budget=2000,
)

for _scale in (CI, PAPER, CITY):
    register_scale(_scale)
del _scale

"""``repro selfcheck``: every bit-identity gate of the repo, as one table.

Each row of :data:`CHECKS` runs one variant of a seeded miniature
experiment, digests what it computed, and is read against a reference:

* ``golden`` — the *recorded* tier: the digests in
  ``selfcheck_golden.json``, which are single-thread GEMM results
  (:func:`selfcheck` and ``tests/conftest.py`` pin BLAS for that);
* another row's name — the *exact* tier: same process, same world, so
  the same bits on any host (1, 2 or 4 step shards vs the default count,
  resumed vs uninterrupted, ``jobs=4`` vs ``jobs=1``, a set-up's forked
  trace world vs ``simulate_traces`` called in process, every psi map
  also fitted by the per-level loop vs fitted once);
* ``None`` — a baseline that exact-tier rows are read against.

The ``world.*`` rows need no experiment: they step small worlds through
the driver bank and the pedestrian rows, and through a loop over the
per-object controller and walkers they replaced, and require the two
equal at every tick.

A row's invariant hooks say what must be true beyond "nothing changed",
above all that the variant really executed (the fleet stepped in the
shards asked for, a flight launched, a barrier held a flight): an
equality that holds because both sides took the same path is a
failure, not a pass.

Each row also records the ``src/repro`` functions it entered, on its own
thread and on every thread it started (:func:`entering`): a function no
row enters is a reference, tooling or dead (``tests/test_selfcheck.py``).

    PYTHONPATH=src python -m repro selfcheck [ROW ...]      # all rows by default
    PYTHONPATH=src python -m repro selfcheck ROW --record   # re-baseline ROW

The same table is one parametrised tier-1 test (``tests/test_selfcheck.py``).
"""

from __future__ import annotations

import copy
import hashlib
import inspect
import itertools
import json
import os
import shutil
import subprocess
import sys
import tempfile
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from functools import partial
from pathlib import Path
from typing import Any, Callable, Iterable, Mapping

import numpy as np

from repro.blas import blas_threads, pin_blas_threads
from repro.checkpoint.policy import KILL_BARRIER_ENV, Checkpointer, CheckpointPolicy
from repro.net.wireless import RADIO_RANGE

__all__ = [
    "CHECKS", "GOLDEN_PATH", "Check", "Run", "Runner", "build_scale", "digest_result", "entering",
    "selfcheck",
]

GOLDEN_PATH = Path(__file__).with_name("selfcheck_golden.json")

SEED = 3
CURVE_POINTS = 9
#: Barrier cadence of the overlap world's checkpoint rows: 35/70/.../175
#: s, of which t=70 falls inside a model flight.  Every barrier is
#: resumed from, so a finer cadence only re-runs more of the horizon.
OVERLAP_BARRIER_EVERY = 35.0
KILL_AT = 2  # the kill row's child dies as its t=70 barrier commits
#: Barrier cadence of the city-cache rows: 3.5/7/.../28 s; the flight
#: that lands at t=3.7 reads the loss cache the t=3.5 barrier carried.
CACHE_BARRIER_EVERY = 3.5
#: The short-range row's radio: §IV-A's range and loss table shrunk by
#: this factor (50 m).  City contacts then last seconds, and the paper's
#: 150-frame coresets take more than one transfer chunk near the edge,
#: so a synchronous chat can lose its partner inside ``negotiate``.
SHORT_RANGE = 0.1


# -- worlds -------------------------------------------------------------------


def build_scale(world: str = "hotpath"):
    """The miniature :class:`ExperimentScale` a row's ``world`` names."""
    from repro.experiments.configs import CI, CITY
    from repro.sim.world import WorldConfig

    # Three vehicles, 40 s: LbChat, SCO and DP together cover coresets,
    # psi maps, Eq. 8 and the subset-evaluation path.
    hotpath = replace(
        CI,
        name="selfcheck-hotpath",
        world=WorldConfig(
            map_size=400.0, grid_n=3, n_vehicles=3, n_background_cars=2,
            n_pedestrians=5, seed=13, min_route_length=120.0,
        ),
        collect_duration=30.0,
        trace_duration=120.0,
        train_duration=40.0,
        train_interval=2.0,
        record_interval=10.0,
        coreset_size=6,
    )
    if world == "hotpath":
        return hotpath
    if world == "overlap":
        # Four vehicles trained past the 60 s pair cooldown twice: first
        # chats agree (psi = 0); later rounds diverge enough that Eq. 7
        # ships models, which overlap launches as background flights.
        return replace(
            hotpath,
            name="selfcheck-overlap",
            world=WorldConfig(
                map_size=400.0, grid_n=3, n_vehicles=4, n_background_cars=4,
                n_pedestrians=10, seed=11, min_route_length=120.0,
            ),
            collect_duration=60.0,
            trace_duration=240.0,
            train_duration=180.0,
            record_interval=20.0,
            coreset_size=10,
        )
    if world in ("city", "city-cache"):
        # 2x2 blocks and 48 vehicles, the largest fleet a row runs (the
        # contact windows' digest is pinned here); bounded caches on.
        city = CITY.derived(
            "selfcheck-city",
            world=dict(
                map_size=900.0, grid_n=3, n_vehicles=48, n_background_cars=6,
                n_pedestrians=12, seed=13, min_route_length=100.0,
                n_districts=4, city_blocks=2, shard_stepping=True,
            ),
            collect_duration=20.0,
            trace_duration=100.0,
            train_duration=30.0,
            train_interval=5.0,
            record_interval=10.0,
            coreset_size=8,
            batch_size=16,
            eval_normal_cars=6,
            eval_normal_pedestrians=10,
            loss_cache_budget=64,
            chat_log_budget=16,
        )
        if world == "city":
            return city
        # The city scale's own train interval and loss-cache budget: a
        # flight lands before the next train instant and finds the
        # losses its chat cached, so a resume reads the cache it restored.
        return replace(
            city,
            name="selfcheck-city-cache",
            train_interval=CITY.train_interval,
            loss_cache_budget=CITY.loss_cache_budget,
        )
    raise KeyError(f"unknown selfcheck world {world!r}")


def _context(world: str):
    """The world's :class:`ExperimentContext`, built once per process."""
    from repro.experiments.runner import build_context

    return build_context(build_scale(world))  # memoised by scale name


# -- digests ------------------------------------------------------------------


def _sha(*chunks: bytes) -> str:
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk)
    return h.hexdigest()


def _result_counters(counters: dict, prefix: str = "") -> dict:
    """``counters`` minus the psi-probe tally: it says *how* a run
    executed and is asserted on (:func:`dense_probes`), not digested."""
    skipped = prefix + "psi_probe_builds"
    return {name: value for name, value in counters.items() if name != skipped}


def digest_result(result) -> dict[str, str]:
    """Componentwise digests of one RunResult (localizes any mismatch)."""
    _, curve = result.loss_curve(CURVE_POINTS)
    counters = json.dumps(sorted(_result_counters(result.counters).items()), sort_keys=True)
    params = b"".join(
        np.ascontiguousarray(node.flat_params, dtype=np.float32).tobytes()
        for node in result.nodes
    )
    dataset_state = json.dumps(
        [[node.dataset.ids, node.dataset.weights.tolist()] for node in result.nodes]
    )
    coreset_state = json.dumps(
        [[node.coreset.data.ids, node.coreset.data.weights.tolist()] for node in result.nodes]
    )
    return {
        "loss_curve": _sha(np.ascontiguousarray(curve, dtype=np.float64).tobytes()),
        "receive": f"{result.receive_completed}/{result.receive_attempted}",
        "counters": _sha(counters.encode()),
        "params": _sha(params),
        "datasets": _sha(dataset_state.encode()),
        "coresets": _sha(coreset_state.encode()),
    }


def _digest_registry(session) -> str:
    state = session.registry.state()
    state["counters"] = _result_counters(state["counters"], prefix="trainer.")
    payload = json.dumps(
        {kind: state[kind] for kind in ("counters", "gauges", "histograms")},
        sort_keys=True,
        default=repr,
    )
    return _sha(payload.encode())


# -- what a row enters ---------------------------------------------------------

_PACKAGE = Path(__file__).resolve().parent


@contextmanager
def entering():
    """Yield a set that fills with ``"repro.module:qualname"`` for every
    ``src/repro`` function entered inside the block, on this thread and
    on every thread started in it (not in a child process)."""
    codes, names = set(), set()

    def profile(frame, event, arg):
        if event == "call":
            codes.add(frame.f_code)

    outer, outer_threads = sys.getprofile(), threading.getprofile()
    sys.setprofile(profile)
    threading.setprofile(profile)
    try:
        yield names
    finally:
        sys.setprofile(outer)
        threading.setprofile(outer_threads)
        # A thread the block started may outlive it (a process pool's
        # manager) and still be adding: read a copy.
        for code in codes.copy():
            path = Path(code.co_filename)
            function = code.co_flags & inspect.CO_NEWLOCALS and not code.co_name.startswith("<")
            if function and path.is_relative_to(_PACKAGE):
                module = ".".join(path.relative_to(_PACKAGE.parent).with_suffix("").parts)
                names.add(f"{module.removesuffix('.__init__')}:{code.co_qualname}")


# -- rows ---------------------------------------------------------------------


@dataclass
class Run:
    """What one row produced: its digests plus what its invariants read."""

    digests: dict[str, str]
    context: Any = None
    result: Any = None  # the RunResult (a list of them for a batch or resume row)
    session: Any = None  # the TelemetrySession the run executed in
    scratch: Path | None = None  # the row's temporary directory
    facts: dict = field(default_factory=dict)
    failures: list[str] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)  # printed under the row, pass or fail
    seconds: float = 0.0
    entered: set[str] = field(default_factory=set)  # src/repro functions the row entered


@dataclass(frozen=True)
class Check:
    """One row: a run variant on a world, read against a reference."""

    name: str
    reference: str | None  # "golden", another row, or None for a baseline
    world: str | None = None
    method: str = "LbChat"
    spec: Mapping[str, Any] = field(default_factory=dict)  # RunSpec fields beyond seed
    produce: Callable[["Runner", "Check", Path], Run] | None = None  # default: run the spec
    invariants: tuple[Callable[[Run], Iterable[str]], ...] = ()

    def run_spec(self, context, **extra):
        from repro.experiments.runner import RunSpec

        return RunSpec.for_context(context, self.method, seed=SEED, **{**self.spec, **extra})


def _run_spec(runner: "Runner", check: Check, scratch: Path) -> Run:
    """The default producer: ``run_method`` inside a telemetry session."""
    from repro.experiments.runner import run_method
    from repro.telemetry import TelemetrySession

    context = _context(check.world)
    spec = check.run_spec(context, checkpoint_dir=str(scratch))
    with TelemetrySession(label=check.name) as session:
        result = run_method(context, spec)
    return Run(digest_result(result), context, result, session, scratch)


def _maps_fitted_twice(runner: "Runner", check: Check, scratch: Path) -> Run:
    """The run with every psi map fitted twice: by the probe, whose map
    the run goes on with, and by the per-level loop ``build_psi_map``,
    its oracle; each chat's Eq. 7 is solved again on the loop's maps.
    The loop reads the node and writes nothing, so the run digests as
    the reference does."""
    from repro.core import chat as chat_module
    from repro.core.overlap import DensePsiProber

    fitted, decisions = {}, []  # id(probe map) -> (probe map, loop map)
    build, solve = DensePsiProber.build, chat_module.optimize_compression

    def build_twice(prober, node, dense_loss):
        psi_map, plan = build(prober, node, dense_loss)
        if psi_map is not None:
            fitted[id(psi_map)] = (psi_map, node.build_psi_map())
        return psi_map, plan

    def solve_twice(map_i, map_j, **kwargs):
        decision = solve(map_i, map_j, **kwargs)
        loop = [None if m is None else fitted[id(m)][1] for m in (map_i, map_j)]
        decisions.append((decision, solve(*loop, **kwargs)))
        return decision

    DensePsiProber.build, chat_module.optimize_compression = build_twice, solve_twice
    try:
        run = _run_spec(runner, check, scratch)
    finally:
        DensePsiProber.build, chat_module.optimize_compression = build, solve
    gaps = [np.abs(probe.losses / loop.losses - 1.0).max() for probe, loop in fitted.values()]
    run.facts.update(decisions=decisions, largest_map_gap=max(gaps, default=np.nan))
    sending = sum(1 for decision, _ in decisions if decision.psi_i or decision.psi_j)
    run.notes.append(
        f"{len(gaps)} maps, {len(decisions)} Eq. 7 decisions ({sending} sending); "
        f"largest relative map difference {run.facts['largest_map_gap']:.1e}"
    )
    return run


def _registry_of_three_runs(runner: "Runner", check: Check, scratch: Path) -> Run:
    """One session spanning LbChat, SCO and DP, run afresh in that order:
    a float counter such as ``transfer.bytes_delivered`` sums the three
    runs' events in event order, so the digest cannot be merged from the
    three rows' own sessions."""
    from repro.experiments.runner import run_method
    from repro.telemetry import TelemetrySession

    context = _context(check.world)
    with TelemetrySession(label=check.name) as session:
        results = [
            run_method(context, replace(check, method=method).run_spec(context))
            for method in ("LbChat", "SCO", "DP")
        ]
    return Run({"telemetry": _digest_registry(session)}, context, results, session)


def _fleet_segment(runner: "Runner", check: Check, scratch: Path) -> Run:
    """Four synthetic nodes take three lock-step batched steps and one
    batched validation pass: pins the fleet forward/backward/Adam path
    and the loss cache without needing a world.

    The row was recorded with a distinct initialisation per node, so
    each row is re-initialised after birth and builds its first coreset
    again from a fresh RNG."""
    from repro.core.fleet import FleetEngine
    from repro.core.node import NodeConfig
    from repro.engine.random import spawn_rng
    from repro.nn import get_flat_params, make_driving_model
    from repro.sim.dataset import DrivingDataset, Frame

    bev_shape, n_waypoints = (4, 8, 8), 3

    def make_dataset(seed: int, n_frames: int) -> DrivingDataset:
        rng = np.random.default_rng(seed)
        return DrivingDataset(
            [
                Frame(
                    f"s{seed}-{i}",
                    rng.normal(size=bev_shape).astype(np.float32),
                    int(rng.integers(0, 4)),
                    rng.normal(size=2 * n_waypoints).astype(np.float32),
                    float(rng.uniform(0.5, 2.0)),
                )
                for i in range(n_frames)
            ]
        )

    def model(seed: int):
        return make_driving_model(bev_shape, n_waypoints, hidden=16, seed=seed)

    def rng(i: int):
        return spawn_rng(5, f"fleet-smoke-{i}")

    config = NodeConfig(coreset_size=20, batch_size=16)
    members = [(f"smoke{i}", make_dataset(100 + i, 40), rng(i)) for i in range(4)]
    engine = FleetEngine(model(0), members, config)
    nodes = engine.nodes
    for i, node in enumerate(nodes):
        node.replace_model_params(get_flat_params(model(i)))
        node.rng = rng(i)
        node.refresh_coreset()
    losses = [engine.train_step_all() for _ in range(3)]
    values = engine.evaluate_fleet(make_dataset(99, 25))
    params = b"".join(
        np.ascontiguousarray(node.flat_params, dtype=np.float32).tobytes() for node in nodes
    )
    return Run(
        {
            "losses": _sha(np.asarray(losses, dtype=np.float64).tobytes()),
            "evaluate": _sha(np.ascontiguousarray(values, dtype=np.float64).tobytes()),
            "params": _sha(params),
        }
    )


def _contact_windows(runner: "Runner", check: Check, scratch: Path) -> Run:
    context = _context(check.world)
    windows = context.traces.contact_index(RADIO_RANGE).windows
    packed = np.concatenate([windows.pair_i, windows.pair_j, windows.start, windows.end])
    digests = {
        "n_windows": str(len(windows)),
        "windows": _sha(np.ascontiguousarray(packed, dtype=np.int64).tobytes()),
    }
    return Run(digests, context)


def _short_range_run(runner: "Runner", check: Check, scratch: Path) -> Run:
    """The spec's run with the trainer's radio shrunk to
    :data:`SHORT_RANGE` of §IV-A's: every link the run makes — neighbour
    queries, contact estimates, transfers — uses it."""
    from repro.experiments.runner import RunResult, prepare_trainer
    from repro.net.wireless import DEFAULT_LOSS_TABLE, WirelessModel
    from repro.telemetry import TelemetrySession

    context = _context(check.world)
    spec = check.run_spec(context)
    table = tuple((distance * SHORT_RANGE, loss) for distance, loss in DEFAULT_LOSS_TABLE)
    with TelemetrySession(label=check.name) as session:
        nodes, trainer = prepare_trainer(context, spec)
        trainer.wireless = WirelessModel(table, RADIO_RANGE * SHORT_RANGE)
        trainer.run()
    result = RunResult.from_trainer(spec, trainer, nodes)
    return Run(digest_result(result), context, result, session, scratch)


def _run_in_one_row_blocks(runner: "Runner", check: Check, scratch: Path) -> Run:
    """The spec's run with every shard stepping one row a block: the
    block budget below one row's scratch, so a tiny-model world takes
    the multi-block path a paper fleet takes.  A shard built any other
    way fails the row."""
    from repro.parallel import stepshard

    budget = stepshard._BLOCK_BYTES
    stepshard._BLOCK_BYTES = 1
    try:
        run = _run_spec(runner, check, scratch)
    finally:
        stepshard._BLOCK_BYTES = budget
    heights = {block.hi - block.lo for shard in run.result.trainer.fleet.shards
               for block in shard.blocks}
    if heights != {1}:
        run.failures.append(f"row blocks of {sorted(heights)} rows, not of one")
    return run


class _MemoryCheckpointer(Checkpointer):
    """Barrier snapshots kept in memory, every one of them."""

    def __init__(self, every: float = OVERLAP_BARRIER_EVERY):
        super().__init__(None, None, CheckpointPolicy(every=every))
        self.states: dict[int, dict] = {}

    def _on_barrier(self, trainer, index: int) -> None:
        # Kept past the barrier, so copied off the live banks.
        self.states[index] = copy.deepcopy(trainer.checkpoint_barrier(index))


def _run_trainer(context, spec, state=None):
    """Run ``spec`` (from ``state`` if given) snapshotting every barrier
    (every ``spec.checkpoint_every`` s, by default the overlap world's)."""
    from repro.experiments.runner import RunResult, prepare_trainer

    nodes, trainer = prepare_trainer(context, spec)
    if state is not None:
        trainer.restore(state)
    saver = _MemoryCheckpointer(spec.checkpoint_every or OVERLAP_BARRIER_EVERY)
    trainer.run(checkpointer=saver)
    return RunResult.from_trainer(spec, trainer, nodes), saver.states


def _run_with_barriers(runner: "Runner", check: Check, scratch: Path) -> Run:
    context = _context(check.world)
    result, states = _run_trainer(context, check.run_spec(context))
    return Run(digest_result(result), context, result, facts={"states": states})


def _resume_every_barrier(runner: "Runner", check: Check, scratch: Path) -> Run:
    """Interrupt the reference run at each of its barriers and finish it."""
    base = runner.check(check.reference)
    run = Run({}, base.context, result=[])
    for barrier, state in sorted(base.facts["states"].items()):
        result, _ = _run_trainer(base.context, base.result.spec, state)
        run.result.append(result)
        run.digests = digest_result(result)
        run.failures += [
            f"resumed from barrier {barrier}: {key} diverged"
            for key, value in run.digests.items()
            if value != base.digests[key]
        ]
    return run


def _resume_reading_the_cache(runner: "Runner", check: Check, scratch: Path) -> Run:
    """:func:`_resume_every_barrier`, counting the lookups that hit a
    loss the restore put back, before the node's model moved on."""
    from repro.core.node import VehicleNode

    restored: dict[int, tuple[int, np.ndarray]] = {}  # id(node) -> (version, rows)
    reads = []
    restore, lookup = VehicleNode.restore, VehicleNode._lookup

    def restore_noting(node, state, frames):
        restore(node, state, frames)
        restored[id(node)] = (node.model_version, node._cache_rows)

    def lookup_counting(node, dataset):
        hit, values = lookup(node, dataset)
        version, rows = restored.get(id(node), (None, None))
        if version == node.model_version and np.isin(dataset.rows[hit], rows).any():
            reads.append(node.node_id)
        return hit, values

    VehicleNode.restore, VehicleNode._lookup = restore_noting, lookup_counting
    try:
        run = _resume_every_barrier(runner, check, scratch)
    finally:
        VehicleNode.restore, VehicleNode._lookup = restore, lookup
    run.facts["cache_reads"] = len(reads)
    run.notes.append(f"{len(reads)} lookups read a restored loss cache")
    return run


def _resume_from_a_store(runner: "Runner", check: Check, scratch: Path) -> Run:
    """The reference row's run checkpointed into an on-disk store at the
    kill row's barrier time (t=70; barriers every 70 s), rewound to that
    barrier as a crash there leaves it, and continued from its files by
    a fresh trainer."""
    from repro.checkpoint import RunStore, run_with_checkpoints

    base = runner.check(check.reference)
    spec = replace(
        base.result.spec,
        checkpoint_every=KILL_AT * OVERLAP_BARRIER_EVERY,
        checkpoint_dir=str(scratch),
    )
    store = RunStore(scratch)
    run_with_checkpoints(base.context, spec, store)
    store.drop_after(spec, 1)
    resumed = run_with_checkpoints(base.context, spec, store)
    facts = {"events": store.events(spec)}
    return Run(digest_result(resumed), base.context, resumed, scratch=scratch, facts=facts)


def _kill_and_resume(runner: "Runner", check: Check, scratch: Path) -> Run:
    """Across a real process boundary: a child runs the reference row's
    spec and ``os._exit(3)``s as its barrier-``KILL_AT`` snapshot commits;
    this process resumes the orphaned run directory (what ``repro
    resume`` does)."""
    from repro.checkpoint import RunStore, resume_run_dir

    base = runner.check(check.reference)  # also memoises the context here
    spec = replace(base.result.spec, checkpoint_dir=str(scratch))
    child = subprocess.run(
        [sys.executable, "-m", "repro.selfcheck", check.reference, str(scratch)],
        env={**os.environ, KILL_BARRIER_ENV: str(KILL_AT)},
    )
    if child.returncode != 3:
        return Run({}, failures=[f"child exited {child.returncode}, not 3: no kill at a barrier"])
    store = RunStore(scratch)
    run_dir = store.run_dir(spec)
    policy = CheckpointPolicy(every=spec.checkpoint_every)
    facts = {
        "run_dir": run_dir,
        "done_at_death": (run_dir / "done.json").exists(),
        "barriers": [index for index, _ in policy.barriers(base.result.duration)],
    }
    resumed = resume_run_dir(run_dir)
    facts["events"] = store.events(spec)
    return Run(digest_result(resumed), base.context, resumed, scratch=scratch, facts=facts)


def _run_batch(runner: "Runner", check: Check, scratch: Path, jobs: int) -> Run:
    """Four independent runs through ``run_specs`` under one session."""
    from repro.parallel import run_specs
    from repro.telemetry import TelemetrySession

    context = _context(check.world)
    specs = [
        replace(check.run_spec(context), method=method, seed=seed)
        for method in ("LbChat", "DP")
        for seed in (1, 2)
    ]
    with TelemetrySession(label=check.name) as session:
        results = run_specs(specs, jobs=jobs)
    digests = {"registry": _digest_registry(session)}
    for spec, result in zip(specs, results):
        tag = f"{spec.method}/{spec.seed}"
        digests[f"{tag}.arrived"] = f"{result.method}/{result.seed}"
        digests[f"{tag}.probes"] = f"{result.counters.get('psi_probe_builds', 0):.0f}"
        digests.update({f"{tag}.{key}": v for key, v in digest_result(result).items()})
    return Run(digests, context, results, session)


# -- a context's two worlds on two processes ---------------------------------


def _trace_digests(traces) -> dict[str, str]:
    digests = {"vehicle_ids": _sha(json.dumps(traces.vehicle_ids).encode())}
    for name in ("times", "positions"):
        array = np.ascontiguousarray(getattr(traces, name))
        digests[name] = _sha(repr((array.dtype.str, array.shape)).encode(), array.tobytes())
    return digests


def _traces_in_process(runner: "Runner", check: Check, scratch: Path) -> Run:
    """``simulate_traces`` called directly, in this process."""
    from repro.sim.traces import simulate_traces

    scale = build_scale(check.world)
    return Run(_trace_digests(simulate_traces(scale.world, scale.trace_duration)))


#: Suffixes that give every ``context.forked`` set-up a name the
#: ``build_context`` memo has not seen, however many runners ask.
_FRESH_NAMES = itertools.count()


def _traces_of_a_fresh_context(runner: "Runner", check: Check, scratch: Path) -> Run:
    """The traces of a cold ``build_context``, which forks its trace world."""
    from repro.experiments.runner import build_context
    from repro.telemetry import TelemetrySession

    scale = build_scale(check.world)
    fresh = scale.derived(f"{scale.name}#{check.name}-{next(_FRESH_NAMES)}")
    with TelemetrySession(label=check.name) as session:
        context = build_context(fresh)
    return Run(_trace_digests(context.traces), context, session=session)


# -- the driver bank against the per-object controller ---------------------------

#: Worlds the ``world.*`` rows step, sized to reach the driver's rare
#: branches in a few hundred ticks: ``jam`` packs 14 + 10 cars and 30
#: pedestrians onto a 3x3 town with short trips (standoffs, creep,
#: edge-around, wide corridors, renewals onto longer routes; every third
#: background car steers at 0.8x); ``trace`` is the background-free
#: world ``simulate_traces`` runs; ``empty`` has no car at all, like a
#: ``run_episode`` under ``Straight``.
ORACLE_WORLDS = {
    "jam": (dict(map_size=240.0, grid_n=3, n_vehicles=14, n_background_cars=10,
                 n_pedestrians=30, seed=2, min_route_length=60.0, rural=False), 600),
    "trace": (dict(map_size=400.0, grid_n=3, n_vehicles=5, n_background_cars=0,
                   n_pedestrians=0, seed=7, min_route_length=80.0), 150),
    "empty": (dict(map_size=240.0, grid_n=3, n_vehicles=0, n_background_cars=0,
                   n_pedestrians=0, seed=2), 5),
}

#: What the worlds must have exercised for their equality to mean anything.
ORACLE_BRANCHES = (
    "creep engaged", "edged around a blocker", "wide corridor changed the limit",
    "no obstacle in range", "renewed onto a longer table row", "speed_factor != 1",
    "zero background cars", "zero cars at all", "pedestrian arrived (new target)",
    "pedestrian blocked (sidewalk point)", "pedestrian waited at the curb",
    "no car within 16 m of a pedestrian",
)


def _oracle_world(name: str):
    from repro.sim.world import World, WorldConfig

    config, ticks = ORACLE_WORLDS[name]
    world = World(WorldConfig(**config))
    world.traffic.bank.speed_factor[::3] = 0.8
    return world, ticks


def _world_digests(name: str, cars: np.ndarray, peds: list) -> dict[str, str]:
    """One digest per world and agent kind over every tick's state."""
    return {
        f"{name}.cars": _sha(np.ascontiguousarray(cars, dtype=np.float64).tobytes()),
        f"{name}.peds": _sha(np.asarray(peds, dtype=np.float64).tobytes()),
    }


def _world_scalar(runner: "Runner", check: Check, scratch: Path) -> Run:
    """Step the oracle worlds without their banks: a loop over
    per-object drivers (``ExpertAutopilot.control`` on brute-force
    ``road_obstacles``, then ``advance``) in the order ``World.step``
    and ``TrafficManager.step`` visited them before the bank, and
    per-object ``Pedestrian`` walkers (``walk_pedestrians``) born from the
    traffic's initial pedestrian rows and their generators.  Route
    renewal is the worlds' own: production keeps it scalar too.
    ``facts["trajectories"][world]`` is ``(ticks, cars, 5)``: x, y,
    heading, speed, s; fleet first."""
    from repro.sim.autopilot import ExpertAutopilot
    from repro.sim.kinematics import VehicleState, advance
    from repro.sim.traffic import Pedestrian, road_obstacles, walk_pedestrians
    from repro.sim.world import DT

    fired = dict.fromkeys(ORACLE_BRANCHES, 0)

    class TallyingPilot(ExpertAutopilot):
        def control(self, state, obstacles, dt=0.1):
            out = super().control(state, obstacles, dt=dt)
            fired["creep engaged"] += self._stopped_time > 6.0
            fired["no obstacle in range"] += len(obstacles) == 0
            return out

        def _blocker_side(self, state, obstacles):
            side = super()._blocker_side(state, obstacles)
            fired["edged around a blocker"] += side != 0.0
            return side

        def _obstacle_speed_limit(self, state, obstacles, wide=False, narrow=False):
            limit = super()._obstacle_speed_limit(state, obstacles, wide, narrow)
            if wide and limit != super()._obstacle_speed_limit(state, obstacles):
                fired["wide corridor changed the limit"] += 1
            return limit

    class TallyingPedestrian(Pedestrian):
        def step(self, dt, car_positions=None, car_speeds=None):
            position, target = self.position, self._target
            super().step(dt, car_positions, car_speeds)
            fired["no car within 16 m of a pedestrian"] += car_positions is None
            if self._target is not target:
                arrived = np.linalg.norm(target - position) < 1.0
                fired["pedestrian arrived (new target)"] += arrived
                fired["pedestrian blocked (sidewalk point)"] += not arrived
            elif self.position is position:
                fired["pedestrian waited at the curb"] += 1

    class Driver:
        def __init__(self, plan, renew, speed_factor):
            start = plan.point_at(0.0)
            self.state = VehicleState(start[0], start[1], plan.heading_at(0.0), 0.0)
            self.pilot = TallyingPilot(plan)
            self.renew, self.speed_factor = renew, speed_factor

        def step(self, town, agents, index, dt):
            if self.pilot.done():
                self.pilot = TallyingPilot(self.renew(self.state.position))
            near = road_obstacles(town, agents, agents[index], exclude=index)
            turn_rate, accel = self.pilot.control(self.state, near, dt=dt)
            self.state = advance(self.state, turn_rate * self.speed_factor, accel, dt)

        def row(self):
            state = self.state
            return [state.x, state.y, state.heading, state.speed, self.pilot.route_progress]

    def positions(drivers):
        return np.array([d.state.position for d in drivers]).reshape(-1, 2)

    run = Run({"alone.cars": _sha(b"")}, facts={"fired": fired, "trajectories": {}})
    for name in ORACLE_WORLDS:
        world, ticks = _oracle_world(name)
        town, traffic, dt = world.town, world.traffic, DT
        fleet = [
            Driver(v.plan, partial(world._new_route, i), 1.0)
            for i, v in enumerate(world.vehicles)
        ]
        background = [
            Driver(c.plan, partial(traffic._new_route, i), float(traffic.bank.speed_factor[i]))
            for i, c in enumerate(traffic.cars)
        ]
        walkers = [
            TallyingPedestrian(town, rng, position, target)
            for position, target, rng in zip(
                traffic.ped_position, traffic.ped_target, traffic.ped_rngs
            )
        ]
        cars, peds = [], []
        for _ in range(ticks):
            fleet_pre, background_pre = positions(fleet), positions(background)
            peds_pre = np.array([w.position for w in walkers]).reshape(-1, 2)
            everything = np.vstack([fleet_pre, background_pre, peds_pre])
            for i, driver in enumerate(fleet):
                driver.step(town, everything, i, dt)
            everything = np.vstack([background_pre, peds_pre, fleet_pre])
            for i, driver in enumerate(background):
                driver.step(town, everything, i, dt)
            walk_pedestrians(
                walkers,
                np.vstack([background_pre, fleet_pre]),
                np.array([d.state.speed for d in background + fleet]),
                dt,
            )
            cars.append([d.row() for d in fleet + background])
            peds.append(np.array([w.position for w in walkers]).reshape(-1, 2))
        cars = np.asarray(cars, dtype=np.float64).reshape(ticks, len(fleet + background), 5)
        run.facts["trajectories"][name] = cars
        run.digests.update(_world_digests(name, cars, peds))
    return run


def _world_batched(runner: "Runner", check: Check, scratch: Path) -> Run:
    """Step the same worlds the production way, ``World.step``, after
    checking that this numpy can reproduce the per-object controller
    and walkers."""
    from repro.sim.traffic import TrafficManager

    reference = runner.check(check.reference)
    fired = dict(reference.facts["fired"])
    run = Run(
        {},
        failures=[*_elementwise_ufuncs(), *_stacked_dot()],
        facts={"fired": fired, "trajectories": {}, "reference": reference.facts["trajectories"]},
    )
    for name in ORACLE_WORLDS:
        world, ticks = _oracle_world(name)
        banks = (world.bank, world.traffic.bank)
        cars, peds = [], []
        for _ in range(ticks):
            width = max(bank.routes.knot_capacity for bank in banks)
            world.step()
            fired["renewed onto a longer table row"] += any(
                bank.routes.knot_capacity > width for bank in banks
            )
            cars.append(np.concatenate(
                [np.column_stack([b.x, b.y, b.heading, b.speed, b.s]) for b in banks]
            ))
            peds.append(world.traffic.pedestrian_positions().copy())
        run.facts["trajectories"][name] = np.asarray(cars)
        run.digests.update(_world_digests(name, run.facts["trajectories"][name], peds))
        fired["speed_factor != 1"] += int((world.traffic.bank.speed_factor != 1.0).sum())
        fired["zero background cars"] += bool(world.vehicles) and not world.traffic.cars
        fired["zero cars at all"] += not world.vehicles and not world.traffic.cars
    # run_episode under Straight: an empty manager stepped around an ego
    # (on the last world's town; any town will do).
    alone = TrafficManager(world.town, 0, 0, np.random.default_rng(0))
    alone.step(np.array([[20.0, 20.0]]), 0.1, extra_speeds=np.array([3.0]))
    run.digests["alone.cars"] = _sha(alone.car_positions().tobytes())
    run.notes.append("fired: " + ", ".join(f"{branch} x{n}" for branch, n in fired.items()))
    return run


def _elementwise_ufuncs():
    """``np.sin``/``np.cos``/``np.arctan2`` over an array must equal the
    same ufunc on each element: the bank is bit-identical to the scalar
    controller only on a numpy whose SIMD loops keep that promise."""
    rng = np.random.default_rng(17)
    for n in (1, 2, 3, 7, 8, 9, 15, 16, 17, 31, 64, 100, 333, 1000):
        a = rng.uniform(-4.0, 4.0, size=n)
        b = rng.normal(scale=30.0, size=n)
        for ufunc, args in ((np.sin, (a,)), (np.cos, (a,)), (np.arctan2, (b, a))):
            each = np.array([ufunc(*pair) for pair in zip(*args)])
            if bad := int((ufunc(*args).view(np.int64) != each.view(np.int64)).sum()):
                yield (
                    f"np.{ufunc.__name__} over {n} float64 values differs from the "
                    f"per-element call in {bad} of them: this numpy build cannot "
                    "reproduce the per-object controller, every world digest will shift"
                )


def _stacked_dot():
    """``np.matmul`` over a stack of 2-vectors (``(n, 1, 2) @ (n, 2, 1)``)
    must equal each row's ``.dot``: the pedestrian rows measure their
    walk that way, and equal the scalar walk only on a numpy/BLAS where
    both reach the same ``ddot``.  ``x*x + y*y`` rounds differently
    from a fused ``ddot``, so the values are the ones where that shows:
    signed zeros, subnormals, 1e±150 and squares that end in an exact
    half of the last place."""
    specials = [0.0, -0.0, 5e-324, -5e-324, 1e-310, 2.2250738585072014e-308, 1e-150,
                -1e-150, 1e150, -1e150, 0.5, -1.5, 2.5, 1 + 2**-27, -(1 + 2**-26), 3 - 2**-51]
    rng = np.random.default_rng(29)
    d = np.array([
        *itertools.product(specials, repeat=2),
        *rng.normal(size=(2000, 2)) * 10.0 ** rng.integers(-3, 4, size=(2000, 1)),
    ])
    stacked = np.matmul(d[:, None, :], d[:, :, None])[:, 0, 0]
    each = np.array([row.dot(row) for row in d])
    if bad := int((stacked.view(np.int64) != each.view(np.int64)).sum()):
        yield (
            f"np.matmul over a stack of 2-vectors differs from each row's .dot in {bad} "
            f"of {len(d)}: this numpy/BLAS cannot reproduce the per-object walkers, "
            "every pedestrian digest will shift"
        )


# -- invariants (each yields one message per violation) -----------------------


def dense_probes(run: Run):
    """The run reached stage 3 of a chat: psi maps were fitted (by the
    psi prober, the only place a chat fits one)."""
    if not run.result.counters.get("psi_probe_builds", 0) > 0:
        yield "no psi map was fitted: the run never got to Eq. 7"


def decisions_match_the_loop(run: Run):
    """Every chat's Eq. 7 picked the same (psi_i, psi_j) on the probe's
    maps as on the per-level loop's."""
    decisions = run.facts["decisions"]
    if not any(d.psi_i or d.psi_j for pair in decisions for d in pair):
        # (0, 0) with no gain on either axis is what any pair of maps decides.
        yield "no Eq. 7 decision sent a model: equal decisions say nothing of the maps"
    gap = run.facts["largest_map_gap"]
    for k, (probe, loop) in enumerate(decisions):
        if (probe.psi_i, probe.psi_j) != (loop.psi_i, loop.psi_j):
            yield (
                f"decision {k} flipped: probe ({probe.psi_i}, {probe.psi_j}) objective "
                f"{probe.objective!r}, loop ({loop.psi_i}, {loop.psi_j}) objective "
                f"{loop.objective!r}; largest relative map difference {gap:.1e}"
            )


def dense_steps(run: Run):
    """Every train event was a row of a full-width bank step."""
    fleet, n = run.result.trainer.fleet, len(run.result.nodes)
    if fleet.mean_step_width != n:
        yield f"mean step width {fleet.mean_step_width:.2f} on a fleet of {n}"
    steps = run.result.counters.get("train_steps", 0)
    if fleet.step_events != steps:
        yield f"{fleet.step_events} bank step events for {steps:.0f} train steps"


def clock_monotone(run: Run):
    """Each vehicle's loss curve starts at 0, ends at T and never steps
    back.  Its times strictly increase but for one known repeat: the
    final record at T follows the recorder's own tick there whenever T
    is a multiple of ``record_interval``."""
    results = run.result if isinstance(run.result, list) else [run.result]
    for result in results:
        recorder, end = result.loss_recorder, result.duration
        for key in recorder.keys():
            times, _ = recorder.series(key)
            tick = times[:-1] if len(times) > 1 and times[-1] == times[-2] == end else times
            if not (len(times) and times[0] == 0.0 and times[-1] == end
                    and np.all(np.diff(tick) > 0)):
                yield f"{result.method}/{key}: loss-curve times {times.tolist()} on [0, {end}]"


def transfers_conserved(run: Run):
    """No transfer delivered more bytes than it was asked to move, and no
    model arrived that was never attempted."""
    counters = run.session.registry.state()["counters"]
    delivered = counters.get("transfer.bytes_delivered", 0)
    requested = counters.get("transfer.bytes_requested", 0)
    if delivered > requested:
        yield f"transfers delivered {delivered:.0f} bytes of {requested:.0f} requested"
    if run.result.receive_completed > run.result.receive_attempted:
        yield f"received {run.result.receive_completed} of {run.result.receive_attempted} models"


def every_chat_accounted_once(run: Run):
    """A chat is in the log, dropped from it, or still on the air at T —
    exactly one of the three — and only a chat on the air holds the ledger."""
    trainer = run.result.trainer
    log = trainer.chat_log
    on_air = len(trainer.overlap.flights) if trainer.overlap is not None else 0
    chats = run.result.counters.get("chats", 0)
    if chats != len(log) + log.dropped + on_air:
        yield f"{chats:.0f} chats: {len(log)} logged, {log.dropped} dropped, {on_air} on the air"
    if (marks := int(trainer.ledger.in_flight.sum())) != 2 * on_air:
        yield f"{marks} in-flight marks for {on_air} chats on the air"


def swept_equals_pairwise(run: Run):
    """The contact index every neighbor query reads equals the
    per-instant reference on this world."""
    from repro.net.sweep import pairwise_encounters

    traces = run.context.traces
    swept = traces.contact_index(RADIO_RANGE).windows
    if swept.to_tuples() != pairwise_encounters(traces.positions, RADIO_RANGE).to_tuples():
        yield "swept encounter windows diverge from the all-pairs reference"


def a_chat_aborted_in_negotiate(run: Run):
    """Some synchronous chat lost its partner before stage 5 (only
    ``negotiate`` marks a chat aborted), so the accounting hooks beside
    this one read an aborted chat."""
    counters = run.session.registry.state()["counters"]
    if not any(name.startswith("chat.aborted.") for name in counters):
        yield "no chat aborted: the accounting hooks read only whole chats"


def budgets_held(run: Run):
    """No loss cache nor the chat log ends the run over its budget."""
    scale = run.context.scale
    for node in run.result.nodes:
        if node.loss_cache_size > scale.loss_cache_budget:
            yield f"{node.node_id}: loss cache {node.loss_cache_size} > {scale.loss_cache_budget}"
    if len(run.result.trainer.chat_log) > scale.chat_log_budget:
        yield f"chat log {len(run.result.trainer.chat_log)} > {scale.chat_log_budget}"


def shards_stepped(run: Run):
    """The fleet was cut into the row shards the spec asked for (clamped
    to its rows), and every train instant stepped all of them."""
    fleet, n = run.result.trainer.fleet, len(run.result.nodes)
    asked = run.result.spec.overrides["step_workers"]
    if len(fleet.shards) != min(asked, n):
        yield f"{len(fleet.shards)} row shards for step_workers={asked} on {n} rows"
    instants = run.result.counters.get("train_steps", 0) / n
    if not (0 < fleet.step_events / n == instants):
        yield f"the shards stepped {fleet.step_events / n:.0f} of {instants:.0f} train instants"


def flights_launched(run: Run):
    """Overlapped chats resolved and models shipped (they only land on commit)."""
    counters = run.session.registry.state()["counters"]
    resolved = counters.get("overlap.commits", 0) + counters.get("overlap.aborts", 0)
    if not resolved > 0 or run.result.receive_attempted == 0:
        yield (
            f"overlap never engaged: {resolved:.0f} overlapped chats resolved, "
            f"{run.result.receive_attempted} model transfers attempted"
        )


def a_barrier_held_a_flight(run: Run):
    states = run.facts["states"]
    held = [b for b, s in sorted(states.items()) if s.get("overlap", {}).get("flights")]
    if not held:
        yield f"none of {len(states)} barriers held an in-flight transfer"


#: What each ``methods.*`` row's method must have done for its digest to
#: pin that method and not a neighbour's: (what, test on the RunResult).
ONE_THING = {
    "ProxSkip": ("a server round pushed an average",
                 lambda r: r.counters.get("rounds", 0) > 0 and r.receive_completed > 0),
    "RSU-L": ("a vehicle synced with an RSU", lambda r: r.counters.get("rsu_syncs", 0) > 0),
    "DFL-DDS": ("a round-boundary exchange landed a model",
                lambda r: r.counters.get("exchanges", 0) > 0 and r.receive_completed > 0),
    "LbChat (equal comp.)": ("a model shipped with no psi map fitted",
                             lambda r: r.receive_completed > 0
                             and r.counters.get("psi_probe_builds", 0) == 0),
    "LbChat (avg. agg.)": ("a received model was averaged in", lambda r: r.receive_completed > 0),
    "LbChat (no priority)": ("a randomly chosen neighbour chatted",
                             lambda r: r.counters.get("chats", 0) > 0),
    "Local": ("nothing was sent",
              lambda r: r.receive_attempted == 0 and set(r.counters) == {"train_steps"}),
}


def did_its_one_thing(run: Run):
    """The run did what sets its method apart (:data:`ONE_THING`): a
    masked design that never fired digests like the method it masks."""
    result = run.result
    what, happened = ONE_THING[result.method]
    if not happened(result):
        yield (
            f"{result.method} did not do what sets it apart ({what}): {result.receive_completed}/"
            f"{result.receive_attempted} received, counters {dict(result.counters)}"
        )


def one_span_per_chat(run: Run):
    counts = run.session.tracer.span_counts()
    n_chats = len(run.result.trainer.chat_log)
    if n_chats == 0 or counts.get("chat", 0) != n_chats:
        yield f"{counts.get('chat', 0)} chat spans for {n_chats} ChatLog records"
    if counts.get("trainer_run") != 1:
        yield f"{counts.get('trainer_run')} trainer_run spans, expected 1"


def one_ledger(run: Run):
    """A session's registry adds up its runs' own ledgers: each
    ``trainer.*`` counter is the sum of the ``RunResult`` counters,
    ``model_rx.*`` the summed receptions, and each ``chat.aborted.*`` the
    aborted ``ChatLog`` records of that stage."""
    want: dict[str, float] = {}

    def add(name: str, value: float) -> None:
        want[name] = want.get(name, 0.0) + value

    for result in run.result:
        for name, value in result.counters.items():
            add(f"trainer.{name}", value)
        add("model_rx.attempted", result.receive_attempted)
        add("model_rx.completed", result.receive_completed)
        log = getattr(result.trainer, "chat_log", None)
        for stage, n in (log.abort_counts() if log is not None else {}).items():
            add(f"chat.aborted.{stage}", n)
    got = {
        name: value
        for name, value in run.session.registry.state()["counters"].items()
        if name.startswith(("trainer.", "model_rx.", "chat.aborted."))
    }
    for name in sorted({*got, *want}):
        if got.get(name) != want.get(name):
            yield f"registry {name} is {got.get(name)}; the runs' ledgers sum to {want.get(name)}"


def export_round_trips(run: Run):
    from repro.telemetry import export_jsonl, load_jsonl

    reloaded = load_jsonl(export_jsonl(run.session, run.scratch / "trace.jsonl"))
    if reloaded.span_counts() != run.session.tracer.span_counts():
        yield "JSONL export does not round-trip span counts"
    if reloaded.metrics != run.session.registry.snapshot():
        yield "JSONL export does not round-trip metrics"


def crash_shaped_history(run: Run):
    """The child saved barriers 1-2 and died; the resume continued from 2,
    saved the rest, marked the run done and left no temp file."""
    history = [
        (event["event"], event["barrier"])
        for event in run.facts["events"]
        if event["event"] in ("saved", "resumed")
    ]
    saved = [("saved", barrier) for barrier in run.facts["barriers"]]
    want = [*saved[:KILL_AT], ("resumed", KILL_AT), *saved[KILL_AT:]]
    if history != want:
        yield f"event log reads {history}, want {want}"
    run_dir = run.facts["run_dir"]
    if run.facts["done_at_death"] or not (run_dir / "done.json").exists():
        yield "done marker present at the kill or missing after the resume"
    if leftovers := sorted(path.name for path in run_dir.glob("*.tmp")):
        yield f"temp files survived the kill/resume cycle: {leftovers}"


def resumed_at_the_barrier(run: Run):
    """The continuation loaded the first barrier from disk."""
    resumed = [event["barrier"] for event in run.facts["events"] if event["event"] == "resumed"]
    if resumed != [1]:
        yield f"resumed from barriers {resumed}, want [1]"


def restored_cache_read(run: Run):
    """A resume read the loss cache it restored, so the row's digests
    cover it: a restore that dropped the cache fails here, one that
    damaged its values fails the digests."""
    if not run.facts["cache_reads"]:
        yield "no lookup hit a restored loss before the model moved on"


def models_attempted(run: Run):
    """Eq. 7 sent a model: a resume that restored a wrong psi map or
    loss cache would move what is sent, which an all-(0, 0) run hides."""
    if not run.result.receive_attempted:
        yield "no model transfer was attempted: every decision was (0, 0)"


def in_submission_order(run: Run):
    for key, value in run.digests.items():
        if key.endswith(".arrived") and key != f"{value}.arrived":
            yield f"slot {key.removesuffix('.arrived')} holds the result of {value}"


def crossed_a_process_boundary(run: Run):
    """Pool results are pickled, which drops the live trainer."""
    if any(result.trainer is not None for result in run.result):
        yield "a result never left this process: the pool fell back to serial"


def traces_came_from_a_child(run: Run):
    """The set-up forked its trace world and the traces crossed the pipe."""
    counters = run.session.registry.state()["counters"]
    if counters.get("fork.from_child") != 1:
        reasons = [name for name in sorted(counters) if name.startswith("fork.in_process.")]
        yield f"the traces never left this process ({', '.join(reasons) or 'nothing counted'})"


def first_divergence(run: Run):
    """Where the bank left the per-object controller, if it did."""
    for name, got in run.facts["trajectories"].items():
        want = run.facts["reference"][name]
        differs = got.view(np.int64) != want.view(np.int64)
        if differs.any():
            tick, car, column = np.argwhere(differs)[0]
            yield (
                f"{name}: first differs at tick {tick}, car {car}, "
                f"{('x', 'y', 'heading', 'speed', 's')[column]}: "
                f"{got[tick, car, column]!r} vs {want[tick, car, column]!r}"
            )


def rare_branches_fired(run: Run):
    """Every rare branch of the controller ran in the oracle worlds."""
    for branch, count in run.facts["fired"].items():
        if not count:
            yield f"never reached: {branch} (equality says nothing about it)"


_ON = {"overrides": {"overlap_chat": True}}

#: The table.  Row order is print order; rows run on demand, once.
CHECKS: dict[str, Check] = {
    check.name: check
    for check in (
        Check("hotpath.LbChat", "golden", "hotpath",
              invariants=(dense_steps, dense_probes, transfers_conserved,
                          every_chat_accounted_once, clock_monotone, swept_equals_pairwise)),
        Check("hotpath.SCO", "golden", "hotpath", "SCO", invariants=(dense_steps, clock_monotone)),
        Check("hotpath.DP", "golden", "hotpath", "DP", invariants=(dense_steps, clock_monotone)),
        Check("hotpath.telemetry", "golden", "hotpath", produce=_registry_of_three_runs,
              invariants=(one_ledger, clock_monotone)),
        Check("fleet.segment", "golden", produce=_fleet_segment),
        Check("city.contacts", "golden", "city", produce=_contact_windows,
              invariants=(swept_equals_pairwise,)),
        Check("city.LbChat", "golden", "city",
              invariants=(dense_steps, budgets_held, dense_probes, clock_monotone)),
        Check("city.short_range", "golden", "city", spec={"coreset_size": 150},
              produce=_short_range_run,
              invariants=(a_chat_aborted_in_negotiate, transfers_conserved,
                          every_chat_accounted_once, dense_steps, clock_monotone)),
        *(
            Check(f"stepshard.workers{n}", "hotpath.LbChat", "hotpath",
                  spec={"overrides": {"step_workers": n}},
                  invariants=(shards_stepped, clock_monotone))
            for n in (1, 2, 4)
        ),
        Check("stepshard.block1", "hotpath.LbChat", "hotpath",
              spec={"overrides": {"step_workers": 2}}, produce=_run_in_one_row_blocks,
              invariants=(shards_stepped, clock_monotone)),
        Check("overlap.off", "golden", "overlap",
              invariants=(dense_steps, one_span_per_chat, export_round_trips,
                          transfers_conserved, every_chat_accounted_once, clock_monotone,
                          swept_equals_pairwise)),
        # On the overlap world, where Eq. 7 ships models: every hotpath
        # decision is (0, 0) with no gain, which any maps would decide.
        Check("psi.loop", "overlap.off", "overlap", produce=_maps_fitted_twice,
              invariants=(decisions_match_the_loop, dense_probes, clock_monotone)),
        Check("overlap.on", "golden", "overlap", spec=_ON,
              invariants=(dense_steps, flights_launched, transfers_conserved,
                          every_chat_accounted_once, clock_monotone)),
        Check("overlap.barriers", "overlap.on", "overlap", spec=_ON, produce=_run_with_barriers,
              invariants=(a_barrier_held_a_flight, clock_monotone)),
        Check("overlap.resumed", "overlap.barriers", "overlap", spec=_ON,
              produce=_resume_every_barrier, invariants=(clock_monotone,)),
        # On the overlap world, where every variant does what sets it apart
        # (on hotpath no model arrives: the aggregation ablation is LbChat).
        *(
            Check(f"methods.{method}", "golden", "overlap", method,
                  invariants=(dense_steps, clock_monotone, did_its_one_thing))
            for method in ONE_THING
        ),
        # On the overlap world, where Eq. 7 sends: a resume must bring
        # back the psi maps and loss caches that decide what is sent.
        Check("checkpoint.uninterrupted", "overlap.off", "overlap",
              spec={"checkpoint_every": OVERLAP_BARRIER_EVERY},
              invariants=(dense_steps, clock_monotone, models_attempted)),
        Check("checkpoint.killed", "checkpoint.uninterrupted", "overlap",
              produce=_kill_and_resume,
              invariants=(crash_shaped_history, clock_monotone, models_attempted)),
        # The baselines that keep state beside their nodes, through the store.
        *(
            Check(f"checkpoint.resumed.{method}", f"methods.{method}", "overlap", method,
                  produce=_resume_from_a_store,
                  invariants=(resumed_at_the_barrier, clock_monotone, did_its_one_thing))
            for method in ("ProxSkip", "RSU-L", "DFL-DDS")
        ),
        Check("cache.barriers", None, "city-cache",
              spec={**_ON, "checkpoint_every": CACHE_BARRIER_EVERY},
              produce=_run_with_barriers, invariants=(clock_monotone,)),
        Check("cache.resumed", "cache.barriers", "city-cache",
              spec={**_ON, "checkpoint_every": CACHE_BARRIER_EVERY},
              produce=_resume_reading_the_cache, invariants=(restored_cache_read, clock_monotone)),
        Check("world.scalar", None, produce=_world_scalar),
        Check("world.batched", "world.scalar", produce=_world_batched,
              invariants=(first_divergence, rare_branches_fired)),
        Check("context.inprocess", None, "hotpath", produce=_traces_in_process),
        Check("context.forked", "context.inprocess", "hotpath", produce=_traces_of_a_fresh_context,
              invariants=(traces_came_from_a_child,)),
        Check("parallel.jobs1", None, "hotpath", produce=partial(_run_batch, jobs=1),
              invariants=(in_submission_order, clock_monotone)),
        Check("parallel.jobs4", "parallel.jobs1", "hotpath", produce=partial(_run_batch, jobs=4),
              invariants=(in_submission_order, crossed_a_process_boundary, clock_monotone)),
    )
}


# -- runner -------------------------------------------------------------------


class Runner:
    """Runs rows on demand, each once (references before their readers)."""

    def __init__(self, golden: dict | None = None):
        self.golden = json.loads(GOLDEN_PATH.read_text()) if golden is None else golden
        self.done: dict[str, Run] = {}

    def check(self, name: str, record: bool = False) -> Run:
        """Row ``name``'s run, failures filled in; ``record`` re-baselines a golden row."""
        if name in self.done:
            return self.done[name]
        check = CHECKS[name]
        start = time.perf_counter()
        with entering() as entered, tempfile.TemporaryDirectory(prefix=f"selfcheck-{name}-") as tmp:
            run = (check.produce or _run_spec)(self, check, Path(tmp))
            if check.reference == "golden" and record:
                self.golden[name] = run.digests
            elif check.reference is not None:
                want = (
                    self.golden.get(name, {})
                    if check.reference == "golden"
                    else self.check(check.reference).digests
                )
                run.failures += [
                    f"{key}: got {run.digests.get(key)!r}, want {want.get(key)!r}"
                    for key in sorted({*want, *run.digests})
                    if run.digests.get(key) != want.get(key)
                ]
            run.failures += [message for hook in check.invariants for message in hook(run)]
            if run.failures and any(Path(tmp).iterdir()):
                kept = tempfile.mkdtemp(prefix=f"selfcheck-{name}-kept-")
                shutil.copytree(tmp, kept, dirs_exist_ok=True)
                run.failures.append(f"scratch directory kept at {kept}")
        run.seconds = time.perf_counter() - start
        run.entered = entered
        self.done[name] = run
        return run


def selfcheck(names: Iterable[str] = (), record: bool = False) -> int:
    """Run the named rows (all by default), print the table, return an
    exit code.  GEMM is pinned to one thread first, whoever calls: the
    goldens are single-thread results."""
    from repro.nn._fused import kernel_status
    from repro.parallel.stepshard import default_step_shards

    pin_blas_threads()
    names = list(names) or list(CHECKS)
    if unknown := [name for name in names if name not in CHECKS]:
        print(f"unknown row(s) {unknown}; rows: {' '.join(CHECKS)}")
        return 2
    adam = kernel_status()
    adam_path = f"{adam['path']}, {adam['so'] or adam['reason']}"
    print(
        f"BLAS threads: {blas_threads()}; step shards: {default_step_shards()}; "
        f"FleetAdam: {adam_path}"
    )
    runner = Runner()
    failed = []
    for name in names:
        check = CHECKS[name]
        run = runner.check(name, record=record)
        recorded = record and check.reference == "golden"
        verdict = "FAIL" if run.failures else "recorded" if recorded else "ok"
        hooks = " ".join(hook.__name__ for hook in check.invariants)
        reference = check.reference or "-"
        print(f"{name:30s}· {reference:26s}· {verdict:8s} {run.seconds:5.1f}s  {hooks}")
        for note in run.notes:
            print(f"{'':30s}  {note}")
        failed += [f"{name}: {failure}" for failure in run.failures]
    if record:
        GOLDEN_PATH.write_text(json.dumps(runner.golden, indent=2, sort_keys=True) + "\n")
        print(f"golden file rewritten: {GOLDEN_PATH}")
    for failure in failed:
        print(f"FAIL {failure}")
    print(f"selfcheck {'FAILED' if failed else 'OK'}: {len(names)} rows, {len(failed)} failure(s)")
    return 1 if failed else 0


if __name__ == "__main__":  # _kill_and_resume's child: runs a row into a store, dies at a barrier
    pin_blas_threads()
    _run_spec(None, CHECKS[sys.argv[1]], Path(sys.argv[2]))
    sys.exit("the kill hook never fired")

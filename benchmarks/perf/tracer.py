"""Outside-in span tracer: wraps public callables for one repetition.

Nothing under ``src/`` knows about this tracer.  :class:`Tracer`
replaces each callable in :data:`SPANS` with a timing wrapper — on the
owning class for methods; for functions in every ``sys.modules`` global
(and every module-level dict value, which is how policy and factory
registries hold them) that *is* the original, so ``from x import f``
bindings are covered — keeps ``(span, start, end, parent)`` records in
memory, and puts every original back on exit, exception or not.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from types import ModuleType

import numpy as np

__all__ = ["SPANS", "SETUP_SPANS", "ROOT_SPAN", "Tracer", "span_stats", "chrome_events"]

#: span name -> ``module:attribute path`` of the public callable it times.
#: Span names are ``<package>.<what>``; the package prefix is the layer.
SPANS: dict[str, str] = {
    # set-up (fresh world; the sweep only runs for fleets >= SWEPT_MIN_VEHICLES)
    "experiments.build_context": "repro.experiments.runner:build_context",
    "sim.collect_fleet_datasets": "repro.sim.dataset:collect_fleet_datasets",
    "sim.simulate_traces": "repro.sim.traces:simulate_traces",
    "net.sweep_encounters": "repro.net.sweep:sweep_encounters",
    # fixed per-repetition cost
    "experiments.prepare_trainer": "repro.experiments.runner:prepare_trainer",
    "nn.clone_model": "repro.nn.params:clone_model",
    # event loop (self time = dispatch + trainer glue)
    "engine.sim_run": "repro.engine.events:Simulator.run",
    # fleet training and evaluation
    "core.fleet_train_step_all": "repro.core.fleet:FleetEngine.train_step_all",
    "nn.fleet_forward": "repro.nn.bank:FleetWaypointNet.forward",
    "nn.fleet_backward": "repro.nn.bank:FleetWaypointNet.backward",
    "nn.fleet_adam_step": "repro.nn.bank:FleetAdam.step",
    "sim.dataset_sample_batch": "repro.sim.dataset:DrivingDataset.sample_batch",
    "core.fleet_evaluate_fleet": "repro.core.fleet:FleetEngine.evaluate_fleet",
    # synchronous chat protocol
    "core.pairwise_chat": "repro.core.chat:pairwise_chat",
    "core.build_psi_map": "repro.core.node:VehicleNode.build_psi_map",
    "core.optimize_compression": "repro.core.psi:optimize_compression",
    "core.evaluate_model_on": "repro.core.node:VehicleNode.evaluate_model_on",
    "core.receive_and_aggregate": "repro.core.node:VehicleNode.receive_and_aggregate",
    "nn.model_forward": "repro.nn.model:WaypointNet.forward",
    # overlapped chat protocol
    "core.plan_chat": "repro.core.overlap:plan_chat",
    "core.dense_psi_build": "repro.core.overlap:DensePsiProber.build",
    "core.overlap_launch": "repro.core.overlap:TransferScheduler.launch",
    "net.transfer_session_step": "repro.net.channel:TransferSession.step",
    # coresets
    "core.absorb_coreset": "repro.core.node:VehicleNode.absorb_coreset",
    "core.refresh_coreset": "repro.core.node:VehicleNode.refresh_coreset",
    "coreset.build_coreset": "repro.coreset.construction:build_coreset",
    "coreset.reduce_coreset": "repro.coreset.merge:reduce_coreset",
    "sim.dataset_absorb_from": "repro.sim.dataset:DrivingDataset.absorb_from",
    # compression
    "compression.topk_plan": "repro.compression.topk:topk_plan",
    "compression.plan_compress": "repro.compression.topk:TopkPlan.compress",
    "compression.decompress": "repro.compression.topk:decompress",
    # partner selection and the radio
    "core.select_priority": "repro.core.selection:select_priority",
    "net.estimate_contact": "repro.net.contact:estimate_contact",
    "sim.traces_neighbors": "repro.sim.traces:MobilityTraces.neighbors",
    "net.simulate_transfer": "repro.net.channel:simulate_transfer",
    # checkpointing
    "checkpoint.barrier_snapshot": "repro.core.trainer_base:TrainerBase.checkpoint_barrier",
    "checkpoint.save_checkpoint": "repro.checkpoint.store:RunStore.save_checkpoint",
}

#: Spans that belong to building a world; they never fire in a timed
#: repetition (the context is built and its memos are warm by then).
SETUP_SPANS = (
    "experiments.build_context",
    "sim.collect_fleet_datasets",
    "sim.simulate_traces",
    "net.sweep_encounters",
)

#: The span a :class:`Tracer` opens around everything it observes, so
#: that self times sum to one known total.
ROOT_SPAN = "bench.root"


class Tracer:
    """Times the :data:`SPANS` callables while the ``with`` block runs."""

    def __init__(self, spans: dict[str, str] | None = None):
        self.spans = dict(SPANS if spans is None else spans)
        self.names: list[str] = [ROOT_SPAN, *self.spans]
        # One record per call, as four parallel columns.
        self.span_ids: list[int] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, object, object]] = []

    # -- recording -------------------------------------------------------------

    def _open(self, span_id: int) -> int:
        index = len(self.starts)
        self.span_ids.append(span_id)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(0.0)
        self._stack.append(index)
        self.starts.append(time.perf_counter())
        return index

    def _close(self, index: int) -> None:
        self.ends[index] = time.perf_counter()
        self._stack.pop()

    def _wrapper(self, span_id: int, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self._open(span_id)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(index)

        return traced

    # -- patching --------------------------------------------------------------

    def _patch(self, owner, key, replacement) -> None:
        if isinstance(owner, dict):
            self._patched.append((owner, key, owner[key]))
            owner[key] = replacement
        else:
            self._patched.append((owner, key, inspect.getattr_static(owner, key)))
            setattr(owner, key, replacement)

    def _install(self) -> None:
        traced_functions: dict[int, object] = {}  # id(original) -> wrapper
        for span_id, target in enumerate(self.spans.values(), start=1):
            module_name, _, path = target.partition(":")
            owner = importlib.import_module(module_name)
            *holders, attr = path.split(".")
            for holder in holders:
                owner = getattr(owner, holder)
            original = inspect.getattr_static(owner, attr)
            if not inspect.isfunction(original):
                raise TypeError(f"{target} is not a plain function: {original!r}")
            traced = self._wrapper(span_id, original)
            if holders:
                self._patch(owner, attr, traced)
            else:
                traced_functions[id(original)] = traced
        for module in list(sys.modules.values()):
            if not isinstance(module, ModuleType):
                continue
            for key, value in list(vars(module).items()):
                if inspect.isfunction(value):
                    if id(value) in traced_functions:
                        self._patch(module, key, traced_functions[id(value)])
                elif type(value) is dict:
                    for item_key, item in list(value.items()):
                        if inspect.isfunction(item) and id(item) in traced_functions:
                            self._patch(value, item_key, traced_functions[id(item)])

    def _restore(self) -> None:
        while self._patched:
            owner, key, original = self._patched.pop()
            if isinstance(owner, dict):
                owner[key] = original
            else:
                setattr(owner, key, original)

    def __enter__(self) -> "Tracer":
        try:
            self._install()
        except BaseException:
            self._restore()
            raise
        self._root = self._open(0)
        return self

    def __exit__(self, *exc_info) -> None:
        end = time.perf_counter()
        self._restore()
        # An exception unwinds through the wrappers' ``finally`` blocks
        # first, so only the root is still open here.
        self.ends[self._root] = end
        self._stack.clear()


def span_stats(tracer: Tracer, clock=None) -> dict[str, dict[str, float]]:
    """Per-span ``calls``, ``total_s`` and ``self_s`` from a tracer's records.

    Self time is a span's duration minus its direct children's, so over
    any record set the self times sum to the root's total.  ``clock``
    (a :class:`~benchmarks.perf.hostclock.HostClock`) maps the recorded
    instants to host-normalised seconds first; ``None`` keeps them raw.
    """
    span_ids = np.asarray(tracer.span_ids, dtype=np.int64)
    starts = np.asarray(tracer.starts, dtype=float)
    ends = np.asarray(tracer.ends, dtype=float)
    parents = np.asarray(tracer.parents, dtype=np.int64)
    if clock is not None:
        starts, ends = clock.at(starts), clock.at(ends)
    durations = ends - starts
    self_times = durations.copy()
    has_parent = parents >= 0
    np.subtract.at(self_times, parents[has_parent], durations[has_parent])
    n = len(tracer.names)
    calls = np.bincount(span_ids, minlength=n)
    totals = np.bincount(span_ids, weights=durations, minlength=n)
    selfs = np.bincount(span_ids, weights=self_times, minlength=n)
    return {
        name: {
            "calls": int(calls[i]),
            "total_s": float(totals[i]),
            "self_s": float(selfs[i]),
        }
        for i, name in enumerate(tracer.names)
    }


def chrome_events(tracer: Tracer, tid: int, origin: float) -> list[dict]:
    """The tracer's records as Chrome-trace complete (``"X"``) events."""
    return [
        {
            "name": tracer.names[span_id],
            "cat": tracer.names[span_id].split(".")[0],
            "ph": "X",
            "pid": 0,
            "tid": tid,
            "ts": (start - origin) * 1e6,
            "dur": (end - start) * 1e6,
        }
        for span_id, start, end in zip(tracer.span_ids, tracer.starts, tracer.ends)
    ]

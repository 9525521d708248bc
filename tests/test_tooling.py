"""Tests for tooling: checkpoints, run archives, context cache, CLI, the orphan gate."""

import ast
import json
import re
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from repro.cli import build_parser, main
from repro.experiments.runner import METHOD_NAMES
from repro.nn import make_driving_model
from repro.nn.params import get_flat_params
from repro.nn.serialize import load_model, save_model


class TestModelCheckpoints:
    def test_roundtrip_exact(self, tmp_path):
        model = make_driving_model((3, 8, 8), 4, 16, seed=3)
        path = tmp_path / "model.npz"
        save_model(model, path)
        restored = load_model(path)
        assert np.array_equal(get_flat_params(restored), get_flat_params(model))
        assert restored.bev_shape == model.bev_shape
        assert restored.n_waypoints == model.n_waypoints

    def test_a_conv_checkpoint_is_refused_and_an_old_mlp_one_loads(self, tmp_path):
        """Format-1 files written while a conv trunk existed carry a
        ``use_conv`` flag, which is no longer read: a conv model's file is
        refused by its parameter count, an MLP's loads to the same bits."""

        def written_with_the_flag(use_conv, params):
            path = tmp_path / f"use_conv_{use_conv}.npz"
            np.savez_compressed(
                path,
                version=np.int64(1),
                params=params,
                bev_shape=np.asarray((3, 8, 8), dtype=np.int64),
                n_waypoints=np.int64(4),
                hidden=np.int64(16),
                use_conv=np.bool_(use_conv),
            )
            return path

        # Conv(3 -> 8, 3x3), Linear(8 * 6 * 6 -> 16), 4 heads (16 -> 8).
        conv_size = (8 * 3 * 3 * 3 + 8) + (8 * 6 * 6 * 16 + 16) + 4 * (16 * 8 + 8)
        conv = written_with_the_flag(True, np.ones(conv_size, dtype=np.float32))
        with pytest.raises(ValueError, match=f"stored {conv_size} parameters"):
            load_model(conv)
        model = make_driving_model((3, 8, 8), 4, 16, seed=3)
        restored = load_model(written_with_the_flag(False, get_flat_params(model)))
        assert get_flat_params(restored).tobytes() == get_flat_params(model).tobytes()

    def test_prediction_identical_after_roundtrip(self, tmp_path):
        model = make_driving_model((3, 8, 8), 4, 16, seed=3)
        rng = np.random.default_rng(1)
        bev = rng.normal(size=(2, 3, 8, 8)).astype(np.float32)
        commands = np.array([0, 2])
        expected = model.forward(bev, commands)
        path = tmp_path / "model.npz"
        save_model(model, path)
        assert np.allclose(load_model(path).forward(bev, commands), expected)

    def test_bad_version_rejected(self, tmp_path):
        model = make_driving_model((3, 8, 8), 4, 16, seed=3)
        path = tmp_path / "model.npz"
        save_model(model, path)
        data = dict(np.load(path))
        data["version"] = np.int64(99)
        np.savez(path, **data)
        with pytest.raises(ValueError):
            load_model(path)


class TestRunArchives:
    def test_save_and_load(self, tmp_path, fleet_datasets, traces):
        from repro.core.lbchat import LbChatConfig, LbChatTrainer
        from repro.experiments.configs import CI
        from repro.experiments.io import load_run, save_run
        from repro.experiments.runner import RunResult, RunSpec
        from repro.sim.dataset import DrivingDataset
        from tests.conftest import make_fleet

        validation = DrivingDataset(
            [fleet_datasets["v0"].frame(i) for i in range(0, 40, 4)]
        )
        nodes = make_fleet(fleet_datasets, coreset_size=8, seed=9)
        trainer = LbChatTrainer(
            nodes,
            traces,
            validation,
            LbChatConfig(duration=60.0, train_interval=3.0, record_interval=20.0, seed=1),
        )
        trainer.run()
        spec = RunSpec(method="LbChat", scale=CI, seed=1)
        result = RunResult.from_trainer(spec, trainer, nodes)
        path = tmp_path / "run.json"
        save_run(result, path, n_points=9)
        payload = load_run(path)
        assert payload["method"] == "LbChat"
        assert len(payload["loss_curve"]) == 9
        assert 0.0 <= payload["receive_rate"] <= 1.0
        json.loads(path.read_text())  # valid JSON on disk


class TestContextCache:
    def test_fingerprint_stable_and_sensitive(self):
        from dataclasses import replace

        from repro.experiments.configs import CI
        from repro.experiments.io import scale_fingerprint

        assert scale_fingerprint(CI) == scale_fingerprint(CI)
        changed = replace(CI, collect_duration=CI.collect_duration + 1)
        assert scale_fingerprint(changed) != scale_fingerprint(CI)

    @staticmethod
    def micro(name):
        from dataclasses import replace

        from repro.experiments.configs import CI
        from repro.sim.world import WorldConfig

        return replace(
            CI,
            name=name,
            world=WorldConfig(
                map_size=400.0,
                grid_n=3,
                n_vehicles=2,
                n_background_cars=0,
                n_pedestrians=0,
                seed=2,
                min_route_length=100.0,
            ),
            collect_duration=20.0,
            trace_duration=40.0,
        )

    def test_cache_roundtrip(self, tmp_path):
        from repro.experiments.io import cached_context

        micro = self.micro("cache-test")
        first = cached_context(micro, cache_dir=tmp_path)
        assert any(tmp_path.iterdir())
        second = cached_context(micro, cache_dir=tmp_path)
        assert sorted(second.datasets) == sorted(first.datasets)
        assert len(second.validation) == len(first.validation)

    def test_corrupt_cache_rebuilt(self, tmp_path):
        from repro.experiments.io import cached_context, scale_fingerprint

        micro = self.micro("corrupt-test")
        path = tmp_path / f"context-{micro.name}-{scale_fingerprint(micro)}.pkl"
        path.write_bytes(b"garbage")
        with pytest.warns(RuntimeWarning, match="discarding the context cache"):
            context = cached_context(micro, cache_dir=tmp_path)
        assert len(context.datasets) == 2

    def test_truncated_cache_rebuilt_with_a_warning(self, tmp_path):
        """What a writer killed mid-pickle (or two sharing one temp file)
        leaves behind is discarded out loud, naming the file and why."""
        import pickle
        import warnings

        from repro.experiments.io import cached_context, scale_fingerprint

        micro = self.micro("truncated-test")
        path = tmp_path / f"context-{micro.name}-{scale_fingerprint(micro)}.pkl"
        whole = cached_context(micro, cache_dir=tmp_path)
        path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])
        with pytest.warns(RuntimeWarning) as caught:
            rebuilt = cached_context(micro, cache_dir=tmp_path)
        (warning,) = caught
        assert str(path) in str(warning.message)
        assert "truncated" in str(warning.message) or "EOFError" in str(warning.message)
        assert sorted(rebuilt.datasets) == sorted(whole.datasets)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # the rebuilt file loads quietly
            cached_context(micro, cache_dir=tmp_path)
        with open(path, "rb") as fh:
            assert sorted(pickle.load(fh).datasets) == sorted(whole.datasets)

    def test_a_format_7_cache_is_refused_and_rebuilt(self, tmp_path, monkeypatch):
        """Format 8 pickles a ``TownMap`` whose roads are an adjacency
        dict (format 7's held a networkx graph) and pedestrians as rows.
        A format-7 file is never opened: the context is rebuilt under
        the current format's name (9: the frame pool's narrow channel
        forms) and the old file is left as it was."""
        import warnings

        from repro.experiments import io

        micro = self.micro("format7-test")
        with monkeypatch.context() as patched:
            patched.setattr(io, "_CACHE_FORMAT", 7)
            old = tmp_path / f"context-{micro.name}-{io.scale_fingerprint(micro)}.pkl"
        old.write_bytes(b"a format-7 context")
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # opening it would warn: it does not unpickle
            context = io.cached_context(micro, cache_dir=tmp_path)
        new = tmp_path / f"context-{micro.name}-{io.scale_fingerprint(micro)}.pkl"
        assert io._CACHE_FORMAT == 9 and new != old and new.exists()
        assert old.read_bytes() == b"a format-7 context"
        assert len(context.datasets) == 2
        assert not hasattr(context.town, "graph") and context.town.adjacency

    def test_a_cache_from_before_the_frame_pool_is_discarded(self, tmp_path, monkeypatch):
        """Cache format 4 pickled every dataset with frame buffers of its
        own.  Such a file under today's name is not adopted half-way: it
        goes through the same warning, and the context is rebuilt."""
        import pickle

        from repro.experiments.io import cached_context, scale_fingerprint
        from repro.sim.dataset import DrivingDataset

        micro = self.micro("format4-test")
        path = tmp_path / f"context-{micro.name}-{scale_fingerprint(micro)}.pkl"
        fresh = cached_context(micro, cache_dir=tmp_path)

        def format_4_state(dataset):
            bev, commands, targets, weights = dataset.arrays()
            return {
                "_ids": dataset.ids, "_index": {fid: i for i, fid in enumerate(dataset.ids)},
                "_size": len(dataset), "_bev": bev, "_commands": commands, "_targets": targets,
                "_weights": weights, "_generation": 1, "_uid": 0, "_views": None,
                "_views_generation": -1,
            }

        with monkeypatch.context() as patched:
            patched.setattr(DrivingDataset, "__getstate__", format_4_state)
            path.write_bytes(pickle.dumps(fresh))
        with pytest.warns(RuntimeWarning, match="discarding the context cache") as caught:
            rebuilt = cached_context(micro, cache_dir=tmp_path)
        assert "before frames moved into a FramePool" in str(caught[0].message)
        assert rebuilt.validation.pool is rebuilt.datasets["v0"].pool
        with open(path, "rb") as fh:  # and the file was replaced by a format-5 one
            assert pickle.load(fh).validation.ids == fresh.validation.ids

    def test_interleaved_writers_leave_a_loadable_file(self, tmp_path, monkeypatch):
        """Two processes resolve the same cold cache at once: the second
        opens, writes and renames its file while the first is halfway
        through its pickle.  With one shared temp name that interleaved
        two pickles in one inode; now each writer has its own."""
        import os
        import pickle

        from repro.experiments import io
        from repro.experiments.runner import build_context

        micro = self.micro("interleaved-test")
        context = build_context(micro)
        path = tmp_path / f"context-{micro.name}-{io.scale_fingerprint(micro)}.pkl"
        real_dump, real_pid = pickle.dump, os.getpid()
        writers = []

        def interleaved_dump(obj, fh, protocol=None):
            data = pickle.dumps(obj, protocol=protocol)
            writers.append(os.getpid())
            fh.write(data[: len(data) // 2])
            fh.flush()
            if len(writers) == 1:  # the other process runs start to finish now
                monkeypatch.setattr(os, "getpid", lambda: real_pid + 1)
                io.cached_context(micro, cache_dir=tmp_path)
                monkeypatch.setattr(os, "getpid", lambda: real_pid)
            fh.write(data[len(data) // 2 :])

        monkeypatch.setattr(pickle, "dump", interleaved_dump)
        assert io.cached_context(micro, cache_dir=tmp_path) is context
        monkeypatch.setattr(pickle, "dump", real_dump)
        assert writers == [real_pid, real_pid + 1]
        assert [p.name for p in tmp_path.iterdir()] == [path.name]  # no temp file left
        with open(path, "rb") as fh:
            loaded = pickle.load(fh)
        assert sorted(loaded.datasets) == sorted(context.datasets)
        assert len(loaded.validation) == len(context.validation)


class TestCli:
    def test_parser_subcommands(self):
        parser = build_parser()
        args = parser.parse_args(["run", "--method", "SCO", "--no-wireless"])
        assert args.method == "SCO" and args.wireless is False
        args = parser.parse_args(["table", "4", "--scale", "paper"])
        assert args.number == "4" and args.scale == "paper"
        args = parser.parse_args(["fig", "2a"])
        assert args.which == "2a"

    def test_scales_command(self, capsys):
        assert main(["scales"]) == 0
        out = capsys.readouterr().out
        assert "ci" in out and "paper" in out

    def test_unknown_command_exits(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])


class _Captured(Exception):
    """Raised by the stubbed execution entry point, carrying its spec."""


#: Flags of ``repro run`` / ``repro trace`` that only say where results go.
OUTPUT_ONLY = {"--out", "--save-model", "--csv"}


def _single_run_flags():
    """``(command, action)`` for every option ``repro run`` / ``repro trace``
    accept, output-only ones aside."""
    import argparse

    subparsers = next(
        action for action in build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    )
    return [
        (command, action)
        for command in ("run", "trace")
        for action in subparsers.choices[command]._actions
        if action.option_strings
        and not isinstance(action, argparse._HelpAction)
        and action.option_strings[0] not in OUTPUT_ONLY
    ]


RUN_FLAGS = _single_run_flags()


class TestEveryRunFlagReachesTheSpec:
    """A flag of ``repro run`` / ``repro trace`` is either output-only or
    changes the :class:`RunSpec` the command executes: none is accepted
    and then dropped.  The spec is captured at the execution entry point,
    before anything trains."""

    #: Non-default values for free-text flags (a new one must be added here).
    TEXT = {"method": "SCO", "checkpoint_dir": "elsewhere"}

    @classmethod
    def non_default(cls, action) -> list[str]:
        import argparse

        option = action.option_strings[0]
        if isinstance(action, argparse.BooleanOptionalAction):
            return [f"--no-{option[2:]}" if action.default else option]
        if action.nargs == 0:
            return [option]
        if action.choices:
            return [option, next(c for c in action.choices if c != action.default)]
        if action.type in (int, float):
            return [option, str((action.default or 1) + 1)]
        return [option, cls.TEXT[action.dest]]

    @pytest.fixture
    def spec_of(self, monkeypatch):
        def capture(spec, *args, **kwargs):
            raise _Captured(spec)

        # run_specs' serial path calls the worker's name, should a command route through it.
        monkeypatch.setattr("repro.parallel.execute_spec", capture)
        monkeypatch.setattr("repro.parallel.worker.execute_spec", capture)

        def spec_of(argv):
            with pytest.raises(_Captured) as caught:
                main(argv)
            return caught.value.args[0]

        return spec_of

    @pytest.mark.parametrize(
        "command, action",
        RUN_FLAGS,
        ids=[f"{command}{action.option_strings[0]}" for command, action in RUN_FLAGS],
    )
    def test_flag_changes_the_spec(self, spec_of, command, action):
        flag = self.non_default(action)
        assert spec_of([command, *flag]) != spec_of([command]), (
            f"repro {command} accepts {' '.join(flag)} and drops it"
        )


class TestBenchmarkTracer:
    """``testpaths`` never runs ``benchmarks/perf/tests``: what the frozen
    benchmark's tracer needs of ``src/`` is held here, in tier-1."""

    def test_every_span_target_is_a_plain_function_and_is_put_back(self):
        import importlib
        import inspect

        from benchmarks.perf.tracer import SPANS, Tracer

        def resolve(target):
            module, _, path = target.partition(":")
            *holders, attr = path.split(".")
            owner = importlib.import_module(module)
            for holder in holders:
                owner = getattr(owner, holder)
            return inspect.getattr_static(owner, attr)

        originals = {span: resolve(target) for span, target in SPANS.items()}
        assert all(inspect.isfunction(fn) for fn in originals.values())
        with Tracer():
            wrapped = {span: resolve(target) for span, target in SPANS.items()}
            assert all(wrapped[span] is not originals[span] for span in SPANS)
        assert {span: resolve(target) for span, target in SPANS.items()} == originals

    @pytest.mark.parametrize("overlap_chat", [False, True], ids=["synchronous", "overlapped"])
    def test_each_protocol_fires_its_own_chat_span(self, fleet_datasets, traces, overlap_chat):
        """``core.pairwise_chat`` times synchronous chats only and
        ``core.plan_chat`` fires once per overlapped chat: the table in
        ``benchmarks/perf/README.md``."""
        from benchmarks.perf.tracer import Tracer, span_stats
        from repro.core.lbchat import LbChatConfig, LbChatTrainer
        from repro.sim.dataset import DrivingDataset
        from tests.conftest import make_fleet

        nodes = make_fleet(fleet_datasets, coreset_size=8, seed=9)
        config = LbChatConfig(
            duration=30.0, train_interval=3.0, record_interval=30.0, seed=1,
            overlap_chat=overlap_chat,
        )
        validation = DrivingDataset([fleet_datasets["v0"].frame(i) for i in range(0, 40, 4)])
        trainer = LbChatTrainer(nodes, traces, validation, config)
        with Tracer() as tracer:
            trainer.run()
        calls = {span: stats["calls"] for span, stats in span_stats(tracer).items()}
        chats = trainer.counters.get("chats")
        assert chats > 0
        assert calls["core.plan_chat"] == (chats if overlap_chat else 0)
        assert calls["core.pairwise_chat"] == (0 if overlap_chat else chats)


class TestOneLedger:
    """ROADMAP item 11c (metamorphic) as a gate: what a run counts lives
    in its trainer's recorders, which a telemetry session adds up when
    the run ends — so a session over the same run twice holds exactly
    twice one run's counts, and a run cut at a barrier and finished in a
    fresh session leaves the registry of a run that went through."""

    #: Live re-counts of the recorders, gone with the ledger's twin.
    DUPLICATES = {"chat.count", "chat.completed", "chat.frames_absorbed", "coreset.frames_added"}

    @staticmethod
    def registry_of(*runs):
        """The registry state of one session over ``runs`` (callables)."""
        from repro.telemetry import TelemetrySession

        with TelemetrySession() as session:
            for run in runs:
                run()
        return session.registry.state()

    @staticmethod
    def hotpath_lbchat(**spec):
        from repro import selfcheck
        from repro.experiments.runner import RunSpec

        context = selfcheck._context("hotpath")
        return context, RunSpec.for_context(context, "LbChat", seed=selfcheck.SEED, **spec)

    def test_a_run_twice_counts_twice(self):
        from repro.experiments.runner import run_method

        context, spec = self.hotpath_lbchat()

        def run():
            run_method(context, spec)

        once, twice = self.registry_of(run), self.registry_of(run, run)
        assert not self.DUPLICATES & {*once["counters"], *twice["counters"]}
        assert "model_rx.rate" not in twice["gauges"]
        assert set(twice["counters"]) == set(once["counters"])
        ledger = {name for name in once["counters"] if name.startswith(("trainer.", "model_rx."))}
        assert {"trainer.train_steps", "trainer.chats", "model_rx.attempted"} <= ledger
        integral = {name for name, value in once["counters"].items() if value.is_integer()}
        for name in ledger | integral:
            assert twice["counters"][name] == 2 * once["counters"][name], name
        assert once["histograms"]
        for name, values in once["histograms"].items():
            assert len(twice["histograms"][name]) == 2 * len(values), name

    def test_a_run_resumed_in_a_fresh_session_leaves_the_same_registry(self):
        from repro import selfcheck
        from repro.experiments.runner import prepare_trainer

        context, spec = self.hotpath_lbchat(checkpoint_every=10.0)
        saver = selfcheck._MemoryCheckpointer(every=10.0)

        def run(state=None):
            _, trainer = prepare_trainer(context, spec)
            if state is not None:
                trainer.restore(state)  # merges state["telemetry"] into the session
            trainer.run(checkpointer=saver)

        through = self.registry_of(run)
        barrier = saver.states[2]
        assert barrier["telemetry"]["counters"]["run.record_ticks"] > 0
        assert not any(name.startswith("trainer.") for name in barrier["telemetry"]["counters"])
        resumed = self.registry_of(lambda: run(barrier))
        assert resumed["counters"] == through["counters"]
        assert through["counters"]["trainer.train_steps"] == 60


class TestOneWayToTakeAGradientStep:
    """ROADMAP items 9 and 15(a) as a gate — the bank is the network, and
    a fleet is born in it: a run builds one fleet ``ParamBank`` and no
    per-vehicle model, ``Adam`` or second home for a row; a trainer steps
    through ``FleetEngine.train_step_all``, fits psi maps with
    ``DensePsiProber.build``, and runs every other forward (cache misses,
    a received model's score) as a one-row ``FleetWaypointNet`` forward
    over the vehicle's bank row, whatever the fleet has collected.  The
    per-node stack — the reference step, ``WaypointNet.forward`` and its
    layers, the per-level psi loop and its scorer, ``clone_model`` — is
    the oracle (``tests/test_nn_bank.py``, ``tests/test_psi_prober.py``)
    no method reaches; and nodes a trainer cannot step together are
    refused, never trained some slower way."""

    @staticmethod
    def reference_only():
        from repro.core.node import VehicleNode
        from repro.nn.layers import Linear
        from repro.nn.model import WaypointNet
        from repro.nn.optim import Adam

        return (
            (WaypointNet, "forward"), (WaypointNet, "backward"), (Linear, "forward"),
            (VehicleNode, "train_step"), (VehicleNode, "build_psi_map"),
            (VehicleNode, "evaluate_model_on"), (VehicleNode, "detached_model"),
            (Adam, "__init__"), (Adam, "step"),
        )

    def run_counting(self, monkeypatch, world, method, **overrides):
        """Run ``method`` on a selfcheck world, counting reference calls
        and which objects allocate a ``ParamBank``."""
        import sys
        from collections import Counter

        from repro import selfcheck
        from repro.experiments.runner import RunSpec, run_method
        from repro.nn import ParamBank, params

        calls, banks = Counter(), Counter()
        for owner, name in self.reference_only():
            def counting(*args, _real=getattr(owner, name), _key=f"{owner.__name__}.{name}", **kw):
                calls[_key] += 1
                return _real(*args, **kw)

            monkeypatch.setattr(owner, name, counting)

        real_clone = params.clone_model

        def cloning(model):
            calls["clone_model"] += 1
            return real_clone(model)

        for module in list(sys.modules.values()):
            if vars(module).get("clone_model") is real_clone:
                monkeypatch.setattr(module, "clone_model", cloning)

        def allocating(bank, *args, _real=ParamBank.__init__, **kw):
            banks[type(sys._getframe(1).f_locals.get("self")).__name__] += 1
            _real(bank, *args, **kw)

        monkeypatch.setattr(ParamBank, "__init__", allocating)
        context = selfcheck._context(world)
        spec = RunSpec.for_context(context, method, seed=selfcheck.SEED, overrides=overrides)
        result = run_method(context, spec)
        n = len(result.nodes)
        assert result.trainer.fleet.mean_step_width == n
        assert banks["FleetEngine"] == 1 and set(banks) <= {"FleetEngine", "DensePsiProber"}
        assert not hasattr(ParamBank, "adopt")  # no second home to move a row to
        for node in result.nodes:
            assert not any(hasattr(node, name) for name in ("model", "optimizer", "bind_bank"))
        return dict(calls), result

    @pytest.mark.parametrize("method", METHOD_NAMES)
    def test_no_method_reaches_the_reference_step(self, method, monkeypatch):
        """On the hotpath world — 54 frames a vehicle against batches of
        64, where half the methods used to step per node."""
        calls, result = self.run_counting(monkeypatch, "hotpath", method)
        assert result.counters["train_steps"] == 60  # 20 instants x 3 vehicles
        assert calls == {}

    def test_the_overlapped_protocol_reaches_no_reference_forward(self, monkeypatch):
        """On the overlap world, where delivered models are scored (Eq. 8)
        at commit barriers."""
        calls, result = self.run_counting(monkeypatch, "overlap", "LbChat", overlap_chat=True)
        assert result.receive_completed > 0
        assert calls == {}

    def test_birth_allocates_the_fleet_once(self):
        """``prepare_trainer``'s allocation peak is what the fleet keeps
        — bank, gradients, Adam moments (four rows a vehicle) and the
        template's parameters and gradients — plus two rows for one
        construction evaluation (its gathered frames and activations).
        A per-vehicle model, bank or ``Adam`` built on the way adds at
        least two rows a vehicle."""
        import tracemalloc

        from repro import selfcheck
        from repro.experiments.runner import RunSpec, prepare_trainer

        context = selfcheck._context("hotpath")
        spec = RunSpec.for_context(context, "LbChat", seed=selfcheck.SEED)
        prepare_trainer(context, spec)  # imports and one-time caches
        tracemalloc.start()
        try:
            _, trainer = prepare_trainer(context, spec)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        bank = trainer.fleet.bank
        row = bank.n_params * bank.flat.itemsize
        assert peak < (4 * bank.n_nodes + 2 + 2) * row

    @pytest.mark.parametrize(
        "reason",
        ["batch_size", "rows of one fleet"],
        ids=["two_batch_sizes", "two_fleets"],
    )
    def test_a_fleet_the_bank_cannot_hold_is_refused_at_construction(
        self, fleet_datasets, traces, reason
    ):
        """A template the bank cannot stack is refused earlier, at birth
        (``tests/test_nn_bank.py``)."""
        from dataclasses import replace

        from repro.core.fleet import FleetIncompatible
        from repro.core.lbchat import LbChatConfig, LbChatTrainer
        from tests.conftest import make_fleet, make_node

        nodes = make_fleet(fleet_datasets, coreset_size=8)
        odd = nodes[-1]
        if reason == "batch_size":
            odd.config = replace(odd.config, batch_size=odd.config.batch_size // 2)
        else:  # a vehicle born in a fleet of its own
            nodes[-1] = make_node(odd.node_id, fleet_datasets[odd.node_id], coreset_size=8)
        with pytest.raises(FleetIncompatible, match=reason):
            LbChatTrainer(nodes, traces, fleet_datasets["v0"], LbChatConfig(duration=30.0, seed=1))
        assert [n.train_steps for n in nodes] == [0] * len(nodes)  # before any step


class TestFramesAreStoredOnce:
    """ROADMAP item 7 as a gate: the fleet's frames are rows of the
    context's one :class:`~repro.sim.dataset.FramePool`, a dataset is row
    numbers over it, and a run — chats, absorbs, merge-reduce, barriers —
    reads the pool and never adds to it, copies a frame into a dataset,
    or gathers a vehicle's whole local dataset."""

    @staticmethod
    def datasets_of(trainer):
        """Every dataset a trainer can reach, labelled."""
        found = [("validation", trainer.validation)]
        for node in trainer.nodes:
            found.append((f"{node.node_id}.dataset", node.dataset))
            found.append((f"{node.node_id}.coreset", node.coreset.data))
        for flight in trainer.overlap.flights if trainer.overlap is not None else ():
            found.append((f"flight {flight.i}-{flight.j} C_i", flight.chat.coreset_i.data))
            found.append((f"flight {flight.i}-{flight.j} C_j", flight.chat.coreset_j.data))
        return found

    @staticmethod
    def frame_bytes(holder) -> int:
        """Bytes of BEV-shaped arrays ``holder`` keeps in its attributes."""
        held = 0
        for value in vars(holder).values():
            for array in value if isinstance(value, tuple) else (value,):
                if isinstance(array, np.ndarray) and array.ndim == 4:
                    held += array.nbytes
        return held

    @pytest.mark.parametrize(
        "world, overrides, flights_expected",
        [("hotpath", {}, False), ("overlap", {"overlap_chat": True}, True)],
        ids=["hotpath", "overlap_in_flight"],
    )
    def test_a_run_with_barriers_reads_one_pool(self, world, overrides, flights_expected):
        from repro import selfcheck
        from repro.experiments.runner import RunSpec, prepare_trainer

        context = selfcheck._context(world)
        pool = context.validation.pool
        frames_before = len(pool)
        spec = RunSpec.for_context(context, "LbChat", seed=selfcheck.SEED, overrides=overrides)
        nodes, trainer = prepare_trainer(context, spec)
        gate, flights_seen = self, []

        class AtBarriers(selfcheck._MemoryCheckpointer):
            def _on_barrier(self, trainer, index):
                super()._on_barrier(trainer, index)
                gate.check(trainer, pool, frames_before)
                flights_seen.append(len(trainer.overlap.flights) if trainer.overlap else 0)

        saver = AtBarriers()
        trainer.run(checkpointer=saver)
        assert saver.states and trainer.counters.get("frames_absorbed") > 0
        assert any(flights_seen) == flights_expected  # a chat's coresets were on the air
        self.check(trainer, pool, frames_before)
        # A barrier wrote each frame once, however many datasets name it.
        table = saver.states[max(saver.states)]["frame_table"]
        assert len(table["pools"]) == 1
        assert len(table["pools"][0]["ids"]) == len(set(table["pools"][0]["ids"])) <= len(pool)
        assert table["frame_refs"] > len(table["pools"][0]["ids"])

    def test_a_run_names_each_frame_by_its_row(self, monkeypatch):
        """In a run a frame has one name, its row of the pool: nothing —
        the loss cache included — goes back to frame ids.  Only a
        checkpoint barrier writes them, so this run has no checkpointer."""
        from repro import selfcheck
        from repro.experiments.runner import RunSpec, run_method
        from repro.sim.dataset import DrivingDataset, FramePool

        context = selfcheck._context("hotpath")
        spec = RunSpec.for_context(context, "LbChat", seed=selfcheck.SEED)
        reads = []
        ids = DrivingDataset.ids.fget
        row = FramePool.row
        monkeypatch.setattr(
            DrivingDataset, "ids", property(lambda data: reads.append("ids") or ids(data))
        )
        monkeypatch.setattr(
            FramePool, "row", lambda pool, frame_id: reads.append("row") or row(pool, frame_id)
        )
        result = run_method(context, spec)
        assert result.counters["frames_absorbed"] > 0
        assert reads == []

    def check(self, trainer, pool, frames_before):
        datasets = self.datasets_of(trainer)
        assert [label for label, data in datasets if data.pool is not pool] == []
        assert len(pool) == frames_before  # a run never creates a frame
        local = {id(node.dataset) for node in trainer.nodes}
        assert [label for label, data in datasets if id(data) in local and data._views] == []
        # What the trainer can reach is the pool plus the whole-dataset
        # gathers of coresets and the validation set, and nothing else.
        distinct = {id(data): data for _, data in datasets}.values()
        views = sum(data._views[0].nbytes for data in distinct if data._views)
        frame = 4 * int(np.prod(pool.frame_shape))  # one frame's float32 BEV bytes
        stores = pool._stores
        assert [len(store) for store in stores] == [len(pool)] * len(stores)  # no spare capacity
        # No BEV-shaped array beside the stores (a decoded copy, say).
        assert self.frame_bytes(pool) == sum(store.nbytes for store in stores if store.ndim == 4)
        # The frames are rendered: uint8 occupancy and one speed per
        # frame take a fifth of the float32 bytes.
        assert sum(store.nbytes for store in stores) <= len(pool) * frame / 4
        assert sum(self.frame_bytes(data) for data in distinct) == views
        assert views <= sum(len(data) for data in distinct if id(data) not in local) * frame


class TestEvaluationInputsAreNotCopied:
    """Every forward a run executes is ``FleetWaypointNet.forward``, which
    converts its input with ``astype(float32, copy=False)`` and keeps a
    reference to it, never a copy.  So each input must already be
    float32 — anything else is a conversion copy per forward — and an
    evaluation batch (one batch shared by every row: cache misses,
    cross-evaluation, a received model's score) is a gather from the
    frame pool, handed over read-only."""

    def test_a_run_takes_no_defensive_copy(self, monkeypatch):
        from repro import selfcheck
        from repro.experiments.runner import RunSpec, run_method
        from repro.nn.bank import FleetWaypointNet

        evaluations, converted, writeable = [0], [0], [0]

        def counting(self, bev, commands, _real=FleetWaypointNet.forward):
            converted[0] += bev.dtype != np.float32
            if bev.ndim == 4:  # one batch for every row
                evaluations[0] += 1
                writeable[0] += bool(bev.flags.writeable)
            return _real(self, bev, commands)

        monkeypatch.setattr(FleetWaypointNet, "forward", counting)
        context = selfcheck._context("hotpath")
        run_method(context, RunSpec.for_context(context, "LbChat", seed=selfcheck.SEED))
        assert evaluations[0] > 0  # cache-miss evaluation, cross-eval, receive
        assert converted[0] == 0
        assert writeable[0] == 0


class TestNoRunImportsScipy:
    """Eq. 7's Akima fit is in-repo (``repro.core.psi``), so no run loads
    scipy: it is ~0.45 s of a cold start and ~40 MB resident, paid by
    every ``repro`` process and every ``jobs=N`` pool worker.  What is
    left of it is ``multiseed``'s function-local ``scipy.stats`` and the
    Akima test oracle."""

    REPO = Path(__file__).parent.parent

    def test_an_lbchat_run_leaves_scipy_unloaded(self):
        import os
        import subprocess
        import sys

        script = (
            "import sys\n"
            "import repro.cli, repro.experiments.runner\n"
            "from repro import selfcheck\n"
            "from repro.experiments.runner import RunSpec, run_method\n"
            "context = selfcheck._context('hotpath')\n"
            "spec = RunSpec.for_context(context, 'LbChat', seed=selfcheck.SEED)\n"
            "result = run_method(context, spec)\n"
            "assert result.counters['psi_probe_builds'] > 0\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
        )
        done = subprocess.run(
            [sys.executable, "-c", script],
            env={**os.environ, "PYTHONPATH": str(self.REPO / "src"), "OPENBLAS_NUM_THREADS": "1"},
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip().splitlines()[-1] == "[]"

    def test_the_only_scipy_import_under_src_is_multiseeds(self):
        found = []
        for path in sorted((self.REPO / "src").rglob("*.py")):
            tree = ast.parse(path.read_text())
            for node in ast.walk(tree):
                if isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom):
                    names = [node.module or ""]
                else:
                    continue
                if any(name.split(".")[0] == "scipy" for name in names):
                    where = "module level" if node in tree.body else "function-local"
                    found.append((str(path.relative_to(self.REPO)), where))
        assert found == [("src/repro/experiments/multiseed.py", "function-local")]


class TestNoRunImportsNetworkx:
    """Routes are the in-repo Dijkstra (``repro.sim.map``), so networkx
    is a test oracle only: ~0.1 s of a cold import and ~14 MB resident
    that no run pays."""

    def test_the_runner_leaves_networkx_unloaded(self):
        import os
        import subprocess
        import sys

        script = (
            "import sys\n"
            "import repro.experiments.runner\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'networkx'))\n"
        )
        done = subprocess.run(
            [sys.executable, "-c", script],
            env={**os.environ, "PYTHONPATH": str(Path(__file__).parent.parent / "src")},
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip().splitlines()[-1] == "[]"


class TestProcessesForkInOnePlace:
    """Under ``src/`` a process forks only in ``repro.parallel``: the run
    pool's ``ProcessPoolExecutor`` and the set-up's ``os.fork``, each
    behind the checks that make a fork safe (no live thread, a reaped
    child, a fallback that is counted).  ``subprocess``'s children — the
    Adam kernel's compile, the selfcheck kill row — exec a fresh program
    and are exempt."""

    SRC = Path(__file__).parent.parent / "src"

    @staticmethod
    def forks_in(path: Path):
        """``(line, what)`` for each fork primitive ``path`` names."""
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""] + [
                    f"{node.module}.{alias.name}" for alias in node.names
                ]
            elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                names = [f"{node.value.id}.{node.attr}"]
            elif isinstance(node, ast.Name):
                names = [node.id]
            else:
                continue
            for name in names:
                root, _, leaf = name.partition(".")
                if (
                    root == "multiprocessing"
                    or name.split(".")[-1] == "ProcessPoolExecutor"
                    or (root == "os" and leaf.startswith("fork"))
                ):
                    yield node.lineno, name

    def test_only_repro_parallel_forks(self):
        allowed = self.SRC / "repro" / "parallel"
        found = {
            str(path.relative_to(self.SRC)): sorted(set(self.forks_in(path)))
            for path in sorted(self.SRC.rglob("*.py"))
        }
        outside = {
            path: hits
            for path, hits in found.items()
            if hits and not (self.SRC / path).is_relative_to(allowed)
        }
        assert outside == {}
        assert found["repro/parallel/pool.py"]  # the gate sees what it looks for

    def test_the_gate_bites(self, tmp_path):
        module = tmp_path / "runner.py"
        module.write_text("import os\n\ndef build():\n    return os.fork()\n")
        assert list(self.forks_in(module)) == [(4, "os.fork")]
        module.write_text("from multiprocessing import Pool\n")
        assert [what for _, what in self.forks_in(module)] == [
            "multiprocessing", "multiprocessing.Pool"
        ]


class TestEveryModuleHasARunningCaller:
    """ROADMAP item 1's rule as a gate: a ``src/repro`` module is reached
    from something that runs — the CLI, ``repro selfcheck``, an example,
    the benchmarks — or it is named in :attr:`ORPHANS` with the ROADMAP
    item that gives it a caller.  A test importing it does not count,
    and neither does a package ``__init__`` re-exporting it."""

    #: The only allowlist: module -> who is about to call it.  An entry
    #: whose module is reached (or gone) fails the gate like a new orphan.
    ORPHANS = {
        "repro.coreset.theory": "ROADMAP item 3: coreset_fidelity reads coreset_size_bound",
    }

    REPO = Path(__file__).parent.parent
    SRC = REPO / "src"

    @classmethod
    def source_of(cls, module: str) -> Path | None:
        base = cls.SRC.joinpath(*module.split("."))
        for path in (base.with_suffix(".py"), base / "__init__.py"):
            if path.exists():
                return path
        return None

    @staticmethod
    def imports_of(path: Path):
        """``(module, name | None)`` per static import, function-local ones included."""
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                yield from ((alias.name, None) for alias in node.names)
            elif isinstance(node, ast.ImportFrom):
                yield from ((node.module, alias.name) for alias in node.names)

    @classmethod
    def defining_module(cls, module: str, name: str | None) -> str:
        """The module ``from module import name`` reads ``name`` from: a
        package ``__init__`` that only re-exports it is looked through."""
        if name is not None and cls.source_of(f"{module}.{name}"):
            return f"{module}.{name}"
        path = cls.source_of(module)
        if name is not None and path is not None and path.name == "__init__.py":
            for source, exported in cls.imports_of(path):
                if exported == name:
                    return cls.defining_module(source, name)
        return module

    def test_unreached_modules_are_exactly_the_named_ones(self):
        modules = {
            ".".join(path.relative_to(self.SRC).with_suffix("").parts): path
            for path in (self.SRC / "repro").rglob("*.py")
            if path.name != "__init__.py"
        }
        roots = ["repro.cli", "repro.__main__", "repro.selfcheck"]
        frontier = [modules[root] for root in roots] + [
            path
            for folder in ("examples", "benchmarks")
            for path in (self.REPO / folder).rglob("*.py")
            if not path.name.startswith(("test_", "conftest"))
        ]
        reached = set(roots)
        while frontier:
            for module, name in self.imports_of(frontier.pop()):
                target = self.defining_module(module, name)
                if target in modules and target not in reached:
                    reached.add(target)
                    frontier.append(modules[target])
        assert sorted(set(modules) - reached) == sorted(self.ORPHANS)


class TestEveryDefinitionIsNamed:
    """A function, method or class defined under ``src/`` is named
    somewhere besides its own definition — a call, an import, an
    attribute, a string a registry or ``getattr`` reads, a test — in
    ``src/``, ``tests/``, ``examples/`` or ``benchmarks/``.  Comments,
    docstrings, ``__all__`` entries and a package ``__init__``'s
    re-exports name nothing.  One nothing names is dead code.  Dunder
    methods are exempt: Python calls them by protocol.  (Whether a run
    enters it is the census's question, ``tests/test_selfcheck.py``.)"""

    REPO = Path(__file__).parent.parent
    FOLDERS = ("src", "tests", "examples", "benchmarks")

    @staticmethod
    def names_in(path: Path, tree: ast.AST):
        """The words ``tree`` names definitions by."""
        skipped = set()
        for node in ast.walk(tree):
            body = getattr(node, "body", None)
            if isinstance(body, list) and body and isinstance(body[0], ast.Expr):
                skipped.add(id(body[0].value))  # a docstring
            if isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
            ):
                skipped.update(id(child) for child in ast.walk(node.value))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                yield node.id
            elif isinstance(node, ast.Attribute):
                yield node.attr
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                if path.name != "__init__.py":  # a package's imports re-export
                    for alias in node.names:
                        yield from alias.name.split(".")
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                if id(node) not in skipped:
                    yield from re.findall(r"\w+", node.value)

    @classmethod
    def unnamed(cls, root: Path) -> list[str]:
        names: Counter = Counter()
        definitions = []  # (name, where)
        for folder in cls.FOLDERS:
            for path in sorted((root / folder).rglob("*.py")):
                tree = ast.parse(path.read_text())
                names.update(cls.names_in(path, tree))
                if folder != "src":
                    continue
                for node in ast.walk(tree):
                    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                        if node.name.startswith("__") and node.name.endswith("__"):
                            continue
                        definitions.append((node.name, f"{path.relative_to(root)}:{node.lineno}"))
        return [f"{where} {name}" for name, where in definitions if not names[name]]

    def test_nothing_defined_under_src_is_unnamed(self):
        assert self.unnamed(self.REPO) == []

    def test_the_gate_bites(self, tmp_path):
        """A helper named only by ``__all__``, its package's re-export, a
        comment and a docstring is unnamed; one call names it."""
        package = tmp_path / "src" / "pkg"
        package.mkdir(parents=True)
        (package / "__init__.py").write_text("from pkg.mod import helper\n")
        (package / "mod.py").write_text(
            '"""The module: see helper."""\n\n__all__ = ["helper"]\n\n\n'
            "def helper():  # helper\n"
            '    """helper helps."""\n'
        )
        assert self.unnamed(tmp_path) == ["src/pkg/mod.py:6 helper"]
        (tmp_path / "tests").mkdir()
        (tmp_path / "tests" / "test_mod.py").write_text("from pkg.mod import helper\n\nhelper()\n")
        assert self.unnamed(tmp_path) == []


class TestEveryConfigFieldIsSet:
    """ROADMAP item 18's rule as a gate: every field of a ``*Config``
    dataclass in ``src/`` and of ``ExperimentScale`` is set by a run — a
    keyword (``TrainerConfig(duration=…)``, ``replace(…, seed=…)``), a
    string key (an ``overrides`` entry, ``{"step_workers": …}``), an
    attribute store on a config or a CLI flag (``--step-workers``) in
    ``src/`` or the frozen ``benchmarks/perf`` — or it is named in
    :attr:`UNSET` with the ROADMAP item that owns it.  What only a test
    or an example sets does not count, and neither does a keyword that
    forwards a config's own field (``x=config.x``, ``x=self.config.x``).
    A paper constant nothing varies is a module constant naming its
    section, not a field."""

    #: The only allowlist: field -> the ROADMAP item that decides it.  An
    #: entry that gets set (or goes) fails the gate like a new unset field.
    UNSET = {
        "ProxSkipConfig.sync_probability": "item 16",
        "RoundConfig.round_interval": "item 16",
    }

    REPO = Path(__file__).parent.parent
    #: Where a run's settings live.
    RUNS = ("src", "benchmarks/perf")

    @classmethod
    def config_fields(cls) -> dict[str, str]:
        """``Class.field -> field`` for every ``*Config`` dataclass under
        ``src/``, and ``ExperimentScale``."""
        found = {}
        for path in sorted((cls.REPO / "src").rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if not (
                    isinstance(node, ast.ClassDef)
                    and (node.name.endswith("Config") or node.name == "ExperimentScale")
                    and any("dataclass" in ast.unparse(d) for d in node.decorator_list)
                ):
                    continue
                for stmt in node.body:
                    if (
                        isinstance(stmt, ast.AnnAssign)
                        and isinstance(stmt.target, ast.Name)
                        and "ClassVar" not in ast.unparse(stmt.annotation)
                    ):
                        found[f"{node.name}.{stmt.target.id}"] = stmt.target.id
        return found

    @staticmethod
    def forwards_own_field(keyword: ast.keyword) -> bool:
        """``x=config.x``, ``x=self.config.x``, ``x=node.config.x``."""
        value = keyword.value
        return (
            isinstance(value, ast.Attribute)
            and value.attr == keyword.arg
            and ast.unparse(value.value).split(".")[-1] == "config"
        )

    @classmethod
    def names_set(cls) -> set[str]:
        names = set()
        for folder in cls.RUNS:
            for path in sorted((cls.REPO / folder).rglob("*.py")):
                if path.name.startswith(("test_", "conftest")):
                    continue
                for node in ast.walk(ast.parse(path.read_text())):
                    if isinstance(node, ast.keyword) and node.arg:
                        if not cls.forwards_own_field(node):
                            names.add(node.arg)
                    elif isinstance(node, ast.Dict):
                        names.update(
                            key.value for key in node.keys
                            if isinstance(key, ast.Constant) and isinstance(key.value, str)
                        )
                    elif isinstance(node, ast.Subscript) and isinstance(node.ctx, ast.Store):
                        if isinstance(node.slice, ast.Constant) and isinstance(node.slice.value, str):
                            names.add(node.slice.value)
                    elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
                        if not (isinstance(node.value, ast.Name) and node.value.id == "self"):
                            names.add(node.attr)
                    elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                        if node.value.startswith("--"):
                            names.add(node.value[2:].removeprefix("no-").replace("-", "_"))
        return names

    def test_unset_fields_are_exactly_the_named_ones(self):
        names = self.names_set()
        unset = {field for field, name in self.config_fields().items() if name not in names}
        assert sorted(unset) == sorted(self.UNSET)


class TestEveryBoolKeywordIsSet:
    """ROADMAP item 21's keyword half of :class:`TestEveryConfigFieldIsSet`:
    every parameter of a ``src/`` function whose default is ``True`` or
    ``False`` is passed by a run — as a keyword or a string dict key in
    ``src/`` or the frozen ``benchmarks/perf`` — or it is named in
    :attr:`UNSET` with the ROADMAP item that owns it.  Forwarding a value
    under its own name (``x=x``, ``x=config.x``) sets nothing."""

    #: The only allowlist: ``path:function.parameter`` -> the ROADMAP item
    #: that decides it.  An entry that gets set (or goes) fails the gate.
    UNSET: dict[str, str] = {}

    REPO = TestEveryConfigFieldIsSet.REPO

    @classmethod
    def bool_parameters(cls) -> dict[str, str]:
        """``path:function.parameter -> parameter`` for every ``src/``
        parameter whose default is a bool."""
        found = {}
        for path in sorted((cls.REPO / "src").rglob("*.py")):
            where = path.relative_to(cls.REPO / "src")
            for node in ast.walk(ast.parse(path.read_text())):
                if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                args = node.args
                positional = args.posonlyargs + args.args
                defaults = [
                    *zip(positional[len(positional) - len(args.defaults):], args.defaults),
                    *zip(args.kwonlyargs, args.kw_defaults),
                ]
                for arg, default in defaults:
                    if isinstance(default, ast.Constant) and isinstance(default.value, bool):
                        found[f"{where}:{node.name}.{arg.arg}"] = arg.arg
        return found

    @staticmethod
    def forwards(keyword: ast.keyword) -> bool:
        """``x=x``, or a config's own field (``x=config.x``)."""
        value = keyword.value
        return (
            isinstance(value, ast.Name) and value.id == keyword.arg
        ) or TestEveryConfigFieldIsSet.forwards_own_field(keyword)

    @classmethod
    def names_passed(cls) -> set[str]:
        names = set()
        for folder in TestEveryConfigFieldIsSet.RUNS:
            for path in sorted((cls.REPO / folder).rglob("*.py")):
                if path.name.startswith(("test_", "conftest")):
                    continue
                for node in ast.walk(ast.parse(path.read_text())):
                    if isinstance(node, ast.keyword) and node.arg and not cls.forwards(node):
                        names.add(node.arg)
                    elif isinstance(node, ast.Dict):
                        names.update(
                            key.value for key in node.keys
                            if isinstance(key, ast.Constant) and isinstance(key.value, str)
                        )
        return names

    def test_unset_bool_keywords_are_exactly_the_named_ones(self):
        parameters = self.bool_parameters()
        assert len(parameters) > 10  # the gate sees what it looks for
        names = self.names_passed()
        unset = {where for where, name in parameters.items() if name not in names}
        assert sorted(unset) == sorted(self.UNSET)

    def test_the_gate_bites(self):
        forwarded = ast.parse("f(x=x, y=config.y, z=True)").body[0].value.keywords
        assert [self.forwards(keyword) for keyword in forwarded] == [True, True, False]

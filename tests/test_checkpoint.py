"""Unit tests for the repro.checkpoint subsystem.

Covers the state-tree flattening contract, the engine's restore
primitives, component snapshot round-trips, barrier policy math, and the
on-disk store's atomicity/integrity/versioning guarantees.  End-to-end
resume equivalence lives in test_checkpoint_resume.py.
"""

from __future__ import annotations

import copy
import json

import numpy as np
import pytest

from repro.checkpoint import (
    CheckpointPolicy,
    CheckpointVersionError,
    RunStore,
    flatten_state,
    spec_fingerprint,
    spec_from_payload,
    spec_payload,
    unflatten_state,
)
from repro.checkpoint.format import FORMAT_VERSION, CheckpointCorruptError, CheckpointError
from repro.engine.events import Simulator
from repro.engine.metrics import CounterSet, ReceiveRateRecorder, TimeSeriesRecorder
from repro.experiments.configs import CI
from repro.experiments.runner import RunSpec
from repro.nn.optim import Adam
from repro.nn.params import Parameter


class TestFlattenState:
    def test_round_trip_nested_tree(self):
        state = {
            "time": 30.0,
            "flags": [True, None, "text", 3],
            "nodes": [
                {"params": np.arange(5, dtype=np.float32), "version": 2},
                {"params": np.ones((2, 3)), "version": np.int64(7)},
            ],
            "empty": {},
        }
        meta, arrays = flatten_state(state)
        json.dumps(meta)  # meta tree must be JSON-representable
        rebuilt = unflatten_state(meta, arrays)
        assert rebuilt["time"] == 30.0
        assert rebuilt["flags"] == [True, None, "text", 3]
        assert rebuilt["nodes"][1]["version"] == 7  # np scalar became int
        assert np.array_equal(rebuilt["nodes"][0]["params"], np.arange(5))
        assert rebuilt["nodes"][0]["params"].dtype == np.float32
        assert rebuilt["empty"] == {}

    def test_arrays_become_markers_with_paths(self):
        meta, arrays = flatten_state({"a": {"b": np.zeros(2)}})
        assert meta == {"a": {"b": {"__array__": "/a/b"}}}
        assert set(arrays) == {"/a/b"}

    def test_rejects_non_string_keys(self):
        with pytest.raises(TypeError, match="non-string"):
            flatten_state({"outer": {1: np.zeros(2)}})

    def test_rejects_reserved_keys(self):
        with pytest.raises(TypeError, match="reserved"):
            flatten_state({"__array__": 1})
        with pytest.raises(TypeError, match="reserved"):
            flatten_state({"a/b": 1})

    def test_rejects_unsupported_values(self):
        with pytest.raises(TypeError, match="unsupported state value at '/bad'"):
            flatten_state({"bad": object()})


class TestEnginePrimitives:
    def test_wait_until_fires_at_absolute_time(self):
        sim = Simulator()
        log = []

        def proc():
            yield sim.wait_until(7.5)
            log.append(sim.now)

        sim.process(proc())
        sim.run()
        assert log == [7.5]

    def test_wait_until_at_current_instant(self):
        sim = Simulator()
        sim.advance_to(4.0)
        log = []

        def proc():
            yield sim.wait_until(4.0)
            log.append(sim.now)

        sim.process(proc())
        sim.run()
        assert log == [4.0]

    def test_advance_to_moves_idle_clock(self):
        sim = Simulator()
        sim.advance_to(100.0)
        assert sim.now == 100.0
        with pytest.raises(ValueError, match="backwards"):
            sim.advance_to(50.0)

    def test_advance_to_refuses_pending_events(self):
        sim = Simulator()
        sim.call_at(5.0, lambda: None)
        with pytest.raises(RuntimeError, match="pending"):
            sim.advance_to(10.0)


class TestRecorderSnapshots:
    def test_time_series_round_trip(self):
        recorder = TimeSeriesRecorder()
        recorder.record("v0", 0.0, 1.5)
        recorder.record("v0", 30.0, 1.2)
        recorder.record("v1", 0.0, 2.0)
        clone = TimeSeriesRecorder()
        clone.restore(recorder.snapshot())
        assert clone.keys() == recorder.keys()
        for key in recorder.keys():
            assert np.array_equal(clone.series(key)[0], recorder.series(key)[0])
            assert np.array_equal(clone.series(key)[1], recorder.series(key)[1])
        clone.record("v0", 31.0, 1.0)  # still appendable after restore
        with pytest.raises(ValueError, match="non-monotonic"):
            clone.record("v0", 5.0, 1.0)

    def test_receive_rate_round_trip(self):
        recorder = ReceiveRateRecorder()
        recorder.observe("v0", True)
        recorder.observe("v0", False)
        recorder.observe("v1", True)
        clone = ReceiveRateRecorder()
        clone.restore(recorder.snapshot())
        assert clone.attempted == 3 and clone.completed == 2
        clone.observe("v2", True)  # defaultdict behaviour survives restore
        assert clone.attempted == 4

    def test_counter_set_round_trip(self):
        counters = CounterSet()
        counters.add("chats")
        counters.add("chat_seconds", 12.5)
        clone = CounterSet()
        clone.restore(counters.snapshot())
        assert clone.as_dict() == counters.as_dict()
        clone.add("new_key")
        assert clone.as_dict()["new_key"] == 1


class TestOptimizerSnapshots:
    def _params(self):
        return [Parameter(np.ones((2, 2))), Parameter(np.full(3, 2.0))]

    def _grad_step(self, opt, value):
        for p in opt.params:
            p.grad = np.full_like(p.data, value)
        opt.step()

    def test_round_trip_preserves_trajectory(self):
        a, b = Adam(self._params(), lr=0.01), Adam(self._params(), lr=0.01)
        for opt in (a, b):
            self._grad_step(opt, 0.5)
        b.restore(a.snapshot())  # states equal, restore must be lossless
        for opt in (a, b):
            self._grad_step(opt, -0.25)
        for pa, pb in zip(a.params, b.params):
            assert np.array_equal(pa.data, pb.data)

    def test_restore_rejects_wrong_size(self):
        opt = Adam(self._params(), lr=0.01)
        state = opt.snapshot()
        state["m"] = state["m"][:-1]
        with pytest.raises(ValueError, match="optimizer state"):
            opt.restore(state)

    def test_a_staggered_trainer_restore_brings_back_every_row(self, fleet_datasets, traces):
        """The fleet owns every row's Adam state; a trainer's barrier
        writes each row under its node's ``"optimizer"`` key and a
        restore puts it back — one vehicle from an older snapshot
        included, its own step count and moments."""
        from repro.baselines.local_only import LocalOnlyTrainer
        from repro.core.trainer_base import TrainerConfig
        from tests.conftest import make_fleet

        def trainer():
            nodes = make_fleet(fleet_datasets)
            return LocalOnlyTrainer(nodes, traces, fleet_datasets["v0"], TrainerConfig(duration=30.0))

        first = trainer()
        for _ in range(3):
            first.fleet.train_step_all()
        # A snapshot is a view of the banks: one kept past a step is copied.
        older = copy.deepcopy(first.snapshot()["nodes"][1]["optimizer"])
        for _ in range(2):
            first.fleet.train_step_all()
        state = {**first.snapshot(), "barrier": 1}
        state["nodes"][1]["optimizer"] = older
        second = trainer()
        second.restore(state)
        assert second.fleet.optim.steps.tolist() == [5, 3, 5, 5]
        for node_state, again in zip(state["nodes"], second.snapshot()["nodes"], strict=True):
            want, got = node_state["optimizer"], again["optimizer"]
            assert got["step"] == want["step"]
            assert got["m"].tobytes() == want["m"].tobytes()
            assert got["v"].tobytes() == want["v"].tobytes()
        assert not np.array_equal(older["m"], first.fleet.optim.m[1])  # row 1 went back


class TestPolicy:
    def test_barriers_are_strictly_inside_duration(self):
        policy = CheckpointPolicy(every=10.0)
        assert policy.barriers(40.0) == [(1, 10.0), (2, 20.0), (3, 30.0)]
        assert policy.barriers(10.0) == []
        assert policy.barriers(5.0) == []

    def test_validation(self):
        with pytest.raises(ValueError, match="positive"):
            CheckpointPolicy(every=0.0)
        with pytest.raises(ValueError, match="keep"):
            CheckpointPolicy(every=1.0, keep=0)


def _spec(**kwargs) -> RunSpec:
    return RunSpec(method="LbChat", scale=CI, seed=3, checkpoint_every=10.0, **kwargs)


def _state(barrier: int, time: float) -> dict:
    return {
        "barrier": barrier,
        "time": time,
        "payload": np.arange(4, dtype=np.float64) * barrier,
    }


class TestRunStore:
    def test_save_and_load_round_trip(self, tmp_path):
        store = RunStore(tmp_path)
        spec = _spec()
        store.save_checkpoint(spec, _state(1, 10.0))
        loaded = store.load_checkpoint(spec, 1)
        assert loaded["barrier"] == 1
        assert loaded["time"] == 10.0
        assert np.array_equal(loaded["payload"], np.arange(4.0))
        assert (store.run_dir(spec) / "run.json").exists()
        assert not list(store.run_dir(spec).glob("*.tmp"))

    def test_latest_checkpoint_and_prune(self, tmp_path):
        store = RunStore(tmp_path)
        spec = _spec()
        for barrier in (1, 2, 3, 4):
            store.save_checkpoint(spec, _state(barrier, 10.0 * barrier), keep=3)
        assert store.barriers(spec) == [2, 3, 4]
        assert store.latest_checkpoint(spec)["barrier"] == 4

    def test_corrupt_npz_falls_back_to_older(self, tmp_path):
        store = RunStore(tmp_path)
        spec = _spec()
        store.save_checkpoint(spec, _state(1, 10.0))
        store.save_checkpoint(spec, _state(2, 20.0))
        npz = store.run_dir(spec) / "ckpt-000002.npz"
        blob = bytearray(npz.read_bytes())
        blob[len(blob) // 2] ^= 0xFF
        npz.write_bytes(bytes(blob))
        latest = store.latest_checkpoint(spec)
        assert latest["barrier"] == 1
        assert any(e["event"] == "corrupt" for e in store.events(spec))

    def test_missing_sidecar_means_uncommitted(self, tmp_path):
        store = RunStore(tmp_path)
        spec = _spec()
        store.save_checkpoint(spec, _state(1, 10.0))
        store.save_checkpoint(spec, _state(2, 20.0))
        # A crash between the npz rename and the sidecar write leaves an
        # npz without its commit record: barrier 2 must not exist.
        (store.run_dir(spec) / "ckpt-000002.json").unlink()
        assert store.barriers(spec) == [1]
        assert store.latest_checkpoint(spec)["barrier"] == 1

    @pytest.mark.parametrize(
        "damage",
        [
            lambda payload: [payload],
            lambda payload: "ckpt",
            lambda payload: {k: v for k, v in payload.items() if k != "npz_sha256"},
            lambda payload: {k: v for k, v in payload.items() if k != "state"},
            lambda payload: {k: v for k, v in payload.items() if k != "barrier"},
        ],
    )
    def test_malformed_sidecar_falls_back_to_older(self, tmp_path, damage):
        """A sidecar that parses but is not a checkpoint record is corrupt."""
        store = RunStore(tmp_path)
        spec = _spec()
        store.save_checkpoint(spec, _state(1, 10.0))
        store.save_checkpoint(spec, _state(2, 20.0))
        sidecar = store.run_dir(spec) / "ckpt-000002.json"
        sidecar.write_text(json.dumps(damage(json.loads(sidecar.read_text()))))
        with pytest.raises(CheckpointCorruptError, match="malformed sidecar"):
            store.load_checkpoint(spec, 2)
        assert store.latest_checkpoint(spec)["barrier"] == 1
        assert [e["barrier"] for e in store.events(spec) if e["event"] == "corrupt"] == [2]

    def test_version_mismatch_is_skipped(self, tmp_path):
        store = RunStore(tmp_path)
        spec = _spec()
        store.save_checkpoint(spec, _state(1, 10.0))
        sidecar = store.run_dir(spec) / "ckpt-000001.json"
        payload = json.loads(sidecar.read_text())
        assert FORMAT_VERSION == 5
        # 4 wrote every frame's columns and no split arrays, 3 every
        # dataset's own frames: neither has a loader.
        for refused in (4, 3):
            payload["format"] = refused
            sidecar.write_text(json.dumps(payload))
            with pytest.raises(CheckpointVersionError, match=f"format {refused}"):
                store.load_checkpoint(spec, 1)
            assert store.latest_checkpoint(spec) is None

    def test_drop_after_rewinds(self, tmp_path):
        store = RunStore(tmp_path)
        spec = _spec()
        for barrier in (1, 2, 3):
            store.save_checkpoint(spec, _state(barrier, 10.0 * barrier))
        store.mark_done(spec, 40.0)
        store.drop_after(spec, 1)
        assert store.barriers(spec) == [1]
        assert not (store.run_dir(spec) / "done.json").exists()


class TestSpecPayload:
    def test_round_trip(self):
        spec = _spec(overrides={"lambda_c": 0.5}, coreset_size=4)
        assert spec_from_payload(spec_payload(spec)) == spec

    def test_checkpoint_dir_threaded_separately(self):
        spec = spec_from_payload(spec_payload(_spec()), checkpoint_dir="/elsewhere")
        assert spec.checkpoint_dir == "/elsewhere"

    def test_cadence_is_part_of_identity_but_cache_is_not(self):
        base = _spec()
        assert spec_fingerprint(base) != spec_fingerprint(
            RunSpec(method="LbChat", scale=CI, seed=3, checkpoint_every=20.0)
        )
        assert spec_fingerprint(base) == spec_fingerprint(_spec(use_cache=True))

    def test_non_json_overrides_rejected(self):
        spec = _spec(overrides={"lambda_c": object()})
        with pytest.raises(CheckpointError, match="JSON-serializable"):
            spec_payload(spec)


class TestModelCheckpointValidation:
    def test_load_model_rejects_truncated_params(self, tmp_path):
        from repro.nn import make_driving_model
        from repro.nn.serialize import load_model, save_model
        from repro.sim.bev import BevSpec

        model = make_driving_model(BevSpec(grid=8, cell=2.0).shape, 2, 8, seed=0)
        path = tmp_path / "model.npz"
        save_model(model, path)
        with np.load(path) as data:
            fields = {name: data[name] for name in data.files}
        fields["params"] = fields["params"][:-3]
        np.savez_compressed(path, **fields)
        with pytest.raises(ValueError, match="corrupt checkpoint"):
            load_model(path)


class TestAtomicRunArchive:
    def test_save_run_leaves_no_temp_file(self, tmp_path, monkeypatch):
        from repro.experiments import io as experiments_io

        recorder = TimeSeriesRecorder()
        recorder.record("v0", 0.0, 1.0)
        recorder.record("v0", 40.0, 0.5)
        result = __import__("repro.experiments.runner", fromlist=["RunResult"]).RunResult(
            method="LbChat",
            seed=1,
            wireless=True,
            duration=40.0,
            loss_recorder=recorder,
            receive_attempted=2,
            receive_completed=1,
            counters={"chats": 1.0},
            nodes=[],
        )
        out = tmp_path / "run.json"
        experiments_io.save_run(result, out)
        assert json.loads(out.read_text())["method"] == "LbChat"
        assert list(tmp_path.iterdir()) == [out]

    def test_failed_checkpoint_write_leaves_no_temp_file(self, tmp_path):
        store = RunStore(tmp_path)
        spec = _spec()
        store.save_checkpoint(spec, _state(1, 10.0))
        state = _state(2, 20.0)
        state["bad"] = np.array([object()], dtype=object)  # allow_pickle=False refuses it
        with pytest.raises(ValueError, match="Object arrays"):
            store.save_checkpoint(spec, state)
        assert not list(store.run_dir(spec).glob("*.tmp"))
        assert not (store.run_dir(spec) / "ckpt-000002.npz").exists()
        assert store.latest_checkpoint(spec)["barrier"] == 1

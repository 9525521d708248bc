"""Within-run step sharding: shared-memory banks, worker pool, autotune.

The load-bearing contract: sharding a fleet's batched training step
across worker processes is *purely* an execution strategy — every
result (losses, parameters, optimizer moments, step counters, full run
digests, checkpoints) is bit-identical for every ``step_workers`` value,
including resuming a checkpoint under a different worker count than the
one that wrote it.  Plus regressions for the kernel-cache lockfile
(compile at most once per host under concurrent first use) and the
jobs x step-workers oversubscription guard.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from repro.checkpoint import RunStore
from repro.checkpoint.format import spec_fingerprint
from repro.checkpoint.resume import resume_run_dir
from repro.core.fleet import FleetEngine
from repro.core.lbchat import LbChatConfig, LbChatTrainer
from repro.experiments.runner import RunSpec, build_context, run_method
from repro.parallel import clamp_step_workers
from repro.parallel import autotune as autotune_module
from repro.parallel.autotune import host_fingerprint, resolve_step_workers
from repro.parallel.stepshard import (
    ShmArena,
    StepWorkerError,
    fork_available,
    partition_rows,
)
from repro.sim.dataset import DrivingDataset
from repro.telemetry.hooks import TelemetrySession
from tests.conftest import make_node
from tests.test_checkpoint_resume import TINY, digest
from tests.test_nn_bank import build_nodes

pytestmark = pytest.mark.skipif(
    not fork_available(), reason="step sharding requires the fork start method"
)


# -- primitives ---------------------------------------------------------------


class TestPartitionRows:
    def test_covers_all_rows_contiguously(self):
        for n_rows in (1, 2, 5, 7, 32, 513):
            for n_workers in (1, 2, 3, 4, 8, 600):
                ranges = partition_rows(n_rows, n_workers)
                assert ranges[0][0] == 0
                assert ranges[-1][1] == n_rows
                for (_, hi), (lo, _) in zip(ranges, ranges[1:]):
                    assert hi == lo

    def test_balanced_within_one(self):
        sizes = [hi - lo for lo, hi in partition_rows(10, 4)]
        assert max(sizes) - min(sizes) <= 1
        assert sum(sizes) == 10

    def test_clamps_workers_to_rows(self):
        ranges = partition_rows(3, 8)
        assert len(ranges) == 3
        assert all(hi - lo == 1 for lo, hi in ranges)

    def test_rejects_degenerate_inputs(self):
        with pytest.raises(ValueError):
            partition_rows(0, 2)
        with pytest.raises(ValueError):
            partition_rows(4, 0)


class TestShmArena:
    def test_alloc_zeroed_and_writable(self):
        arena = ShmArena(ShmArena.bytes_for(((4, 8), np.float32), ((4,), np.int64)))
        a = arena.alloc((4, 8), np.float32)
        b = arena.alloc((4,), np.int64)
        assert not a.any() and not b.any()
        a[2, 3] = 7.0
        b[:] = 5
        assert a[2, 3] == 7.0 and b.sum() == 20

    def test_allocations_are_disjoint_and_aligned(self):
        arena = ShmArena(1 << 16)
        a = arena.alloc((100,), np.float32)
        b = arena.alloc((100,), np.float32)
        a[:] = 1.0
        assert not b.any()
        for arr in (a, b):
            assert arr.ctypes.data % 64 == 0

    def test_exhaustion_raises(self):
        arena = ShmArena(256)
        arena.alloc((32,), np.float32)
        with pytest.raises(MemoryError):
            arena.alloc((1024,), np.float32)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            ShmArena(0)


# -- engine-level bit identity ------------------------------------------------


def _run_engine(step_workers: int, *, use_conv: bool, steps: int = 6):
    nodes = build_nodes(n_nodes=5, use_conv=use_conv)
    engine = FleetEngine(nodes, step_workers=step_workers)
    try:
        losses = np.array([engine.train_step_all() for _ in range(steps)])
        return (
            losses,
            engine.bank.flat.copy(),
            engine.optim.m.copy(),
            engine.optim.v.copy(),
            engine.optim.steps.copy(),
        )
    finally:
        engine.close()


class TestEngineBitIdentity:
    @pytest.mark.parametrize("use_conv", [False, True], ids=["mlp", "conv"])
    @pytest.mark.parametrize("workers", [2, 4, 5])
    def test_train_step_all_bit_identical(self, use_conv, workers):
        reference = _run_engine(1, use_conv=use_conv)
        sharded = _run_engine(workers, use_conv=use_conv)
        for ref, got in zip(reference, sharded):
            assert ref.tobytes() == got.tobytes()

    def test_train_tick_path_bit_identical(self):
        serial_nodes = build_nodes(n_nodes=4)
        sharded_nodes = build_nodes(n_nodes=4)
        serial = FleetEngine(serial_nodes, step_workers=1)
        sharded = FleetEngine(sharded_nodes, step_workers=2)
        try:
            for _ in range(4):
                for row in range(4):
                    assert serial.train_tick(row) == sharded.train_tick(row)
            assert serial.bank.flat.tobytes() == sharded.bank.flat.tobytes()
        finally:
            serial.close()
            sharded.close()

    def test_pool_actually_engages_and_reports_telemetry(self):
        with TelemetrySession() as session:
            nodes = build_nodes(n_nodes=4)
            engine = FleetEngine(nodes, step_workers=2)
            for _ in range(3):
                engine.train_step_all()
            engine.close()
            counters = session.registry.state()["counters"]
        assert counters["stepshard.steps"] == 3.0
        assert counters["stepshard.pools_spawned"] == 1.0
        # Per-shard counters ship back on close and merge into the session.
        assert counters["stepshard.shard0.steps"] == 3.0
        assert counters["stepshard.shard1.steps"] == 3.0
        assert (
            counters["stepshard.shard0.rows_stepped"]
            + counters["stepshard.shard1.rows_stepped"]
            == 4 * 3
        )

    def test_close_is_idempotent_and_engine_stays_usable(self):
        nodes = build_nodes(n_nodes=4)
        engine = FleetEngine(nodes, step_workers=2)
        before = engine.train_step_all()
        engine.close()
        engine.close()
        after = engine.train_step_all()  # serial path now
        assert before.shape == after.shape
        # The serial continuation must match an uninterrupted serial run.
        ref_nodes = build_nodes(n_nodes=4)
        ref = FleetEngine(ref_nodes, step_workers=1)
        ref.train_step_all()
        ref.train_step_all()
        assert engine.bank.flat.tobytes() == ref.bank.flat.tobytes()

    def test_worker_death_raises_step_worker_error(self):
        nodes = build_nodes(n_nodes=4)
        engine = FleetEngine(nodes, step_workers=2)
        try:
            engine.train_step_all()
            assert engine._pool is not None
            for proc in engine._pool._procs:
                proc.terminate()
                proc.join(timeout=5.0)
            with pytest.raises(StepWorkerError):
                engine.train_step_all()
        finally:
            engine.close()

    def test_checkpoint_bridge_sees_sharded_updates(self):
        """Chat views and the checkpoint's optimizer rows read the shared banks."""
        nodes = build_nodes(n_nodes=4)
        engine = FleetEngine(nodes, step_workers=2)
        try:
            engine.train_step_all()
            for row, node in enumerate(nodes):
                assert node.flat_params.tobytes() == engine.bank.flat[row].tobytes()
                snap = engine.optim.node_snapshot(row)
                assert snap["step"] == 1
                assert snap["m"].tobytes() == engine.optim.m[row].tobytes()
        finally:
            engine.close()


# -- full-run invariance ------------------------------------------------------


class TestTrainerRunInvariance:
    def _run(self, fleet_datasets, traces, step_workers: int):
        validation = DrivingDataset()
        for dataset in fleet_datasets.values():
            validation.extend([dataset.frame(i) for i in range(0, len(dataset), 8)])
        nodes = [
            make_node(vid, dataset, coreset_size=10, seed=3)
            for vid, dataset in sorted(fleet_datasets.items())
        ]
        config = LbChatConfig(
            duration=80.0,
            train_interval=2.0,
            record_interval=20.0,
            wireless_loss=False,
            seed=1,
            step_workers=step_workers,
        )
        trainer = LbChatTrainer(nodes, traces, validation, config)
        trainer.run()
        grid = np.linspace(0.0, 80.0, 9)
        return (
            trainer.loss_curve.mean_curve(grid).tobytes(),
            tuple(node.flat_params.tobytes() for node in nodes),
            tuple(sorted(trainer.counters.as_dict().items())),
        )

    def test_lbchat_run_bit_identical_across_worker_counts(
        self, fleet_datasets, traces
    ):
        reference = self._run(fleet_datasets, traces, 1)
        for workers in (2, 4):
            assert self._run(fleet_datasets, traces, workers) == reference


# -- checkpoint interop -------------------------------------------------------


@pytest.fixture(scope="module")
def context():
    return build_context(TINY)


class TestCheckpointCrossWorkerCount:
    def test_fingerprint_excludes_step_workers(self, context):
        base = RunSpec.for_context(context, "LbChat", seed=1, checkpoint_every=10.0)
        sharded = replace(base, overrides={"step_workers": 4})
        assert spec_fingerprint(base) == spec_fingerprint(sharded)
        other = replace(base, overrides={"step_workers": 4, "lambda_c": 0.5})
        assert spec_fingerprint(base) != spec_fingerprint(other)

    @pytest.mark.parametrize(
        "write_workers,resume_workers", [(4, 1), (1, 4)], ids=["4to1", "1to4"]
    )
    def test_resume_under_different_worker_count(
        self, context, tmp_path, write_workers, resume_workers
    ):
        reference = run_method(
            context,
            RunSpec.for_context(
                context,
                "LbChat",
                seed=1,
                checkpoint_every=10.0,
                checkpoint_dir=str(tmp_path / "ref"),
            ),
        )
        root = tmp_path / "main"
        spec = RunSpec.for_context(
            context,
            "LbChat",
            seed=1,
            checkpoint_every=10.0,
            checkpoint_dir=str(root),
            overrides={"step_workers": write_workers},
        )
        run_method(context, spec)
        store = RunStore(root)
        store.drop_after(spec, 2)  # crash after barrier 2
        resumed = resume_run_dir(
            store.run_dir(spec), step_workers=resume_workers
        )
        assert digest(resumed) == digest(reference)


# -- oversubscription guard ---------------------------------------------------


class TestOversubscriptionGuard:
    def _spec(self, context, step_workers: int) -> RunSpec:
        return RunSpec.for_context(
            context, "LbChat", seed=1, overrides={"step_workers": step_workers}
        )

    def test_clamps_over_budget_specs(self, context):
        cores = os.cpu_count() or 1
        n_jobs = max(2, cores)  # budget becomes cores // n_jobs == 1
        specs = [self._spec(context, 8), self._spec(context, 1)]
        with TelemetrySession() as session:
            with pytest.warns(RuntimeWarning, match="step_workers clamped"):
                clamped = clamp_step_workers(specs, n_jobs)
            counters = session.registry.state()["counters"]
        assert clamped[0].overrides["step_workers"] == 1
        assert clamped[1].overrides["step_workers"] == 1
        assert counters["stepshard.oversubscription_clamped"] == 1.0
        # Untouched specs come back as-is (same object).
        assert clamped[1] is specs[1]

    def test_serial_pool_leaves_specs_alone(self, context):
        specs = [self._spec(context, 8)]
        assert clamp_step_workers(specs, 1) is specs


# -- autotune -----------------------------------------------------------------


class TestAutotune:
    def test_resolve_plain_values(self):
        assert resolve_step_workers("3") == 3
        assert resolve_step_workers(2) == 2
        with pytest.raises(ValueError):
            resolve_step_workers("0")

    def test_auto_reads_host_cache(self, tmp_path, monkeypatch):
        # An entry cached before the Adam chunk scan was deleted still
        # carries its key; it must load, and nothing reads it.
        cache = tmp_path / "autotune.json"
        cache.write_text(
            json.dumps({host_fingerprint(): {"step_workers": 3, "adam_chunk": 65536}})
        )
        monkeypatch.setenv("REPRO_AUTOTUNE_CACHE", str(cache))
        assert resolve_step_workers("auto") == 3

    def test_autotune_measures_worker_counts_only(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_AUTOTUNE_CACHE", str(tmp_path / "autotune.json"))
        probed = []

        def measure(workers, **kwargs):
            probed.append((workers, kwargs))
            return 100.0 / workers  # serial wins: one doubling probe, then stop

        monkeypatch.setattr(autotune_module, "measure_step_throughput", measure)
        result = autotune_module.autotune(force=True)
        assert result.step_workers == 1
        assert probed == [(1, {}), (2, {})]  # no chunk-width ladder behind it
        assert sorted(result) == ["host_cores", "step_workers", "throughput"]
        cached = json.loads((tmp_path / "autotune.json").read_text())
        assert cached[host_fingerprint()] == dict(result)


# -- kernel cache -------------------------------------------------------------


_PROBE_SNIPPET = """
import numpy as np
from repro.nn._fused import fused_adam_step
kernel = fused_adam_step()
assert kernel is not None, "kernel unavailable"
p = np.zeros(8, dtype=np.float32)
g = np.ones(8, dtype=np.float32)
m = np.zeros(8, dtype=np.float32)
v = np.zeros(8, dtype=np.float32)
bc1 = np.full(2, 0.1, dtype=np.float32)
bc2 = np.full(2, 0.001, dtype=np.float32)
kernel(p, g, m, v, 2, 4, bc1, bc2, 0.9, 0.1, 0.999, 0.001, 0.001, 1e-8)
assert p.any()
print("ok")
"""


class TestKernelCacheLock:
    @pytest.mark.skipif(
        subprocess.run(["which", "cc"], capture_output=True).returncode != 0,
        reason="no C compiler",
    )
    def test_concurrent_first_use_compiles_once(self, tmp_path):
        """N processes race on a cold cache; exactly one runs the compiler."""
        env = dict(os.environ)
        env["REPRO_KERNEL_CACHE_DIR"] = str(tmp_path)
        env["PYTHONPATH"] = str(Path(__file__).resolve().parent.parent / "src")
        procs = [
            subprocess.Popen(
                [sys.executable, "-c", _PROBE_SNIPPET],
                env=env,
                stdout=subprocess.PIPE,
                stderr=subprocess.PIPE,
            )
            for _ in range(4)
        ]
        for proc in procs:
            out, err = proc.communicate(timeout=180)
            assert proc.returncode == 0, err.decode()
            assert out.decode().strip() == "ok"
        compiles = (tmp_path / "compiles.log").read_text().splitlines()
        assert len(compiles) == 1, compiles
        assert len(list(tmp_path.glob("adam-*.so"))) == 1
        assert not list(tmp_path.glob("*.lock"))

    @pytest.mark.skipif(
        subprocess.run(["which", "cc"], capture_output=True).returncode != 0,
        reason="no C compiler",
    )
    def test_warm_cache_loads_without_compiling(self, tmp_path):
        env = dict(os.environ)
        env["REPRO_KERNEL_CACHE_DIR"] = str(tmp_path)
        env["PYTHONPATH"] = str(Path(__file__).resolve().parent.parent / "src")
        for _ in range(2):
            result = subprocess.run(
                [sys.executable, "-c", _PROBE_SNIPPET],
                env=env,
                capture_output=True,
                timeout=180,
            )
            assert result.returncode == 0, result.stderr.decode()
        compiles = (tmp_path / "compiles.log").read_text().splitlines()
        assert len(compiles) == 1, compiles

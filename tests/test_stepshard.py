"""Within-run step sharding: contiguous bank-row shards on threads.

The load-bearing contract: stepping a fleet's batched training step and
validation pass as row shards on threads is *purely* an execution
strategy — every result (losses, parameters, optimizer moments, step
counters, full run digests, checkpoints) is bit-identical for every
``step_workers`` value, including resuming a checkpoint under a
different shard count than the one that wrote it.  Plus the fault
matrix (a shard that raises, a fork after a sharded step, a process
pinned to one core), the usable-core count every default reads,
regressions for the kernel-cache lockfile (compile at most once per
host under concurrent first use) and the jobs x step-shards
oversubscription guard.
"""

from __future__ import annotations

import hashlib
import os
import shutil
import subprocess
import sys
import threading
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from repro.checkpoint import RunStore
from repro.checkpoint.format import spec_fingerprint
from repro.checkpoint.resume import resume_run_dir
from repro.core import fleet as fleet_module
from repro.core.fleet import FleetEngine, FleetIncompatible
from repro.core.lbchat import LbChatConfig, LbChatTrainer
from repro.engine.random import spawn_rng
from repro.experiments.runner import RunSpec, build_context, run_method
from repro.nn import make_driving_model
from repro.parallel import clamp_step_workers, resolve_jobs, run_specs
from repro.parallel import stepshard
from repro.parallel.stepshard import (
    StepShard,
    default_step_shards,
    partition_rows,
    run_shards,
    usable_cores,
)
from repro.sim.dataset import DrivingDataset
from repro.telemetry.hooks import TelemetrySession
from tests.conftest import make_fleet
from tests.test_checkpoint_resume import TINY, digest
from tests.test_nn_bank import BEV_SHAPE, CONFIG, N_WAYPOINTS, build_fleet, make_dataset

REPO = Path(__file__).resolve().parent.parent


def pin_affinity(monkeypatch, n_cores: int) -> None:
    """Make this process look pinned to ``n_cores`` CPUs."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n_cores)), raising=False)


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


# -- engine-level bit identity ------------------------------------------------


def record_draws(engine: FleetEngine) -> dict[int, tuple[np.ndarray, ...]]:
    """``row -> (bev, commands, targets)``: a copy of the minibatch each
    row last drew, kept by wrapping the engine's ``_draw``.  A block's
    scratch holds only its own rows, and only until the next block."""
    drawn = {}
    draw = engine._draw

    def recording(lo, hi, batch):
        draw(lo, hi, batch)
        for k in range(hi - lo):
            drawn[lo + k] = tuple(buf[k].copy() for buf in batch)

    engine._draw = recording
    return drawn


def _run_engine(step_workers: int | None, steps: int = 6, validation=None):
    engine = build_fleet(n_nodes=5, step_workers=step_workers)
    drawn = record_draws(engine)
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # shard threads interleave their draws as finely as they can
    try:
        losses = np.array([engine.train_step_all() for _ in range(steps)])
    finally:
        sys.setswitchinterval(switch)
    return (
        losses,
        engine.bank.flat.copy(),
        engine.optim.m.copy(),
        engine.optim.v.copy(),
        engine.optim.steps.copy(),
        # the last step's draws, stacked in row order
        *(np.stack([drawn[row][k] for row in range(len(engine.nodes))]) for k in range(3)),
        np.array([repr(node.rng.bit_generator.state) for node in engine.nodes]),
        *(() if validation is None else (
            engine.evaluate_fleet(validation), evaluated_by_shards(engine, validation)
        )),
    )


def evaluated_by_shards(engine: FleetEngine, validation) -> np.ndarray:
    """Every row's per-frame losses from the shards' own pass, written
    into NaNs: a row no block writes reads NaN, not whatever a freed
    buffer of the same size held."""
    bev, commands, targets, _ = validation.arrays()
    out = np.full((len(engine.nodes), len(validation)), np.nan, dtype=np.float32)
    chunk = max(1, fleet_module._EVAL_CHUNK // len(engine.nodes))
    run_shards(engine.shards, lambda shard: shard.evaluate(bev, commands, targets, chunk, out))
    return out


def row_bytes(engine: FleetEngine) -> int:
    """One row's share of a shard's scratch: its gradients and minibatch."""
    shard = engine.shards[0]
    return shard.grad[0].nbytes + sum(buf[0].nbytes for buf in shard.batch)


class TestEngineBitIdentity:
    @pytest.mark.parametrize("workers", [2, 4, 5])
    def test_train_step_all_bit_identical(self, workers):
        """Each shard draws its own rows' minibatches: the draws, every
        node's stream after them and every result are those of one shard."""
        reference = _run_engine(1)
        sharded = _run_engine(workers)
        for ref, got in zip(reference, sharded):
            assert ref.tobytes() == got.tobytes()

    @pytest.mark.parametrize("workers", [1, 2, 4, 5])
    @pytest.mark.parametrize("height", [1, 3, "shard"])
    def test_row_blocks_bit_identical(self, height, workers, monkeypatch):
        """A shard steps its rows in blocks over one block of scratch:
        after six steps and a validation pass longer than a chunk, the
        bank, the moments, the step counters, the losses, the draws and
        every node's stream are those of one shard in one block."""
        monkeypatch.setattr(fleet_module, "_EVAL_CHUNK", 40)  # 8 frames a chunk on 5 rows
        validation = make_dataset(99, 30)
        reference = _run_engine(1, validation=validation)
        if height != "shard":
            budget = height * row_bytes(build_fleet(n_nodes=5))
            monkeypatch.setattr(stepshard, "_BLOCK_BYTES", budget)
        engine = build_fleet(n_nodes=5, step_workers=workers)
        for shard in engine.shards:
            rows = shard.hi - shard.lo
            tallest = rows if height == "shard" else min(height, rows)
            heights = [block.hi - block.lo for block in shard.blocks]
            assert sum(heights) == rows and max(heights) == len(shard.grad) == tallest
            assert len(heights) == -(-rows // tallest)  # the fewest blocks that fit
        blocked = _run_engine(workers, validation=validation)
        assert len(blocked) == len(reference)
        for ref, got in zip(reference, blocked):
            assert ref.tobytes() == got.tobytes()

    @pytest.mark.parametrize("workers", [1, 2, 4, 5])
    def test_evaluate_fleet_bit_identical(self, workers, monkeypatch):
        """Validation longer than one chunk: every shard keeps the
        fleet's chunk, so each row's GEMMs keep their shape."""
        monkeypatch.setattr(fleet_module, "_EVAL_CHUNK", 40)  # 8 frames a chunk on 5 rows
        validation = make_dataset(99, 30)

        def evaluated(step_workers: int):
            engine = build_fleet(n_nodes=5, step_workers=step_workers)
            engine.train_step_all()
            per_frame = []  # each row of the batched pass, as handed to its node's cache
            for node in engine.nodes:
                monkeypatch.setattr(
                    node, "store_losses", lambda dataset, losses: per_frame.append(losses.tobytes())
                )
            values = engine.evaluate_fleet(validation)
            assert len(per_frame) == len(engine.nodes)
            return values.tobytes(), per_frame

        assert evaluated(workers) == evaluated(1)

    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_every_shard_evaluates_in_the_fleets_chunk(self, workers, monkeypatch):
        """The rule the bits above cannot show on every BLAS, as shapes:
        each shard's forward sees the fleet's chunk (``_EVAL_CHUNK //
        n_nodes`` frames), whatever its own height."""
        from repro.nn.bank import FleetWaypointNet

        monkeypatch.setattr(fleet_module, "_EVAL_CHUNK", 40)  # 10 frames a chunk on 4 rows
        engine = build_fleet(n_nodes=4, step_workers=workers)
        assert len(engine.shards) == workers
        assert [len(shard.blocks) for shard in engine.shards] == [1] * workers
        seen = {id(block.model): [] for shard in engine.shards for block in shard.blocks}
        real = FleetWaypointNet.forward

        def noting(model, bev, commands):
            seen[id(model)].append(len(bev))
            return real(model, bev, commands)

        monkeypatch.setattr(FleetWaypointNet, "forward", noting)
        engine.evaluate_fleet(make_dataset(99, 30))
        assert list(seen.values()) == [[10, 10, 10]] * workers

    def test_shards_cover_the_rows_and_share_the_banks(self):
        engine = build_fleet(n_nodes=5, step_workers=2)
        assert [(shard.lo, shard.hi) for shard in engine.shards] == [(0, 3), (3, 5)]
        for shard in engine.shards:
            for block in shard.blocks:
                assert np.shares_memory(block.optim.m, engine.optim.m)
                assert block.model.bank.flat.base is engine.bank.flat
        assert len(build_fleet(n_nodes=3, step_workers=8).shards) == 3

    def test_checkpoint_bridge_sees_sharded_updates(self):
        """Chat views and the checkpoint's optimizer rows read the banks the shards wrote."""
        engine = build_fleet(n_nodes=4, step_workers=2)
        engine.train_step_all()
        for row, node in enumerate(engine.nodes):
            assert node.flat_params.tobytes() == engine.bank.flat[row].tobytes()
            snap = engine.optim.node_snapshot(row)
            assert snap["step"] == 1
            assert snap["m"].tobytes() == engine.optim.m[row].tobytes()


# -- fault matrix -------------------------------------------------------------


class ShardFailure(RuntimeError):
    pass


class TestFaults:
    @pytest.mark.parametrize("failing", [0, 1], ids=["calling-thread", "pool-thread"])
    @pytest.mark.parametrize("op", ["run_step", "evaluate"])
    def test_a_raising_shard_surfaces_its_exception(self, failing, op, monkeypatch):
        threads = threading.active_count()
        engine = build_fleet(n_nodes=4, step_workers=2)
        victim = engine.shards[failing]
        original = getattr(StepShard, op)

        def fail_on_victim(shard, *args):
            if shard is victim:
                raise ShardFailure(f"shard {failing}")
            return original(shard, *args)

        monkeypatch.setattr(StepShard, op, fail_on_victim)
        with pytest.raises(ShardFailure, match=f"shard {failing}"):
            if op == "run_step":
                engine.train_step_all()
            else:
                engine.evaluate_fleet(make_dataset(99, 10))
        assert threading.active_count() == threads  # no shard thread outlives the call

    @pytest.mark.parametrize("shared", ["rng", "dataset"])
    def test_members_sharing_a_stream_or_a_dataset_are_refused_at_birth(self, shared):
        """Shards draw concurrently, so one generator or dataset behind
        two rows would race."""
        template = make_driving_model(BEV_SHAPE, N_WAYPOINTS, hidden=12, seed=0)
        rngs = [spawn_rng(5, "a"), spawn_rng(5, "b")]
        datasets = [make_dataset(100, 30), make_dataset(101, 30)]
        if shared == "rng":
            rngs[1] = np.random.Generator(rngs[0].bit_generator)
        else:
            datasets[1] = datasets[0]
        members = [(f"v{i}", datasets[i], rngs[i]) for i in range(2)]
        with pytest.raises(FleetIncompatible, match="share one"):
            FleetEngine(template, members, CONFIG, step_workers=2)

    def test_an_empty_dataset_raises_before_any_shard_steps(self):
        engine = build_fleet(n_nodes=4, step_workers=2)
        engine.train_step_all()
        before = [engine.bank.flat.copy(), engine.optim.m.copy(), engine.optim.v.copy(),
                  engine.optim.steps.copy()]
        engine.nodes[3].dataset = DrivingDataset(pool=engine.nodes[3].dataset.pool)
        with pytest.raises(ValueError, match="node v3 cannot sample from an empty dataset"):
            engine.train_step_all()
        after = [engine.bank.flat, engine.optim.m, engine.optim.v, engine.optim.steps]
        for was, now in zip(before, after):
            assert was.tobytes() == now.tobytes()
        assert [node.train_steps for node in engine.nodes] == [1] * 4

    def test_no_thread_outlives_a_step(self):
        threads = threading.active_count()
        engine = build_fleet(n_nodes=4, step_workers=4)
        engine.train_step_all()
        engine.evaluate_fleet(make_dataset(99, 10))
        assert threading.active_count() == threads

    def test_forked_pool_after_a_sharded_step_matches_serial(self, context):
        build_fleet(n_nodes=4, step_workers=2).train_step_all()
        specs = [RunSpec.for_context(context, method, seed=1) for method in ("LbChat", "DP")]
        serial = run_specs(specs, jobs=1)
        pooled = run_specs(specs, jobs=2)
        assert [digest(result) for result in pooled] == [digest(result) for result in serial]

    @pytest.mark.skipif(shutil.which("taskset") is None, reason="no taskset")
    def test_pinned_to_one_core_takes_the_one_shard_path(self):
        probe = (
            "from tests.test_stepshard import engine_digest; "
            "print(*engine_digest(None))"
        )
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(REPO / "src"), str(REPO)])}
        child = subprocess.run(
            ["taskset", "-c", "0", sys.executable, "-c", probe],
            env=env, cwd=REPO, capture_output=True, text=True, timeout=120,
        )
        assert child.returncode == 0, child.stderr
        shards, bits = child.stdout.split()
        assert shards == "1"
        assert bits == engine_digest(2)[1]


def engine_digest(step_workers: int | None) -> tuple[int, str]:
    """Shard count and a digest of a few steps and one validation pass."""
    engine = build_fleet(n_nodes=5, step_workers=step_workers)
    losses = [engine.train_step_all() for _ in range(3)]
    values = engine.evaluate_fleet(make_dataset(99, 20))
    blob = b"".join(np.asarray(x).tobytes() for x in (*losses, values, engine.bank.flat))
    return len(engine.shards), hashlib.sha256(blob).hexdigest()


# -- usable cores ---------------------------------------------------------------


class TestUsableCores:
    def test_reads_the_affinity_mask_not_the_host(self, monkeypatch):
        pin_affinity(monkeypatch, 3)
        assert usable_cores() == 3
        assert resolve_jobs(0) == 3

    def test_falls_back_to_the_cpu_count_without_an_affinity_api(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 6)
        assert usable_cores() == 6

    def test_default_shards_are_cores_over_blas_threads(self, monkeypatch):
        pin_affinity(monkeypatch, 4)
        monkeypatch.setattr(stepshard, "blas_threads", lambda: 2)
        assert default_step_shards() == 2
        monkeypatch.setattr(stepshard, "blas_threads", lambda: None)
        assert default_step_shards() == 4
        monkeypatch.setattr(stepshard, "blas_threads", lambda: 8)
        assert default_step_shards() == 1

    def test_a_fleet_defaults_to_one_shard_per_usable_core(self, monkeypatch):
        monkeypatch.setattr(stepshard, "blas_threads", lambda: 1)
        pin_affinity(monkeypatch, 1)
        assert len(build_fleet(n_nodes=4, step_workers=None).shards) == 1
        pin_affinity(monkeypatch, 4)
        assert len(build_fleet(n_nodes=3, step_workers=None).shards) == 3


# -- full-run invariance ------------------------------------------------------


class TestTrainerRunInvariance:
    def _run(self, fleet_datasets, traces, step_workers: int | None):
        validation = DrivingDataset()
        for dataset in fleet_datasets.values():
            validation.extend([dataset.frame(i) for i in range(0, len(dataset), 8)])
        nodes = make_fleet(fleet_datasets, coreset_size=10, seed=3, step_workers=step_workers)
        config = LbChatConfig(
            duration=80.0,
            train_interval=2.0,
            record_interval=20.0,
            wireless_loss=False,
            seed=1,
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
        for workers in (None, 2, 4):
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
    def _spec(self, context, step_workers: int | None) -> RunSpec:
        overrides = {} if step_workers is None else {"step_workers": step_workers}
        return RunSpec.for_context(context, "LbChat", seed=1, overrides=overrides)

    def test_clamps_over_budget_specs(self, context, monkeypatch):
        pin_affinity(monkeypatch, 4)  # budget: 4 // 2 == 2
        specs = [self._spec(context, 8), self._spec(context, 1)]
        with TelemetrySession() as session:
            with pytest.warns(RuntimeWarning, match="step_workers clamped"):
                clamped = clamp_step_workers(specs, 2)
            counters = session.registry.state()["counters"]
        assert clamped[0].overrides["step_workers"] == 2
        assert clamped[1].overrides["step_workers"] == 1
        assert counters["stepshard.oversubscription_clamped"] == 1.0
        # Untouched specs come back as-is (same object).
        assert clamped[1] is specs[1]

    def test_a_spec_that_asked_nothing_gets_the_budget_silently(self, context, monkeypatch):
        pin_affinity(monkeypatch, 4)
        specs = [self._spec(context, None)]
        with TelemetrySession() as session, warnings.catch_warnings():
            warnings.simplefilter("error")
            clamped = clamp_step_workers(specs, 3)
        assert clamped[0].overrides["step_workers"] == 1
        assert "stepshard.oversubscription_clamped" not in session.registry.state()["counters"]

    def test_serial_pool_leaves_specs_alone(self, context):
        specs = [self._spec(context, 8)]
        assert clamp_step_workers(specs, 1) is specs


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

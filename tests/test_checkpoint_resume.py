"""End-to-end resume equivalence for the repro.checkpoint subsystem.

The contract under test: checkpointing never changes a run.  A
checkpointed run is bit-identical to the same spec without checkpoints,
and one interrupted at any barrier and resumed from disk is
bit-identical to it left uninterrupted — for every method, seed, and
interruption point.  A second test drives the resume guarantee through
the process pool's crash-retry path with a worker killed mid-run.
"""

from __future__ import annotations

import copy
import pickle
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.checkpoint import RunStore
from repro.checkpoint.policy import KILL_BARRIER_ENV, KILL_FLAG_ENV
from repro.experiments.configs import CI
from repro.experiments.runner import METHOD_NAMES, RunSpec, build_context, run_method
from repro.parallel import run_specs
from repro.sim.world import WorldConfig

TINY = replace(
    CI,
    name="checkpoint-test",
    world=WorldConfig(
        map_size=400.0,
        grid_n=3,
        n_vehicles=3,
        n_background_cars=0,
        n_pedestrians=0,
        seed=7,
        min_route_length=120.0,
    ),
    collect_duration=30.0,
    trace_duration=120.0,
    train_duration=40.0,
    train_interval=2.0,
    record_interval=10.0,
    coreset_size=6,
    eval_trials=1,
    eval_models=1,
    eval_normal_cars=0,
    eval_normal_pedestrians=0,
)

#: train_duration=40 with this cadence puts barriers at t=10/20/30.
EVERY = 10.0
BARRIERS = (1, 2, 3)

#: Every method, and LbChat under the overlapped chat protocol.
RUNS = [
    *(pytest.param(method, {}, id=method) for method in METHOD_NAMES),
    pytest.param("LbChat", {"overlap_chat": True}, id="LbChat-overlap"),
]


@pytest.fixture(scope="module")
def context():
    return build_context(TINY)


def digest(result):
    """Everything measurable about a run, hashable for exact comparison."""
    return (
        tuple(result.loss_curve(9)[1].tolist()),
        result.receive_attempted,
        result.receive_completed,
        tuple(sorted(result.counters.items())),
        tuple(node.flat_params.tobytes() for node in result.nodes),
        tuple(tuple(node.dataset.ids) for node in result.nodes),
        tuple(node.coreset.data.weights.tobytes() for node in result.nodes),
    )


class TestResumeEquivalence:
    @pytest.mark.parametrize(("method", "overrides"), RUNS)
    def test_a_checkpointed_run_is_the_plain_run(self, context, tmp_path, method, overrides):
        """A barrier is a pure read: generator state is saved, not re-derived."""
        plain = RunSpec.for_context(context, method, seed=2, overrides=overrides)
        checkpointed = replace(plain, checkpoint_every=EVERY, checkpoint_dir=str(tmp_path))
        assert digest(run_method(context, checkpointed)) == digest(run_method(context, plain))
        assert RunStore(tmp_path).barriers(checkpointed) == list(BARRIERS)

    @settings(
        max_examples=4,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        method=st.sampled_from(METHOD_NAMES),
        seed=st.sampled_from((1, 2)),
        barrier=st.sampled_from(BARRIERS),
    )
    def test_interrupted_run_resumes_bit_identical(
        self, context, tmp_path_factory, method, seed, barrier
    ):
        # Fresh store per example: hypothesis may replay the same spec,
        # and a populated store would turn the reference run into a
        # resume itself.
        root = Path(tempfile.mkdtemp(dir=tmp_path_factory.getbasetemp()))
        spec = RunSpec.for_context(
            context,
            method,
            seed=seed,
            checkpoint_every=EVERY,
            checkpoint_dir=str(root),
        )
        reference = run_method(context, spec)
        store = RunStore(root)
        assert store.barriers(spec) == list(BARRIERS)
        # Simulate a crash just after `barrier` committed: newer
        # snapshots and the done marker vanish.
        store.drop_after(spec, barrier)
        resumed = run_method(context, spec)
        assert digest(resumed) == digest(reference)
        events = [event["event"] for event in store.events(spec)]
        assert "resumed" in events

    @pytest.mark.parametrize("method", METHOD_NAMES)
    def test_every_method_resumes_from_the_last_barrier(self, context, tmp_path, method):
        """Barrier 3 (t = 30 s) holds a train instant, a record tick and
        the second round tick: the resume must replay their tie-break."""
        spec = RunSpec.for_context(
            context, method, seed=2, checkpoint_every=EVERY, checkpoint_dir=str(tmp_path)
        )
        reference = run_method(context, spec)
        store = RunStore(tmp_path)
        store.drop_after(spec, 3)
        resumed = run_method(context, spec)
        assert digest(resumed) == digest(reference)
        assert "resumed" in [event["event"] for event in store.events(spec)]

    @pytest.mark.parametrize("method", ["ProxSkip", "RSU-L", "DFL-DDS"])
    def test_a_baseline_resumes_the_state_it_keeps_beside_its_nodes(self, method):
        """ProxSkip's link generator, RSU-L's road-side units and
        DFL-DDS's source counts are ``extra_state``.  On the selfcheck's
        overlap world, where each of them acts on its state after t = 70
        s, barrier 2 holds state a fresh trainer lacks, and the run
        resumed there is the run left alone; a resume that dropped the
        state diverges."""
        from repro import selfcheck
        from repro.checkpoint.policy import Checkpointer, CheckpointPolicy
        from repro.experiments.runner import RunResult, prepare_trainer

        class Keep(Checkpointer):
            def __init__(self):
                super().__init__(None, None, CheckpointPolicy(selfcheck.OVERLAP_BARRIER_EVERY))
                self.states = {}

            def _on_barrier(self, trainer, index):
                self.states[index] = copy.deepcopy(trainer.checkpoint_barrier(index))

        def own(extra):  # what the method keeps, not the round clock
            return pickle.dumps({key: extra[key] for key in sorted(extra) if key != "next_round"})

        context = build_context(selfcheck.build_scale("overlap"))
        spec = RunSpec.for_context(context, method, seed=selfcheck.SEED)
        nodes, trainer = prepare_trainer(context, spec)
        keep = Keep()
        trainer.run(checkpointer=keep)
        reference = RunResult.from_trainer(spec, trainer, nodes)
        state = keep.states[2]
        nodes, trainer = prepare_trainer(context, spec)
        assert own(trainer.extra_state()) != own(state["extra"])
        trainer.restore(state)
        trainer.run(checkpointer=Keep())
        assert digest(RunResult.from_trainer(spec, trainer, nodes)) == digest(reference)

    def test_a_resume_reads_the_loss_cache_it_restored(self):
        """On the selfcheck's city-cache world (10 s train interval) a
        flight lands at t = 3.7 s, before the next train instant, and
        Eq. 8 scores the joint coreset with the losses its chat cached:
        the t = 3.5 s barrier's loss cache is read.  Resumed as saved, it
        is the run left alone; with those losses 1 % off, it is not."""
        from repro import selfcheck

        context = selfcheck._context("city-cache")
        spec = RunSpec.for_context(
            context, "LbChat", seed=selfcheck.SEED, overrides={"overlap_chat": True},
            checkpoint_every=selfcheck.CACHE_BARRIER_EVERY,
        )
        reference, states = selfcheck._run_trainer(context, spec)
        state = states[1]
        assert state["time"] == 3.5
        resumed, _ = selfcheck._run_trainer(context, spec, copy.deepcopy(state))
        assert digest(resumed) == digest(reference)
        for node in state["nodes"]:
            node["loss_values"] = np.asarray(node["loss_values"]) * np.float32(1.01)
        off, _ = selfcheck._run_trainer(context, spec, state)
        assert digest(off) != digest(reference)

    def test_resume_replays_remaining_barriers(self, context, tmp_path):
        spec = RunSpec.for_context(
            context,
            "LbChat",
            seed=1,
            checkpoint_every=EVERY,
            checkpoint_dir=str(tmp_path),
        )
        run_method(context, spec)
        store = RunStore(tmp_path)
        store.drop_after(spec, 1)
        run_method(context, spec)
        # The resumed run re-saved barriers 2 and 3 on its way out.
        assert store.barriers(spec) == list(BARRIERS)
        saves = [event for event in store.events(spec) if event["event"] == "saved"]
        assert [event["barrier"] for event in saves] == [1, 2, 3, 2, 3]


class TestPoolCrashResume:
    def test_killed_worker_resumes_from_barrier(self, context, monkeypatch, tmp_path):
        flag = tmp_path / "kill-once"
        flag.touch()
        pool_root = tmp_path / "pool-store"
        ref_root = tmp_path / "ref-store"
        pool_specs = [
            RunSpec.for_context(
                context,
                method,
                seed=1,
                checkpoint_every=EVERY,
                checkpoint_dir=str(pool_root),
            )
            for method in ("LbChat", "DP")
        ]
        ref_specs = [replace(spec, checkpoint_dir=str(ref_root)) for spec in pool_specs]
        reference = run_specs(ref_specs, jobs=1)
        # Exactly one worker attempt dies (os._exit) right after its
        # barrier-2 snapshot commits; the retry must resume from it.
        monkeypatch.setenv(KILL_BARRIER_ENV, "2")
        monkeypatch.setenv(KILL_FLAG_ENV, str(flag))
        results = run_specs(pool_specs, jobs=2, retries=2)
        assert not flag.exists()  # the kill fired exactly once
        assert [digest(r) for r in results] == [digest(r) for r in reference]
        store = RunStore(pool_root)
        events = [
            event["event"] for spec in pool_specs for event in store.events(spec)
        ]
        assert "resumed" in events


def _on_private_pools(context):
    """The same context with every dataset on a frame pool of its own."""
    from repro.sim.dataset import DrivingDataset

    def alone(dataset):
        return DrivingDataset(dataset.frames())

    return replace(
        context,
        datasets={vid: alone(dataset) for vid, dataset in context.datasets.items()},
        validation=alone(context.validation),
    )


class TestFramesOnDisk:
    """Format 5: a barrier writes the frames its datasets name once per
    pool — by id alone the ones the run's pool held when the trainer was
    built — and a dataset as rows and weights."""

    def spec(self, context, root):
        return RunSpec.for_context(
            context, "LbChat", seed=1, checkpoint_every=EVERY, checkpoint_dir=str(root)
        )

    @staticmethod
    def bev_members(store, spec, barrier):
        """The ``bev`` arrays of a barrier's npz, stored whole or split."""
        import zipfile

        with zipfile.ZipFile(store.run_dir(spec) / f"ckpt-{barrier:06d}.npz") as archive:
            names = archive.namelist()
        return [
            name.removesuffix(".npy").removesuffix("/values")
            for name in names
            if name.endswith(("/bev.npy", "/bev/values.npy"))
        ]

    def test_one_bev_member_per_pool_and_the_saved_event_counts_it(self, context, tmp_path):
        spec = self.spec(context, tmp_path)
        result = run_method(context, spec)
        store = RunStore(tmp_path)
        assert self.bev_members(store, spec, 3) == ["/frame_table/pools/0/bev"]
        state = store.load_checkpoint(spec, 3)
        (table,) = state["frame_table"]["pools"]
        # The run's one pool holds every frame a dataset names: ids, no columns.
        assert len(table["bev"]) == len(table["commands"]) == len(table["targets"]) == 0
        saved = [e for e in store.events(spec) if e["event"] == "saved"][-1]
        assert saved["frames"] == 0
        assert saved["frames_named"] == len(table["ids"]) == len(set(table["ids"]))
        held = sum(len(n["dataset"]["rows"]) + len(n["coreset_data"]["rows"]) for n in state["nodes"])
        assert saved["frame_refs"] == held > saved["frames_named"]
        # Every training frame, and none of the validation set's.
        assert set(table["ids"]) == {fid for node in result.nodes for fid in node.dataset.ids}
        # Parameters and both Adam moments, and next to nothing else.
        assert saved["raw_bytes"] < 4 * sum(node.flat_params.nbytes for node in result.nodes)

    def test_a_fleet_on_private_pools_writes_each_and_resumes(self, context, tmp_path):
        private = _on_private_pools(context)
        spec = self.spec(private, tmp_path / "private")
        reference = run_method(private, spec)
        assert digest(reference) == digest(run_method(context, self.spec(context, tmp_path / "shared")))
        store = RunStore(tmp_path / "private")
        assert len(self.bev_members(store, spec, 2)) == len(private.datasets)
        # The fresh nodes' pools hold only their own frames: what they had
        # absorbed by barrier 2 is interned from the file.
        store.drop_after(spec, 2)
        assert digest(run_method(private, spec)) == digest(reference)

    def test_restore_names_the_first_frame_nobody_has(self, context, tmp_path):
        from repro.checkpoint import CheckpointError
        from repro.experiments.runner import prepare_trainer

        spec = self.spec(context, tmp_path)
        run_method(context, spec)
        state = RunStore(tmp_path).load_checkpoint(spec, 2)
        (table,) = state["frame_table"]["pools"]
        carried = len(table["bev"])  # the ids past these are named, not carried
        # The run's own pool has every frame: nothing is needed from the file.
        prepare_trainer(context, spec)[1].restore(state)
        # Pools that never saw a peer's frames cannot supply them.
        private = _on_private_pools(context)
        nodes, trainer = prepare_trainer(private, spec)
        absent = [fid for fid in table["ids"][carried:] if nodes[0].dataset.pool.row(fid) is None]
        with pytest.raises(CheckpointError, match=f"frame '{absent[0]}' is neither"):
            trainer.restore(state)


class TestBarrierMemory:
    def test_a_barrier_allocates_less_than_the_fleets_parameters(self, tmp_path):
        """A barrier writes the banks' rows where they are: its peak
        allocation stays below one copy of the fleet's parameters (a
        barrier that copied them, and Adam's two moments, took 3x)."""
        import tracemalloc

        from repro import selfcheck
        from repro.checkpoint.policy import CheckpointPolicy, Checkpointer
        from repro.experiments.runner import prepare_trainer

        context = selfcheck._context("hotpath")
        spec = RunSpec.for_context(
            context, "LbChat", seed=selfcheck.SEED, checkpoint_every=EVERY,
            checkpoint_dir=str(tmp_path),
        )
        _, trainer = prepare_trainer(context, spec)
        peaks = []

        class Measured(Checkpointer):
            def _on_barrier(self, trainer, index):
                tracemalloc.start()
                try:
                    super()._on_barrier(trainer, index)
                    peaks.append(tracemalloc.get_traced_memory()[1])
                finally:
                    tracemalloc.stop()

        trainer.run(checkpointer=Measured(spec, RunStore(tmp_path), CheckpointPolicy(EVERY)))
        assert len(peaks) == len(BARRIERS)
        assert max(peaks) < trainer.fleet.bank.flat.nbytes, (peaks, trainer.fleet.bank.flat.nbytes)

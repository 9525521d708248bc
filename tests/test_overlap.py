"""Overlapped chat transfers (repro.core.overlap) and their satellites.

Covers the :class:`TransferLedger` occupancy semantics,
commit-at-barrier behavior of background flights, range-cut aborts,
checkpoint/resume with a transfer in the air, and step-shard
bit-identity with overlap on.  A hypothesis property pins the flag-off
path: with ``overlap_chat`` off a trainer owns no scheduler and two runs
of one seed through the ledger plumbing are bit-identical.
"""

from __future__ import annotations

import copy
import functools

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.checkpoint.policy import CheckpointPolicy
from repro.core.lbchat import LbChatConfig, LbChatTrainer
from repro.core.ledger import TransferLedger
from repro.net.channel import CHUNK_SECONDS, ChannelConfig
from repro.sim.dataset import DrivingDataset
from tests.conftest import make_fleet

#: Long enough for a second chat round: pairs chat at t ~ 0-8 (psi = 0,
#: models still agree), then again after the 60 s cooldown with divergent
#: models — those chats pick psi > 0 and launch background flights.
DURATION = 120.0
EVERY = 10.0


# -- TransferLedger (satellite: occupancy merge) ------------------------------


class TestTransferLedger:
    def test_occupy_merges_overlapping_windows(self):
        ledger = TransferLedger(2)
        assert ledger.occupy(0, now=0.0, duration=5.0) == 5.0
        # A shorter overlapping occupancy must not shrink the horizon.
        assert ledger.occupy(0, now=1.0, duration=2.0) == 5.0
        assert not ledger.is_idle(0, 4.999)
        assert ledger.is_idle(0, 5.0)
        # Extending past the horizon merges to the later end.
        assert ledger.occupy(0, now=4.0, duration=10.0) == 14.0
        assert ledger.is_idle(1, 0.0)

    def test_in_flight_blocks_idle_without_busy(self):
        ledger = TransferLedger(2)
        ledger.begin_flight(0)
        assert not ledger.is_idle(0, 100.0)
        assert ledger.is_idle(1, 0.0)
        ledger.begin_flight(0)
        ledger.end_flight(0)
        assert not ledger.is_idle(0, 100.0)  # still one flight out
        ledger.end_flight(0)
        assert ledger.is_idle(0, 100.0)

    def test_end_flight_without_begin_raises(self):
        ledger = TransferLedger(1)
        with pytest.raises(ValueError):
            ledger.end_flight(0)


# -- trainer harness ----------------------------------------------------------


@pytest.fixture()
def validation(fleet_datasets):
    val = DrivingDataset()
    for dataset in fleet_datasets.values():
        val.extend([dataset.frame(i) for i in range(0, len(dataset), 8)])
    return val


def build_trainer(fleet_datasets, traces, validation, step_workers=1, **overrides):
    nodes = make_fleet(fleet_datasets, coreset_size=10, seed=3, step_workers=step_workers)
    kwargs = dict(
        duration=DURATION,
        train_interval=2.0,
        record_interval=20.0,
        wireless_loss=False,
        seed=1,
    )
    kwargs.update(overrides)
    config = LbChatConfig(**kwargs)
    return LbChatTrainer(nodes, traces, validation, config)


def digest(trainer) -> tuple:
    grid = np.linspace(0.0, DURATION, 7)
    return (
        tuple(trainer.loss_curve.mean_curve(grid).tolist()),
        tuple(sorted(trainer.counters.snapshot().items())),
        tuple(node.flat_params.tobytes() for node in trainer.nodes),
        tuple(tuple(node.dataset.ids) for node in trainer.nodes),
        trainer.receive_rate.snapshot()["attempted"],
        trainer.receive_rate.snapshot()["completed"],
    )


class MemoryCheckpointer:
    """Barrier snapshots kept in memory (the store-free Checkpointer)."""

    def __init__(self, every: float = EVERY):
        self.policy = CheckpointPolicy(every=every)
        self.states: dict[int, dict] = {}

    def schedule(self, trainer) -> None:
        start = trainer.sim.now
        for index, when in self.policy.barriers(trainer.config.duration):
            if when <= start:
                continue
            trainer.sim.call_at(
                when, functools.partial(self._save, trainer, index)
            )

    def _save(self, trainer, index: int) -> None:
        # Kept past the barrier, so copied off the live banks.
        self.states[index] = copy.deepcopy(trainer.checkpoint_barrier(index))


# -- flag-off bit-identity (satellite: hypothesis property) -------------------


class TestFlagOffIdentity:
    @settings(
        max_examples=3,
        deadline=None,
        suppress_health_check=[
            HealthCheck.too_slow,
            HealthCheck.function_scoped_fixture,
        ],
    )
    @given(seed=st.sampled_from((1, 2, 3)))
    def test_memo_and_ledger_are_invisible_when_flag_off(
        self, fleet_datasets, traces, validation, seed
    ):
        """Flag-off runs own no scheduler and are not perturbed by the
        ledger: digests match bit-for-bit for every seed."""
        reference = build_trainer(fleet_datasets, traces, validation, seed=seed)
        candidate = build_trainer(fleet_datasets, traces, validation, seed=seed)
        assert candidate.overlap is None
        reference.run()
        candidate.run()
        assert digest(candidate) == digest(reference)


# -- overlapped flights -------------------------------------------------------


class TestOverlapFlights:
    def test_commit_at_barrier(self, fleet_datasets, traces, validation):
        """Overlapped chats eventually commit: no flight outlives its
        window, models/coresets land, and the run still learns."""
        trainer = build_trainer(
            fleet_datasets, traces, validation, overlap_chat=True
        )
        assert trainer.overlap is not None
        trainer.run()
        assert len(trainer.overlap.flights) == 0
        assert trainer.counters.get("chats") > 0
        assert trainer.counters.get("coresets_exchanged") > 0
        assert len(trainer.chat_log.records) == trainer.counters.get("chats")
        assert np.all(trainer.ledger.in_flight == 0)
        # Flights actually flew: model receptions only happen on commit.
        assert trainer.receive_rate.attempted > 0
        assert trainer.receive_rate.completed > 0
        grid = np.linspace(0.0, DURATION, 5)
        curve = trainer.loss_curve.mean_curve(grid)
        assert curve[-1] < curve[0]

    def test_abort_on_range_cut(self, node_pair):
        """A flight cut by range still commits its plan-time coresets."""
        from repro.core.overlap import TransferScheduler, plan_chat
        from repro.engine.events import Simulator
        from repro.net.wireless import WirelessModel

        node_i, node_j = node_pair
        channel = ChannelConfig()
        wireless = WirelessModel(max_range=500.0, enabled=False)

        cutoff = {"t": np.inf}

        def distance_fn(t: float) -> float:
            return 10.0 if t < cutoff["t"] else 1e9

        chat = plan_chat(
            node_i, node_j, distance_fn=distance_fn,
            start_time=0.0, contact_deadline=300.0,
            wireless=wireless, channel=channel, time_budget=300.0,
        )
        assert len(chat.legs) > 0
        # Cut the link shortly after the transfer phase begins: the
        # first chunk delivers, then the pair drops out of range.
        cutoff["t"] = chat.now + CHUNK_SECONDS + 1e-6

        class StubTrainer:
            def __init__(self):
                self.sim = Simulator()
                self.nodes = [node_i, node_j]
                self.ledger = TransferLedger(2)
                self.commits = []

            def account_chat(self, started_at, i, j, outcome):
                self.commits.append((started_at, i, j, outcome))

        trainer = StubTrainer()
        scheduler = TransferScheduler(trainer)
        params_before = [node.flat_params.copy() for node in (node_i, node_j)]
        sizes_before = [len(node.dataset) for node in (node_i, node_j)]
        scheduler.launch(chat, 0, 1)
        assert not trainer.ledger.is_idle(0, 1e9)
        trainer.sim.run(until=1000.0)
        outcome = chat.outcome
        assert len(scheduler.flights) == 0
        assert trainer.commits == [(0.0, 0, 1, outcome)]
        assert np.all(trainer.ledger.in_flight == 0)
        # Models were cut, so at least one direction failed...
        assert not (outcome.i_received_model and outcome.j_received_model)
        # ...but the plan-phase coresets still committed.
        assert outcome.absorbed_by_i + outcome.absorbed_by_j > 0
        assert len(node_i.dataset) > sizes_before[0]
        assert len(node_j.dataset) > sizes_before[1]
        # A receiver that got nothing keeps its trained-ahead params.
        for received, before, node in zip(
            (outcome.i_received_model, outcome.j_received_model),
            params_before,
            (node_i, node_j),
        ):
            if not received:
                assert np.array_equal(node.flat_params, before)

    def test_resume_with_in_flight_transfer(
        self, fleet_datasets, traces, validation
    ):
        """Barrier resume with a transfer in the air is bit-identical."""
        reference = build_trainer(
            fleet_datasets, traces, validation, overlap_chat=True
        )
        saver = MemoryCheckpointer()
        reference.run(checkpointer=saver)
        in_flight = {
            index: len(state.get("overlap", {}).get("flights", ()))
            for index, state in saver.states.items()
        }
        barriers = [index for index, n in sorted(in_flight.items()) if n > 0]
        assert barriers, (
            f"no barrier caught a transfer in flight ({in_flight}); "
            "slow the channel or adjust the cadence so the test bites"
        )
        for barrier in barriers:
            resumed = build_trainer(
                fleet_datasets, traces, validation, overlap_chat=True
            )
            resumed.restore(saver.states[barrier])
            resumed.run(checkpointer=MemoryCheckpointer())
            assert digest(resumed) == digest(reference), f"barrier {barrier}"

    def test_resume_of_a_flight_read_back_from_the_store(
        self, fleet_datasets, traces, validation, tmp_path
    ):
        """The same through npz + JSON on disk, not the live state tree."""
        from repro.checkpoint import RunStore
        from repro.checkpoint.policy import Checkpointer
        from repro.experiments.configs import CI
        from repro.experiments.runner import RunSpec

        # The spec only names the run directory; the trainers are ours.
        spec = RunSpec(method="LbChat", scale=CI, seed=1, checkpoint_every=EVERY)
        store = RunStore(tmp_path)
        policy = CheckpointPolicy(every=EVERY, keep=100)
        reference = build_trainer(
            fleet_datasets, traces, validation, overlap_chat=True
        )
        reference.run(checkpointer=Checkpointer(spec, store, policy))
        held = [
            barrier
            for barrier in store.barriers(spec)
            if store.load_checkpoint(spec, barrier)["overlap"]["flights"]
        ]
        assert held, "no barrier on disk holds a transfer in flight"
        store.drop_after(spec, held[0])
        state = store.latest_checkpoint(spec)
        assert state["barrier"] == held[0]
        (flight, *_) = state["overlap"]["flights"]
        assert flight["chat"]["legs"][0]["payload"]["values"].dtype == np.float32
        resumed = build_trainer(
            fleet_datasets, traces, validation, overlap_chat=True
        )
        resumed.restore(state)
        resumed.run(checkpointer=Checkpointer(spec, store, policy))
        assert digest(resumed) == digest(reference)

    def test_in_flight_checkpoint_refuses_flag_off_trainer(
        self, fleet_datasets, traces, validation
    ):
        reference = build_trainer(
            fleet_datasets, traces, validation, overlap_chat=True
        )
        saver = MemoryCheckpointer()
        reference.run(checkpointer=saver)
        state = next(
            (
                s
                for _, s in sorted(saver.states.items())
                if s.get("overlap", {}).get("flights")
            ),
            None,
        )
        assert state is not None
        plain = build_trainer(fleet_datasets, traces, validation)
        with pytest.raises(ValueError, match="overlap"):
            plain.restore(state)

    def test_stepshard_bit_identity_under_overlap(
        self, fleet_datasets, traces, validation
    ):
        serial = build_trainer(
            fleet_datasets, traces, validation, overlap_chat=True
        )
        sharded = build_trainer(
            fleet_datasets, traces, validation, overlap_chat=True, step_workers=2
        )
        serial.run()
        sharded.run()
        assert digest(sharded) == digest(serial)

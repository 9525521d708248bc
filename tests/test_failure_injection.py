"""Failure-injection tests: the system degrades gracefully, never crashes.

Each scenario breaks one environmental assumption — a dead channel,
lonely vehicles, undersized data, out-of-range traces — and checks the
trainers and protocols survive with sensible outcomes.
"""

import numpy as np
import pytest

from repro.core.chat import pairwise_chat
from repro.core.lbchat import LbChatConfig, LbChatTrainer
from repro.net import ChannelConfig, WirelessModel
from repro.sim.dataset import DrivingDataset
from repro.sim.traces import MobilityTraces
from tests.conftest import make_fleet, make_node


@pytest.fixture()
def validation(fleet_datasets):
    return DrivingDataset([fleet_datasets["v0"].frame(i) for i in range(0, 40, 8)])


class TestDeadChannel:
    def test_chat_aborts_cleanly_when_out_of_range(self, node_pair):
        outcome = pairwise_chat(
            node_pair[0],
            node_pair[1],
            distance_fn=lambda t: 10_000.0,
            start_time=0.0,
            contact_deadline=60.0,
            wireless=WirelessModel(),
            channel=ChannelConfig(),
            time_budget=15.0,
        )
        assert not outcome.coresets_exchanged
        assert outcome.aborted == "assist"

    def test_total_loss_channel_trainer_survives(self, fleet_datasets, traces, validation):
        """Every link at 100% loss: pure local training, no crash."""
        nodes = make_fleet(fleet_datasets, coreset_size=8, seed=2)
        config = LbChatConfig(
            duration=60.0, train_interval=3.0, record_interval=30.0, seed=1
        )
        trainer = LbChatTrainer(nodes, traces, validation, config)
        trainer.wireless = WirelessModel(
            table=((1e9, 1.0),), max_range=1e9, enabled=True
        )
        trainer.run()
        assert trainer.receive_rate.completed == 0
        assert trainer.counters.get("train_steps") > 0

    def test_mid_transfer_departure(self, node_pair):
        """The pair separates right after the coresets: models undelivered."""
        for _ in range(40):
            node_pair[1].train_step()

        def distance(t):
            return 50.0 if t < 2.0 else 5_000.0

        outcome = pairwise_chat(
            node_pair[0],
            node_pair[1],
            distance_fn=distance,
            start_time=0.0,
            contact_deadline=60.0,
            wireless=WirelessModel(),
            channel=ChannelConfig(),
            time_budget=15.0,
        )
        # Coresets (sub-second) made it; the 52 MB models could not.
        assert outcome.coresets_exchanged
        assert not outcome.i_received_model and not outcome.j_received_model
        assert outcome.absorbed_by_i > 0  # partial progress still banked


class TestLonelyFleet:
    def test_single_vehicle_trains_alone(self, fleet_datasets, validation):
        node = make_node("v0", fleet_datasets["v0"], coreset_size=8, seed=2)
        times = np.arange(0, 100, 0.5)
        positions = np.zeros((len(times), 1, 2))
        traces = MobilityTraces(["v0"], times, positions)
        config = LbChatConfig(
            duration=60.0, train_interval=3.0, record_interval=30.0, seed=1
        )
        trainer = LbChatTrainer([node], traces, validation, config)
        trainer.run()
        assert trainer.counters.get("chats") == 0
        assert trainer.counters.get("train_steps") > 0
        # On a one-row bank: the fleet engine holds any fleet of >= 1.
        assert trainer.fleet.mean_step_width == 1.0
        assert trainer.fleet.step_events == trainer.counters.get("train_steps")

    def test_zero_range_disables_encounters(self, fleet_datasets, traces, validation):
        nodes = make_fleet(fleet_datasets, coreset_size=8, seed=2)
        config = LbChatConfig(
            duration=60.0, train_interval=3.0, record_interval=30.0, seed=1, max_range=0.0
        )
        trainer = LbChatTrainer(nodes, traces, validation, config)
        trainer.run()
        assert trainer.counters.get("chats") == 0


class TestDegenerateData:
    def test_coreset_larger_than_dataset(self, fleet_datasets):
        tiny = fleet_datasets["v0"].subset(range(5))
        node = make_node("v0", tiny, coreset_size=100, seed=2)
        assert len(node.coreset) == 5

    def test_single_frame_dataset(self, fleet_datasets):
        single = fleet_datasets["v0"].subset([0])
        node = make_node("v0", single, coreset_size=8, seed=2)
        loss = node.train_step()
        assert np.isfinite(loss)
        assert len(node.coreset) == 1

    def test_identical_twin_chat_sends_little(self, fleet_datasets):
        """Two identical nodes have nothing to teach each other."""
        node_a = make_node("v0", fleet_datasets["v0"], coreset_size=8, seed=2)
        node_b = make_node("v0b", fleet_datasets["v0"], coreset_size=8, seed=2)
        outcome = pairwise_chat(
            node_a,
            node_b,
            distance_fn=lambda t: 30.0,
            start_time=0.0,
            contact_deadline=120.0,
            wireless=WirelessModel(enabled=False),
            channel=ChannelConfig(),
            time_budget=15.0,
        )
        # Identical models: value gaps are ~0, so Eq. 7 sends (almost)
        # nothing and the exchange wraps up quickly.
        assert outcome.psi.psi_i + outcome.psi.psi_j <= 0.2
        assert outcome.duration < 5.0


class TestTraceEdgeCases:
    def test_queries_beyond_trace_end_clamp(self, traces):
        last = traces.positions[-1, 0]
        assert np.allclose(traces.position(0, 1e9), last)

    def test_trainer_duration_beyond_traces(self, fleet_datasets, traces, validation):
        """Traces shorter than the training horizon: clamped, no crash."""
        nodes = make_fleet(fleet_datasets, coreset_size=8, seed=2)
        config = LbChatConfig(
            duration=traces.duration + 50.0,
            train_interval=5.0,
            record_interval=60.0,
            seed=1,
        )
        trainer = LbChatTrainer(nodes, traces, validation, config)
        trainer.run()
        assert trainer.counters.get("train_steps") > 0

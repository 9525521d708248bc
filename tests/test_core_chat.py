"""Tests for the pairwise chat protocol."""

from dataclasses import asdict

import numpy as np
import pytest

from repro.core.chat import (
    equal_compression_decision,
    estimated_chat_bytes,
    pairwise_chat,
)
from repro.core.overlap import plan_chat
from repro.core.psi import PsiDecision
from repro.net import ChannelConfig, WirelessModel
from repro.net.channel import ASSIST_INFO_BYTES
from tests.conftest import make_node

CHANNEL = ChannelConfig()
CLEAN = WirelessModel(enabled=False)
LOSSY = WirelessModel()


def run_chat(
    node_pair, distance=50.0, deadline=60.0, wireless=CLEAN, entry=pairwise_chat, **kwargs
):
    node_a, node_b = node_pair
    protocol = dict(
        distance_fn=lambda t: distance,
        start_time=0.0,
        contact_deadline=deadline,
        wireless=wireless,
        channel=CHANNEL,
        time_budget=15.0,
    )
    return entry(node_a, node_b, **{**protocol, **kwargs})


def stage_bytes(node_a, node_b, results=0):
    """Bytes on the air up to the coreset exchange, plus ``results`` more."""
    return (
        2 * ASSIST_INFO_BYTES
        + node_a.coreset.nominal_bytes
        + node_b.coreset.nominal_bytes
        + results
    )


#: Ways a chat ends before a model goes on the air: name -> ``run_chat``
#: keywords, given the node pair.
ENDING_EARLY = {
    "out_of_range": lambda a, b: dict(distance=1000.0, wireless=LOSSY),
    "deadline_in_coreset_stage": lambda a, b: dict(deadline=0.01),
    # Deadline lands between the coreset exchange and the (tiny)
    # results payload completing.
    "results": lambda a, b: dict(
        deadline=stage_bytes(a, b, 256) / CHANNEL.bytes_per_second, refresh_coresets=False
    ),
    # Deadline clears all three transfers but not the 0.1 s overhead.
    "results_overhead": lambda a, b: dict(
        deadline=stage_bytes(a, b, 2 * 256) / CHANNEL.bytes_per_second + 0.05,
        refresh_coresets=False,
    ),
    "coreset_only": lambda a, b: dict(coreset_only=True),
    "psi_zero": lambda a, b: dict(time_budget=1e-9),  # no time to ship a model
    "rounds_to_empty": lambda a, b: dict(),  # under ``tiny_psi``
}


@pytest.fixture
def tiny_psi(monkeypatch):
    """Eq. 7 decides on a positive psi whose top-k keeps zero entries."""
    tiny = PsiDecision(psi_i=1e-7, psi_j=1e-7, objective=0.0, exchange_time=0.0)
    monkeypatch.setattr("repro.core.chat.optimize_compression", lambda *a, **k: tiny)


class TestFullChat:
    def test_successful_chat_exchanges_everything(self, node_pair):
        outcome = run_chat(node_pair)
        assert outcome.coresets_exchanged
        assert outcome.absorbed_by_i > 0 and outcome.absorbed_by_j > 0
        assert outcome.duration > 0
        assert outcome.psi is not None

    def test_chat_mutates_datasets(self, node_pair):
        node_a, node_b = node_pair
        before_a, before_b = len(node_a.dataset), len(node_b.dataset)
        run_chat(node_pair)
        assert len(node_a.dataset) > before_a
        assert len(node_b.dataset) > before_b

    def test_trained_peer_model_gets_transferred(self, node_pair):
        node_a, node_b = node_pair
        for _ in range(80):
            node_b.train_step()
        outcome = run_chat(node_pair)
        # b's model is valuable to a, so a should have attempted receipt.
        assert outcome.i_attempted
        assert outcome.i_received_model

    def test_out_of_range_aborts_early(self, node_pair):
        outcome = run_chat(node_pair, **ENDING_EARLY["out_of_range"](*node_pair))
        assert outcome.aborted == "assist"
        assert not outcome.coresets_exchanged

    def test_tiny_deadline_cuts_coresets(self, node_pair):
        outcome = run_chat(node_pair, **ENDING_EARLY["deadline_in_coreset_stage"](*node_pair))
        assert outcome.aborted in ("assist", "coresets")

    def test_duration_bounded_by_budget_plus_overhead(self, node_pair):
        outcome = run_chat(node_pair)
        # Coresets+assist are sub-second; models bounded by T_B.
        assert outcome.duration < 15.0 + 5.0


class TestVariants:
    def test_coreset_only_skips_models(self, node_pair):
        outcome = run_chat(node_pair, **ENDING_EARLY["coreset_only"](*node_pair))
        assert outcome.coresets_exchanged
        assert not outcome.i_attempted and not outcome.j_attempted
        assert outcome.psi is None
        assert outcome.absorbed_by_i > 0

    def test_equal_compression_symmetric_psi(self, node_pair):
        node_a, node_b = node_pair
        for _ in range(40):
            node_b.train_step()
        outcome = run_chat(node_pair, equal_compression=True)
        assert outcome.psi.psi_i == pytest.approx(outcome.psi.psi_j)

    def test_mean_aggregation_runs(self, node_pair):
        node_a, node_b = node_pair
        for _ in range(40):
            node_b.train_step()
        outcome = run_chat(node_pair, mean_aggregation=True)
        assert outcome.coresets_exchanged


class TestEdgeCaseRegressions:
    def test_rounded_to_empty_model_is_not_counted_as_reception(self, node_pair, tiny_psi):
        """A positive psi whose top-k rounds to zero entries must not be
        counted as an attempted (let alone instantly successful) model
        reception — that inflated the §IV-C receive rate."""
        outcome = run_chat(node_pair, **ENDING_EARLY["rounds_to_empty"](*node_pair))
        assert outcome.psi.psi_i > 0 and outcome.psi.psi_j > 0
        assert outcome.coresets_exchanged
        assert not outcome.i_attempted and not outcome.j_attempted
        assert not outcome.i_received_model and not outcome.j_received_model

    def test_results_overhead_respects_contact_deadline(self, node_pair):
        """The fixed results-exchange overhead can cross the predicted
        contact deadline; the chat must abort there instead of planning
        Eq. 7 and starting model transfers against a dead pair."""
        outcome = run_chat(node_pair, **ENDING_EARLY["results_overhead"](*node_pair))
        assert outcome.aborted == "results_overhead"
        assert not outcome.i_attempted and not outcome.j_attempted
        # Coresets made it across before the cutoff and are still absorbed.
        assert outcome.coresets_exchanged
        assert outcome.absorbed_by_i > 0 and outcome.absorbed_by_j > 0

    def test_overhead_not_charged_when_results_transfer_fails(self, node_pair):
        """When the results transfer itself dies, the compute overhead is
        no longer added on top of the failure."""
        protocol = ENDING_EARLY["results"](*node_pair)
        outcome = run_chat(node_pair, **protocol)
        assert outcome.aborted == "results"
        assert outcome.duration <= protocol["deadline"] + 1e-9


def node_state(node):
    """Everything a chat can change on a node, plus its RNG's next draw."""
    return (
        node.flat_params.tobytes(),
        node.model_version,
        (node.dataset.ids, node.dataset.weights.tolist()),
        (node.coreset.data.ids, node.coreset.data.weights.tolist()),
        node.rng.random(),
    )


class TestTheTwoProtocolsEndTheSame:
    """A chat that ships no model is the same chat under either protocol."""

    @pytest.mark.parametrize("case", ENDING_EARLY)
    def test_ending_early(self, fleet_datasets, request, case):
        if case == "rounds_to_empty":
            request.getfixturevalue("tiny_psi")
        outcomes, states = [], []
        for entry in (pairwise_chat, plan_chat):
            pair = (
                make_node("v0", fleet_datasets["v0"]),
                make_node("v1", fleet_datasets["v1"], seed=6),
            )
            for _ in range(30):  # a peer worth listening to, so Eq. 7 has a choice
                pair[1].train_step()
            ended = run_chat(pair, entry=entry, **ENDING_EARLY[case](*pair))
            if entry is plan_chat:
                assert ended.legs == []  # no leg to launch
                ended = ended.outcome
            outcomes.append(asdict(ended))
            states.append([node_state(node) for node in pair])
        assert outcomes[0] == outcomes[1]
        assert states[0] == states[1]
        # The cases are what their names say (the per-case tests above
        # read the synchronous outcome in detail).
        assert not (outcomes[0]["i_attempted"] or outcomes[0]["j_attempted"])
        assert (outcomes[0]["psi"] is None) == (case not in ("psi_zero", "rounds_to_empty"))
        if case == "psi_zero":
            assert (outcomes[0]["psi"]["psi_i"], outcomes[0]["psi"]["psi_j"]) == (0.0, 0.0)


class TestEqualCompressionDecision:
    def test_fills_window(self):
        decision = equal_compression_decision(
            model_size_bytes=52e6, bandwidth_bps=31e6, time_budget=15.0, contact_duration=100.0
        )
        assert decision.exchange_time == pytest.approx(15.0, rel=1e-6)
        assert decision.psi_i == decision.psi_j

    def test_caps_at_one(self):
        decision = equal_compression_decision(
            model_size_bytes=1e6, bandwidth_bps=31e6, time_budget=15.0, contact_duration=100.0
        )
        assert decision.psi_i == 1.0


class TestEstimatedChatBytes:
    def test_includes_coresets_and_model(self, node_pair):
        node_a, node_b = node_pair
        total = estimated_chat_bytes(node_a, node_b, psi_total=1.0)
        expected = (
            node_a.coreset.nominal_bytes
            + node_b.coreset.nominal_bytes
            + node_a.config.nominal_model_bytes
        )
        assert total == expected

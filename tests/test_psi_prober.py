"""The dense psi prober against its oracle, in a bank and in a chat.

``DensePsiProber.build`` is the one way a chat fits the Eq. 7 map
phi(psi) -> loss; the per-level clone/compress/decompress/evaluate loop
behind ``VehicleNode.build_psi_map`` is the oracle it must match to the
bit, and nothing else.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compression import decompress, topk_for_psi, topk_plan
from repro.core.chat import negotiate, pairwise_chat
from repro.core.fleet import FleetEngine
from repro.core.node import NodeConfig, VehicleNode
from repro.core.overlap import DensePsiProber
from repro.coreset import PenaltyConfig
from repro.engine.random import spawn_rng
from repro.net import ChannelConfig, WirelessModel
from repro.nn import make_driving_model
from repro.sim.dataset import DrivingDataset, Frame

from tests.conftest import make_node
from tests.test_compression import EQ7_LATTICE, assert_same_payload, bits, brute_force_order

#: (bev shape, hidden) of the paper's and the city scale's models.
MODEL_SIZES = {"paper": ((4, 20, 20), 96), "city": ((4, 12, 12), 48)}
N_WAYPOINTS = 5
NO_PENALTY = PenaltyConfig(lambda_l2=0.0, lambda_entropy=0.0)


def synthetic_dataset(seed: int, bev_shape, n_frames: int = 40) -> DrivingDataset:
    rng = np.random.default_rng(seed)
    return DrivingDataset(
        [
            Frame(
                f"s{seed}-{i}",
                rng.normal(size=bev_shape).astype(np.float32),
                int(rng.integers(0, 4)),
                rng.normal(size=2 * N_WAYPOINTS).astype(np.float32),
                float(rng.uniform(0.5, 2.0)),
            )
            for i in range(n_frames)
        ]
    )


def fleet(seeds, size: str, use_conv: bool, penalty: PenaltyConfig) -> FleetEngine:
    """A fleet of node ``n{k}`` on ``synthetic_dataset(seeds[k])`` each."""
    bev_shape, hidden = MODEL_SIZES[size]
    template = make_driving_model(bev_shape, N_WAYPOINTS, hidden, seed=0, use_conv=use_conv)
    config = NodeConfig(coreset_size=12, batch_size=16, learning_rate=1e-2, penalty=penalty)
    members = [
        (f"n{k}", synthetic_dataset(seed, bev_shape), spawn_rng(seed, f"n{k}"))
        for k, seed in enumerate(seeds)
    ]
    return FleetEngine(template, members, config)


def trained_node(seed: int, size: str, use_conv: bool, penalty: PenaltyConfig, tie_step=0.0):
    """A one-row fleet's node a few reference steps away from the shared
    initialization.

    A positive ``tie_step`` rounds its parameters to that grid afterwards:
    a few dozen distinct magnitudes, many exact zeros of both signs, and
    every level's cut inside a long run of equal ones.
    """
    (node,) = fleet([seed], size, use_conv, penalty).nodes
    for _ in range(2):
        node.train_step()
    if tie_step:
        node.replace_model_params(np.round(node.flat_params / tie_step) * np.float32(tie_step))
    return node


@pytest.mark.parametrize("size", sorted(MODEL_SIZES))
@pytest.mark.parametrize("use_conv", [False, True], ids=["mlp", "conv"])
@pytest.mark.parametrize("penalty", [PenaltyConfig(), NO_PENALTY], ids=["penalty", "plain"])
class TestProberMatchesOracle:
    @settings(max_examples=4, deadline=None)
    @given(
        seed=st.integers(0, 2**16),
        psi=st.sampled_from([0.05, 0.3, 0.55, 0.95, 1.0]),
        tie_step=st.sampled_from([0.0, 0.02]),
    )
    def test_detached_node(self, size, use_conv, penalty, seed, psi, tie_step):
        node = trained_node(seed, size, use_conv, penalty, tie_step=tie_step)
        prober = DensePsiProber(node.fleet.template)
        psi_map, plan = prober.build(node)
        # The probe rows, to the bit: +0.0 in every unsent position.
        for row, level in zip(prober.bank.flat, prober.psis):
            assert np.array_equal(bits(row), bits(decompress(plan.compress(level))))
        oracle = node.build_psi_map()
        assert np.array_equal(psi_map.psis, oracle.psis)
        assert np.array_equal(psi_map.losses, oracle.losses)
        assert_same_payload(plan.compress(psi), node.compress_model(psi))

    def test_bank_attached_nodes(self, size, use_conv, penalty):
        """The trainer's case: rows of a fleet the engine stepped."""
        engine = fleet([7, 8], size, use_conv, penalty)
        for _ in range(2):
            engine.train_step_all()
        prober = DensePsiProber(engine.template)
        for node in engine.nodes:
            psi_map, plan = prober.build(node)
            oracle = node.build_psi_map()
            assert np.array_equal(psi_map.losses, oracle.losses)
            assert_same_payload(plan.compress(0.2), node.compress_model(0.2))


def test_probe_rows_hold_the_brute_force_top_k():
    """The bank rows against the rule itself, on parameters built to tie."""
    node = trained_node(11, "city", False, NO_PENALTY, tie_step=0.02)
    flat = node.flat_params
    assert np.unique(np.abs(flat)).size < 100 and np.signbit(flat[flat == 0]).any()
    prober = DensePsiProber(node.fleet.template)
    _, plan = prober.build(node)
    order = brute_force_order(flat)
    for row, level in zip(prober.bank.flat, prober.psis):
        kept = order[: topk_for_psi(flat.size, level)]
        want = np.zeros_like(flat)
        want[kept] = flat[kept]
        assert np.array_equal(bits(row), bits(want))
    for psi in EQ7_LATTICE:
        kept = sorted(order[: topk_for_psi(flat.size, psi)])
        assert plan.compress(psi).indices.tolist() == kept
        assert node.compress_model(psi).indices.tolist() == kept


# -- the prober inside a chat ------------------------------------------------------


class LoopProber:
    """The oracle in the prober's place: the per-level loop's map, and a
    plan ranked from scratch for the payload to reuse."""

    def build(self, node):
        return node.build_psi_map(), topk_plan(node.flat_params, node.config.nominal_model_bytes)


def chat(pair, prober, time_budget=15.0, entry=pairwise_chat, **protocol):
    return entry(
        *pair,
        distance_fn=lambda t: 50.0,
        start_time=0.0,
        contact_deadline=60.0,
        wireless=WirelessModel(enabled=False),
        channel=ChannelConfig(),
        time_budget=time_budget,
        prober=prober,
        **protocol,
    )


def make_pair(fleet_datasets, **config_overrides):
    pair = (
        make_node("v0", fleet_datasets["v0"], **config_overrides),
        make_node("v1", fleet_datasets["v1"], seed=6, **config_overrides),
    )
    for _ in range(30):
        pair[1].train_step()
    return pair


def assert_same_chat(got, want, pair, oracle_pair):
    assert (got.psi, got.duration, got.i_received_model, got.j_received_model) == (
        want.psi, want.duration, want.i_received_model, want.j_received_model,
    )
    assert got.psi is not None and got.i_received_model
    for node, oracle in zip(pair, oracle_pair):
        assert np.array_equal(node.flat_params, oracle.flat_params)


class TestFallbacks:
    """There is none left to take: a chat fits its maps on a probe bank —
    the trainer's or its own — or, under the §IV-F ablation, fits none."""

    @staticmethod
    def assert_decides_as_the_oracle(fleet_datasets, make_prober):
        pair, oracle_pair = make_pair(fleet_datasets), make_pair(fleet_datasets)
        outcome = chat(pair, make_prober(pair[0].fleet.template))
        assert outcome.psi_probe_builds == 2
        assert_same_chat(outcome, chat(oracle_pair, LoopProber()), pair, oracle_pair)

    def test_default_nodes_take_the_probe_bank(self, fleet_datasets):
        self.assert_decides_as_the_oracle(fleet_datasets, DensePsiProber)

    def test_a_chat_handed_no_prober_builds_its_own(self, fleet_datasets):
        """Outside a trainer (``examples/quickstart.py``, most chat tests)."""
        self.assert_decides_as_the_oracle(fleet_datasets, lambda template: None)

    def test_equal_compression_fits_no_map(self, fleet_datasets, monkeypatch):
        """§IV-F replaces Eq. 7, the maps' only reader: nothing is fitted,
        and the chat is the one that fitted both maps and sent from them."""
        pair, fitted_pair = make_pair(fleet_datasets), make_pair(fleet_datasets)
        prober = DensePsiProber(pair[0].fleet.template)
        # The chat that fits them: the same decision, each leg captured
        # from its sender's probe plan as an Eq. 7 chat's is.
        fitted = chat(fitted_pair, prober, entry=negotiate, equal_compression=True)
        assert [leg.to_i for leg in fitted.legs] == [False, True]
        for leg, sender, receiver in zip(fitted.legs, fitted_pair, fitted_pair[::-1]):
            leg.plan = (prober.build(sender)[1], sender.model_version)
            assert fitted.capture(leg, sender)
            assert fitted.exchange("model", leg.payload.nominal_bytes, fitted.model_deadline)
            fitted.deliver(leg, receiver)
        fitted.commit(*fitted_pair, fitted.now)

        def fitted_a_map(*args, **kwargs):
            raise AssertionError("the ablation fitted a psi map")

        monkeypatch.setattr(DensePsiProber, "build", fitted_a_map)
        monkeypatch.setattr(VehicleNode, "build_psi_map", fitted_a_map)
        outcome = chat(pair, prober, equal_compression=True)
        assert outcome.psi_probe_builds == 0
        assert_same_chat(outcome, fitted.outcome, pair, fitted_pair)
        assert outcome.j_received_model

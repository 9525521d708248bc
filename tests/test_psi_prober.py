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
from repro.core.node import NOMINAL_MODEL_BYTES, NodeConfig, VehicleNode
from repro.core.overlap import DensePsiProber
from repro.core import fleet as fleet_module
from repro.core import node as node_module
from repro.coreset import penalty as penalty_module
from repro.engine.random import spawn_rng
from repro.net import WirelessModel
from repro.nn import make_driving_model
from repro.sim.dataset import DrivingDataset, Frame

from tests.conftest import make_node
from tests.test_compression import EQ7_LATTICE, assert_same_payload, bits, brute_force_order

#: (bev shape, hidden) of the paper's and the city scale's models.
MODEL_SIZES = {"paper": ((4, 20, 20), 96), "city": ((4, 12, 12), 48)}
N_WAYPOINTS = 5
#: ``(LAMBDA_L2, LAMBDA_ENTROPY)``: §III-B's Eq. 6, and the plain weighted loss.
PENALTY, NO_PENALTY = (1e-4, 0.05), (0.0, 0.0)


@pytest.fixture(autouse=True, scope="module")
def fast_learner():
    """Steps large enough that two of them move every parameter."""
    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setattr(fleet_module, "LEARNING_RATE", 1e-2)
        monkeypatch.setattr(node_module, "LEARNING_RATE", 1e-2)
        yield


def set_penalty(monkeypatch, lambdas) -> None:
    monkeypatch.setattr(penalty_module, "LAMBDA_L2", lambdas[0])
    monkeypatch.setattr(penalty_module, "LAMBDA_ENTROPY", lambdas[1])


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


def fleet(seeds, size: str, use_conv: bool) -> FleetEngine:
    """A fleet of node ``n{k}`` on ``synthetic_dataset(seeds[k])`` each."""
    bev_shape, hidden = MODEL_SIZES[size]
    template = make_driving_model(bev_shape, N_WAYPOINTS, hidden, seed=0, use_conv=use_conv)
    config = NodeConfig(coreset_size=12, batch_size=16)
    members = [
        (f"n{k}", synthetic_dataset(seed, bev_shape), spawn_rng(seed, f"n{k}"))
        for k, seed in enumerate(seeds)
    ]
    return FleetEngine(template, members, config)


def trained_node(seed: int, size: str, use_conv: bool, tie_step=0.0):
    """A one-row fleet's node a few reference steps away from the shared
    initialization.

    A positive ``tie_step`` rounds its parameters to that grid afterwards:
    a few dozen distinct magnitudes, many exact zeros of both signs, and
    every level's cut inside a long run of equal ones.
    """
    (node,) = fleet([seed], size, use_conv).nodes
    for _ in range(2):
        node.train_step()
    if tie_step:
        node.replace_model_params(np.round(node.flat_params / tie_step) * np.float32(tie_step))
    return node


@pytest.mark.parametrize("size", sorted(MODEL_SIZES))
@pytest.mark.parametrize("use_conv", [False, True], ids=["mlp", "conv"])
@pytest.mark.parametrize("penalty", [PENALTY, NO_PENALTY], ids=["penalty", "plain"])
class TestProberMatchesOracle:
    @settings(max_examples=4, deadline=None)
    @given(
        seed=st.integers(0, 2**16),
        psi=st.sampled_from([0.05, 0.3, 0.55, 0.95, 1.0]),
        tie_step=st.sampled_from([0.0, 0.02]),
    )
    def test_detached_node(self, size, use_conv, penalty, seed, psi, tie_step):
        with pytest.MonkeyPatch.context() as monkeypatch:
            set_penalty(monkeypatch, penalty)
            self.check_detached_node(size, use_conv, seed, psi, tie_step)

    @staticmethod
    def check_detached_node(size, use_conv, seed, psi, tie_step):
        node = trained_node(seed, size, use_conv, tie_step=tie_step)
        prober = DensePsiProber(node.fleet.template)
        psi_map, plan = prober.build(node)
        # The probe rows, to the bit: +0.0 in every unsent position.
        for row, level in zip(prober.side_banks[0].flat, prober.psis):
            assert np.array_equal(bits(row), bits(decompress(plan.compress(level))))
        oracle = node.build_psi_map()
        assert np.array_equal(psi_map.psis, oracle.psis)
        assert np.array_equal(psi_map.losses, oracle.losses)
        assert_same_payload(plan.compress(psi), node.compress_model(psi))

    def test_bank_attached_nodes(self, size, use_conv, penalty, monkeypatch):
        """The trainer's case: rows of a fleet the engine stepped."""
        set_penalty(monkeypatch, penalty)
        engine = fleet([7, 8], size, use_conv)
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
    node = trained_node(11, "city", False, tie_step=0.02)
    flat = node.flat_params
    assert np.unique(np.abs(flat)).size < 100 and np.signbit(flat[flat == 0]).any()
    prober = DensePsiProber(node.fleet.template)
    _, plan = prober.build(node)
    order = brute_force_order(flat)
    for row, level in zip(prober.side_banks[0].flat, prober.psis):
        kept = order[: topk_for_psi(flat.size, level)]
        want = np.zeros_like(flat)
        want[kept] = flat[kept]
        assert np.array_equal(bits(row), bits(want))
    for psi in EQ7_LATTICE:
        kept = sorted(order[: topk_for_psi(flat.size, psi)])
        assert plan.compress(psi).indices.tolist() == kept
        assert node.compress_model(psi).indices.tolist() == kept


def test_the_probe_bank_is_two_forward_only_halves():
    """Seven levels per chat side in one bank with no gradient array;
    each side builds in its own half and leaves the other alone."""
    engine = fleet([7, 8], "paper", True)
    engine.train_step_all()
    prober = DensePsiProber(engine.template)
    levels, n_params = len(prober.psis), engine.bank.n_params
    assert prober.bank.flat.shape == (2 * levels, n_params)
    assert prober.bank.flat.nbytes == 2 * levels * n_params * 4
    assert prober.bank.grad_flat is None
    for side, half in enumerate(prober.side_banks):
        assert half.grad_flat is None
        assert np.shares_memory(half.flat, prober.bank.flat[side * levels : (side + 1) * levels])
    node_i, node_j = engine.nodes
    map_i, _ = prober.build(node_i, side=0)
    side_0 = prober.side_banks[0].flat.copy()
    map_j, _ = prober.build(node_j, side=1)
    assert np.array_equal(prober.side_banks[0].flat, side_0)
    assert np.array_equal(map_i.losses, node_i.build_psi_map().losses)
    assert np.array_equal(map_j.losses, node_j.build_psi_map().losses)


# -- the prober inside a chat ------------------------------------------------------


class LoopProber:
    """The oracle in the prober's place: the per-level loop's map, and a
    plan ranked from scratch for the payload to reuse."""

    def build(self, node, side=0):
        return node.build_psi_map(), topk_plan(node.flat_params, NOMINAL_MODEL_BYTES)


def chat(pair, prober, time_budget=15.0, entry=pairwise_chat, **protocol):
    return entry(
        *pair,
        distance_fn=lambda t: 50.0,
        start_time=0.0,
        contact_deadline=60.0,
        wireless=WirelessModel(enabled=False),
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

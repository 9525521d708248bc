"""The psi prober against its oracle, in a bank and in a chat.

``DensePsiProber.build`` is the one way a chat fits the Eq. 7 map
phi(psi) -> loss; the per-level clone/compress/decompress/evaluate loop
behind ``VehicleNode.build_psi_map`` is its oracle.  Which entries a
level keeps must match the oracle to the bit (ties and signed zeros
included); the losses, summed over the coreset's lit pixels instead of
all of them, within ``LOSS_RTOL``; the psi = 1 point is the node's own
Eq. 6 loss on its coreset, to the bit; and Eq. 7 must decide the same
on either map.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compression import TopkPlan, decompress, topk_for_psi, topk_plan
from repro.core import overlap as overlap_module
from repro.core.chat import negotiate, pairwise_chat
from repro.core.fleet import FleetEngine
from repro.core.node import NOMINAL_MODEL_BYTES, NodeConfig, VehicleNode
from repro.core.overlap import DensePsiProber, plan_chat
from repro.core.psi import DEFAULT_PSI_GRID, PsiLossMap, optimize_compression
from repro.core import fleet as fleet_module
from repro.core import node as node_module
from repro.coreset import penalty as penalty_module
from repro.coreset.construction import Coreset
from repro.engine.random import spawn_rng
from repro.net import WirelessModel
from repro.nn import make_driving_model
from repro.nn.bank import FleetWaypointNet
from repro.sim.dataset import DrivingDataset, Frame
from repro.telemetry import TelemetrySession

from tests.conftest import make_node
from tests.test_compression import EQ7_LATTICE, assert_same_payload, bits, brute_force_order

#: (bev shape, hidden) of the paper's and the city scale's models.
MODEL_SIZES = {"paper": ((5, 20, 20), 96), "city": ((5, 12, 12), 48)}
N_WAYPOINTS = 5
#: ``(LAMBDA_L2, LAMBDA_ENTROPY)``: §III-B's Eq. 6, and the plain weighted loss.
PENALTY, NO_PENALTY = (1e-4, 0.05), (0.0, 0.0)
#: How far a probe loss may sit from the per-level loop's: the two sum
#: the first layer in different orders (measured: ~2e-9 here, 5.5e-8 on
#: paper-scale runs).
LOSS_RTOL = 1e-6
#: Eq. 7 inputs the decisions are compared over: contact windows (s)
#: and, as fractions of the map's loss range, the receivers' losses.
WINDOWS = (1.0, 3.0, 6.0, 10.0, 20.0, 60.0)
PEER_LOSS_FRACTIONS = np.linspace(-0.2, 1.2, 15)
FAIL = "psi_probe.fallback.non_finite"
#: The levels the probe scores (psi = 1 is stage 3's own loss).
SUB_DENSE = DEFAULT_PSI_GRID[:-1]


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


def build(prober, node, side: int = 0):
    """What stage 3 runs: the node's own Eq. 6 loss, then its probe."""
    return prober.build(node, node.evaluate(node.coreset.data), side=side)


def sub_dense_ks(plan: TopkPlan) -> list[int]:
    return [topk_for_psi(plan.flat.size, psi) for psi in SUB_DENSE]


def assert_same_decisions(got, want):
    """Eq. 7 picks the same (psi_i, psi_j) from ``got`` as from ``want``
    over every window and every pair of receiver losses on a grid across
    the map's range.  The peer's map and its receiver-loss grid are
    offset from the node's, so no two lattice points tie by symmetry (a
    tie that the last bits of either map break at random)."""
    lo, hi = want.losses.min(), want.losses.max()
    peer = PsiLossMap(want.psis, want.losses * 1.013 + 0.0071 * (hi - lo))
    loss_grid = lo + PEER_LOSS_FRACTIONS * (hi - lo)
    for window in WINDOWS:
        for loss_i_on_cj in loss_grid:
            for loss_j_on_ci in loss_grid[::3] + 0.0037 * (hi - lo):
                kwargs = dict(
                    loss_i_on_cj=max(loss_i_on_cj, 0.0),
                    loss_j_on_ci=max(loss_j_on_ci, 0.0),
                    model_size_bytes=NOMINAL_MODEL_BYTES,
                    bandwidth_bps=100e6,
                    time_budget=15.0,
                    contact_duration=window,
                )
                a = optimize_compression(got, peer, **kwargs)
                b = optimize_compression(want, peer, **kwargs)
                assert (a.psi_i, a.psi_j) == (b.psi_i, b.psi_j), (window, kwargs)


def assert_matches_oracle(node, psi_map, plan):
    """The probe's map and plan against the per-level loop, on ``node``
    as it is now."""
    oracle = node.build_psi_map()
    assert np.array_equal(psi_map.psis, oracle.psis)
    np.testing.assert_allclose(psi_map.losses, oracle.losses, rtol=LOSS_RTOL, atol=0)
    # psi = 1 is stage 3's own loss on the own coreset, not a re-run.
    own = np.float64(node.evaluate(node.coreset.data))
    assert psi_map.losses[-1:].tobytes() == own.tobytes()
    assert_same_decisions(psi_map, oracle)
    # Every level keeps what compress/decompress keeps, to the bit.
    rows = overlap_module._level_masker(plan, sub_dense_ks(plan))(lambda row: row)
    for row, level in zip(rows, SUB_DENSE):
        assert np.array_equal(bits(row), bits(decompress(plan.compress(level))))


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
            node = trained_node(seed, size, use_conv, tie_step=tie_step)
            psi_map, plan = build(DensePsiProber(node.fleet.template), node)
            assert_matches_oracle(node, psi_map, plan)
            assert_same_payload(plan.compress(psi), node.compress_model(psi))

    def test_bank_attached_nodes(self, size, use_conv, penalty, monkeypatch):
        """The trainer's case: rows of a fleet the engine stepped."""
        set_penalty(monkeypatch, penalty)
        engine = fleet([7, 8], size, use_conv)
        for _ in range(2):
            engine.train_step_all()
        prober = DensePsiProber(engine.template)
        for side, node in enumerate(engine.nodes):
            psi_map, plan = build(prober, node, side=side)
            assert_matches_oracle(node, psi_map, plan)
            assert_same_payload(plan.compress(0.2), node.compress_model(0.2))


def test_probe_rows_hold_the_brute_force_top_k():
    """The level rows against the rule itself, on parameters built to tie."""
    node = trained_node(11, "city", False, tie_step=0.02)
    flat = node.flat_params
    assert np.unique(np.abs(flat)).size < 100 and np.signbit(flat[flat == 0]).any()
    _, plan = build(DensePsiProber(node.fleet.template), node)
    order = brute_force_order(flat)
    rows = overlap_module._level_masker(plan, sub_dense_ks(plan))(lambda row: row)
    for row, level in zip(rows, SUB_DENSE):
        kept = order[: topk_for_psi(flat.size, level)]
        want = np.zeros_like(flat)
        want[kept] = flat[kept]
        assert np.array_equal(bits(row), bits(want))
    for psi in EQ7_LATTICE:
        kept = sorted(order[: topk_for_psi(flat.size, psi)])
        assert plan.compress(psi).indices.tolist() == kept
        assert node.compress_model(psi).indices.tolist() == kept


def test_a_cut_with_surplus_takes_keeps_rows():
    """Where a cut repeats past rank n - k, the compare alone would keep
    too many: a picked block of a level is ``keep``'s row at those
    positions, whatever block is picked."""
    node = trained_node(5, "paper", False, tie_step=0.02)
    psi_map, plan = build(DensePsiProber(node.fleet.template), node)
    ks = sub_dense_ks(plan)
    _, surplus = plan.cuts(ks)
    assert surplus.any()
    masked = overlap_module._level_masker(plan, ks)
    whole = masked(lambda row: row)
    assert np.array_equal(whole != 0, plan.keep(ks) & (plan.flat != 0))
    rows = np.array([3, 17, 17, 1999, 0])  # first-layer rows, repeats allowed
    first = whole[:, : 2000 * 96].reshape(len(ks), 2000, 96)[:, rows]
    picked = masked(lambda row: row[: 2000 * 96].reshape(2000, 96)[rows])
    assert np.array_equal(bits(picked), bits(first))
    assert np.array_equal(bits(masked(lambda row: row[-500:])), bits(whole[:, -500:]))
    assert_matches_oracle(node, psi_map, plan)


def test_kept_norms_are_the_l2_of_each_level():
    node = trained_node(2, "city", False, tie_step=0.02)
    plan = topk_plan(node.flat_params, NOMINAL_MODEL_BYTES)
    ks = [0, 1, 7, *sub_dense_ks(plan), plan.flat.size]
    rows = plan.keep(ks) * plan.flat.astype(np.float64)
    np.testing.assert_allclose(plan.kept_norms(ks), np.linalg.norm(rows, axis=1), rtol=1e-12)
    assert plan.kept_norms([0]).tolist() == [0.0]


# -- the first layer's operand: lit pixels and constant planes ---------------------


def coreset_frames(rng, n_frames: int, pixels, speeds=None, speed_noise: bool = False):
    """Paper-shaped frames lighting only ``pixels`` (flat indices into the
    four binary channels), each of them in some frame; channel 4 is the
    speed plane, one value per frame (``speeds``), or noise."""
    bevs = np.zeros((n_frames, 5, 400), dtype=np.float32)
    for frame in range(n_frames):
        on = rng.random(len(pixels)) < 0.5 if n_frames > 1 else np.ones(len(pixels), bool)
        on[frame % len(pixels)] = True
        bevs[frame].reshape(-1)[np.asarray(pixels)[on]] = 1.0
    if speed_noise:
        bevs[:, 4] = rng.uniform(0.1, 1.0, size=(n_frames, 400))
    elif speeds is not None:
        bevs[:, 4] = np.asarray(speeds, dtype=np.float32)[:, None]
    return [
        Frame(
            f"c{frame}",
            bevs[frame].reshape(5, 20, 20),
            frame % 4,
            rng.normal(size=2 * N_WAYPOINTS).astype(np.float32),
            float(rng.uniform(0.5, 2.0)),
        )
        for frame in range(n_frames)
    ]


class TestFirstLayerOperand:
    """A call-count gate with no stopwatch: what the first-layer GEMM's
    operand is made of, and that no level builds a full masked row."""

    PIXELS = [5, 90, 391, 400, 612, 799, 800, 1203, 1500, 1599]

    def probe(self, monkeypatch, frames):
        node = trained_node(3, "paper", False)
        node.coreset = Coreset(DrivingDataset(frames))
        own = node.evaluate(node.coreset.data)  # stage 3's, before the counters
        operands, calls = [], {"keep": 0, "full_forward": 0}
        real_operand = overlap_module._first_layer_operand

        def recording(bev):
            operand, lit, planes = real_operand(bev)
            operands.append((operand.shape, lit, planes))
            return operand, lit, planes

        def counting(name, real):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(overlap_module, "_first_layer_operand", recording)
        monkeypatch.setattr(TopkPlan, "keep", counting("keep", TopkPlan.keep))
        monkeypatch.setattr(
            FleetWaypointNet, "forward", counting("full_forward", FleetWaypointNet.forward)
        )
        psi_map, plan = DensePsiProber(node.fleet.template).build(node, own)
        assert len(operands) == 1 and calls == {"keep": 0, "full_forward": 0}
        monkeypatch.undo()
        assert_matches_oracle(node, psi_map, plan)
        return operands[0]

    def test_ten_lit_pixels_and_a_speed_plane_make_k_eleven(self, monkeypatch):
        rng = np.random.default_rng(0)
        frames = coreset_frames(rng, 24, self.PIXELS, speeds=rng.uniform(0.1, 1.0, 24))
        shape, lit, planes = self.probe(monkeypatch, frames)
        assert shape == (24, 11)
        assert lit.tolist() == self.PIXELS and planes.tolist() == [4]

    def test_a_zero_speed_plane_is_no_column(self, monkeypatch):
        rng = np.random.default_rng(1)
        frames = coreset_frames(rng, 24, self.PIXELS, speeds=np.zeros(24))
        shape, lit, planes = self.probe(monkeypatch, frames)
        assert shape == (24, 10) and planes.size == 0

    def test_a_stopped_first_frame_is_still_a_plane(self, monkeypatch):
        rng = np.random.default_rng(2)
        speeds = np.concatenate(([0.0], rng.uniform(0.1, 1.0, 23)))
        shape, _, planes = self.probe(monkeypatch, coreset_frames(rng, 24, self.PIXELS, speeds))
        assert shape == (24, 11) and planes.tolist() == [4]

    def test_no_constant_plane(self, monkeypatch):
        """Speed noise: every pixel of channel 4 is its own column."""
        rng = np.random.default_rng(3)
        frames = coreset_frames(rng, 24, self.PIXELS, speed_noise=True)
        shape, lit, planes = self.probe(monkeypatch, frames)
        assert shape == (24, 410) and planes.size == 0

    def test_constant_on_the_first_frame_only_is_not_a_plane(self, monkeypatch):
        rng = np.random.default_rng(4)
        frames = coreset_frames(rng, 24, self.PIXELS, speed_noise=True)
        frames[0].bev[4] = 0.5
        shape, _, planes = self.probe(monkeypatch, frames)
        assert shape == (24, 410) and planes.size == 0

    def test_a_one_frame_coreset(self, monkeypatch):
        rng = np.random.default_rng(5)
        frames = coreset_frames(rng, 1, self.PIXELS, speeds=[0.7])
        shape, lit, planes = self.probe(monkeypatch, frames)
        assert shape == (1, 11) and planes.tolist() == [4]


def test_the_mlp_probe_allocates_no_bank_and_each_side_builds_alone():
    """No full row of any level exists for the MLP trunk; the conv trunk's
    full rows live in one forward-only bank per side."""
    engine = fleet([7, 8], "paper", False)
    engine.train_step_all()
    prober = DensePsiProber(engine.template)
    assert not hasattr(prober, "_full_rows")
    node_i, node_j = engine.nodes
    map_i, _ = build(prober, node_i, side=0)
    map_j, _ = build(prober, node_j, side=1)
    assert np.array_equal(build(prober, node_i, side=1)[0].losses, map_i.losses)
    conv_fleet = fleet([7], "paper", True)
    conv = DensePsiProber(conv_fleet.template)
    for bank, _ in conv._full_rows:
        assert bank.flat.shape == (len(SUB_DENSE), conv_fleet.bank.n_params)
        assert bank.grad_flat is None


# -- the prober inside a chat ------------------------------------------------------


class LoopProber:
    """The oracle in the prober's place: the per-level loop's map, and a
    plan ranked from scratch for the payload to reuse."""

    def build(self, node, dense_loss, side=0):
        return node.build_psi_map(), topk_plan(node.flat_params, NOMINAL_MODEL_BYTES)


class RecordingProber(DensePsiProber):
    """The trainer's prober, keeping each side's last ``(map, plan)``."""

    def __init__(self, template):
        super().__init__(template)
        self.built = {}

    def build(self, node, dense_loss, side=0):
        self.built[side] = super().build(node, dense_loss, side=side)
        return self.built[side]


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
    """The same decision, sends and models; Eq. 7's objective may differ
    in the last bits, as the maps do."""
    assert (got.psi.psi_i, got.psi.psi_j, got.psi.exchange_time) == (
        want.psi.psi_i, want.psi.psi_j, want.psi.exchange_time,
    )
    assert got.psi.objective == pytest.approx(want.psi.objective, rel=LOSS_RTOL)
    assert (got.duration, got.i_received_model, got.j_received_model) == (
        want.duration, want.i_received_model, want.j_received_model,
    )
    assert got.i_received_model
    for node, oracle in zip(pair, oracle_pair):
        assert np.array_equal(node.flat_params, oracle.flat_params)


class TestFallbacks:
    """There is none left to take: a chat fits its maps on the prober —
    the trainer's or its own — or, under the §IV-F ablation, fits none."""

    @staticmethod
    def assert_decides_as_the_oracle(fleet_datasets, make_prober):
        pair, oracle_pair = make_pair(fleet_datasets), make_pair(fleet_datasets)
        outcome = chat(pair, make_prober(pair[0].fleet.template))
        assert outcome.psi_probe_builds == 2
        assert_same_chat(outcome, chat(oracle_pair, LoopProber()), pair, oracle_pair)

    def test_default_nodes_take_the_probe(self, fleet_datasets):
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
            leg.plan = (build(prober, sender)[1], sender.model_version)
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
        assert outcome.psi == fitted.outcome.psi
        assert (outcome.duration, outcome.i_received_model, outcome.j_received_model) == (
            fitted.outcome.duration, True, True,
        )
        for node, other in zip(pair, fitted_pair):
            assert np.array_equal(node.flat_params, other.flat_params)


class TestDivergedSide:
    """One ``inf`` or ``NaN`` parameter: that side fits no map and sends
    nothing, the chat goes on, and the finite side's map is the one it
    fits beside a healthy peer."""

    # The diverged model's own forwards compute NaN, and numpy says so.
    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan], ids=["inf", "-inf", "nan"])
    @pytest.mark.parametrize("entry", [pairwise_chat, plan_chat], ids=["pairwise", "plan"])
    def test_the_diverged_side_sends_nothing(self, fleet_datasets, bad, entry):
        def run(pair):
            prober = RecordingProber(pair[0].fleet.template)
            with TelemetrySession() as session:
                result = chat(pair, prober, entry=entry)
            outcome = result if entry is pairwise_chat else result.outcome
            return outcome, prober.built, session.registry.counter(FAIL).value

        _, healthy_maps, healthy_fallbacks = run(make_pair(fleet_datasets))
        sick = make_pair(fleet_datasets)
        flat = sick[1].flat_params.copy()
        flat[1234] = bad
        sick[1].replace_model_params(flat)
        outcome, maps, fallbacks = run(sick)
        assert (healthy_fallbacks, fallbacks) == (0, 1)
        assert maps[1][0] is None and healthy_maps[1][0] is not None
        assert outcome.psi_probe_builds == 2
        assert outcome.psi.psi_j == 0.0 and not outcome.i_received_model
        # The finite side fitted the map it fits beside a healthy peer.
        assert maps[0][0].psis.tobytes() == healthy_maps[0][0].psis.tobytes()
        assert maps[0][0].losses.tobytes() == healthy_maps[0][0].losses.tobytes()

    def test_a_non_finite_loss_fits_no_map(self, fleet_datasets):
        """Finite parameters, but a loss that overflowed."""
        node = make_pair(fleet_datasets)[0]
        with TelemetrySession() as session:
            psi_map, plan = DensePsiProber(node.fleet.template).build(node, np.inf)
        assert psi_map is None and plan.flat.size == node.flat_params.size
        assert session.registry.counter(FAIL).value == 1


def test_a_plan_is_not_spent_after_its_row_moved(fleet_datasets):
    """A plan's ``flat`` is the sender's live bank row, so its ranked
    magnitudes go stale when the row moves: a plan from before an Eq. 8
    merge into the sender is dropped, and the payload is cut afresh."""
    pair = make_pair(fleet_datasets)
    receiver, sender = pair
    prober = DensePsiProber(sender.fleet.template)
    planned = chat(pair, prober, entry=negotiate)
    (leg,) = [leg for leg in planned.legs if leg.to_i]  # x_j, the trained model, to i
    plan, version = leg.plan
    assert version == sender.model_version
    assert np.shares_memory(plan.flat, sender.fleet.bank.flat)
    sender.receive_and_aggregate(receiver.compress_model(1.0), receiver.coreset.data)
    assert sender.model_version == version + 1
    assert not np.array_equal(np.abs(plan.flat), plan.magnitude)
    assert planned.capture(leg, sender) and leg.plan is None
    assert_same_payload(leg.payload, sender.compress_model(leg.psi))

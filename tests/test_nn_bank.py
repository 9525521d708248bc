"""Fleet-batched training: parameter banks, batched layers, FleetAdam.

The load-bearing guarantees tested here:

* a fleet is born in one :class:`ParamBank`: the template in every row,
  each node a row and nothing else (a standalone model is a detached
  copy);
* the batched forward/backward matches per-node layers numerically,
  with finite-difference checks on the analytic gradients;
* a fleet trained through :class:`FleetEngine` is *bit-identical* to the
  same fleet's nodes each taking the per-node reference step in
  lock-step, including after a staggered snapshot/restore
  that desynchronizes step counters;
* the fused C Adam kernel, the chunked numpy fallback and per-node
  ``Adam.step`` produce byte-identical parameters and moments, on
  adversarial values and through every entry (lock-step, staggered,
  one row's slice); the kernel's loop really is vectorised; and a kernel
  that cannot be built says so once and changes no result.
"""

import copy
import os
import re
import shutil
import subprocess
import tempfile
import types
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.checkpoint.state import FrameTable
from repro.core.fleet import FleetEngine, FleetIncompatible
from repro.core.node import NodeConfig
from repro.engine.random import spawn_rng
from repro.nn import Adam, FleetAdam, FleetWaypointNet, ParamBank, make_driving_model
from repro.nn import _fused
from repro.nn.bank import FleetLinear
from repro.nn.layers import Module
from repro.nn.params import Parameter, get_flat_params
from repro.sim.dataset import DrivingDataset, Frame

BEV_SHAPE = (2, 4, 4)
N_WAYPOINTS = 3


def make_dataset(seed: int, n_frames: int) -> DrivingDataset:
    rng = np.random.default_rng(seed)
    return DrivingDataset(
        [
            Frame(
                f"s{seed}-{i}",
                rng.normal(size=BEV_SHAPE).astype(np.float32),
                int(rng.integers(0, 4)),
                rng.normal(size=2 * N_WAYPOINTS).astype(np.float32),
                float(rng.uniform(0.5, 2.0)),
            )
            for i in range(n_frames)
        ]
    )


CONFIG = NodeConfig(coreset_size=10, batch_size=8)


def build_fleet(n_nodes: int = 4, step_workers: int | None = 1) -> FleetEngine:
    template = make_driving_model(BEV_SHAPE, N_WAYPOINTS, hidden=12, seed=0)
    members = [
        (f"v{i}", make_dataset(100 + i, 30), spawn_rng(5, f"bank-{i}")) for i in range(n_nodes)
    ]
    return FleetEngine(template, members, CONFIG, step_workers=step_workers)


def bank_of(models: list) -> ParamBank:
    """A bank whose row ``k`` holds ``models[k]``'s parameters."""
    bank = ParamBank(models[0], len(models))
    for row, model in enumerate(models):
        bank.flat[row] = get_flat_params(model)
    return bank


def fleet_params(fleet: FleetEngine) -> np.ndarray:
    return np.concatenate([node.flat_params for node in fleet.nodes])


class TestParamBank:
    def test_birth_writes_the_template_into_every_row(self):
        fleet = build_fleet(n_nodes=3)
        template = get_flat_params(fleet.template)
        for row, node in enumerate(fleet.nodes):
            assert (node.fleet, node.row) == (fleet, row)
            assert np.array_equal(fleet.bank.flat[row], template)
        # The per-layer views are the bank itself.
        fleet.bank.flat[0, 0] = 7.0
        assert fleet.bank.views[0][0].flat[0] == 7.0

    def test_a_vehicle_is_a_bank_row_from_birth(self):
        fleet = build_fleet(n_nodes=2)
        for row, node in enumerate(fleet.nodes):
            assert np.shares_memory(node.flat_params, fleet.bank.flat[row])
            assert not any(hasattr(node, name) for name in ("model", "optimizer", "bind_bank"))
        node, other = fleet.nodes
        detached = node.detached_model()
        assert np.array_equal(get_flat_params(detached), node.flat_params)
        assert not any(np.shares_memory(p.data, fleet.bank.flat) for p in detached.parameters())
        # The reference step moves its own row and Adam row, nothing else.
        before, template = other.flat_params.copy(), get_flat_params(fleet.template)
        node.train_step()
        assert fleet.optim.steps.tolist() == [1, 0]
        assert not np.array_equal(node.flat_params, before)
        assert np.array_equal(other.flat_params, before)
        assert np.array_equal(get_flat_params(fleet.template), template)

    def test_row_view_read_only(self):
        bank = ParamBank(make_driving_model(BEV_SHAPE, N_WAYPOINTS, hidden=8, seed=0), 2)
        view = bank.row_view(0)
        with pytest.raises(ValueError):
            view[0] = 1.0

    def test_a_module_the_bank_cannot_stack_is_refused_at_birth(self):
        class Identity(Module):
            def forward(self, x):
                return x

        template = make_driving_model(BEV_SHAPE, N_WAYPOINTS, hidden=8, seed=0)
        template.trunk.modules.append(Identity())
        with pytest.raises(FleetIncompatible, match="trunk module Identity"):
            FleetEngine(template, [("v0", make_dataset(100, 30), spawn_rng(5, "v0"))], CONFIG)

    def test_a_pickled_fleet_is_its_banks_and_nodes(self):
        """A run's result crosses processes with its nodes' fleet: the
        views and the row shards are taken again on arrival."""
        import pickle

        fleet = build_fleet(n_nodes=3, step_workers=2)
        fleet.train_step_all()
        copied = pickle.loads(pickle.dumps(fleet))
        assert [(s.lo, s.hi) for s in copied.shards] == [(s.lo, s.hi) for s in fleet.shards]
        for shard in copied.shards:
            assert np.shares_memory(shard.model.bank.flat, copied.bank.flat)
            assert np.shares_memory(shard.optim.m, copied.optim.m)
        assert np.array_equal(copied.bank.flat, fleet.bank.flat)
        for node in copied.nodes:
            assert node.fleet is copied
            assert np.shares_memory(node.flat_params, copied.bank.flat)
            assert all(np.shares_memory(view, copied.bank.flat) for view in copied.bank.views)
        validation = make_dataset(99, 20)
        assert np.array_equal(copied.evaluate_fleet(validation), fleet.evaluate_fleet(validation))


class TestFleetForward:
    def test_forward_matches_per_node(self):
        models = [make_driving_model(BEV_SHAPE, N_WAYPOINTS, hidden=8, seed=s) for s in (0, 1, 2)]
        rng = np.random.default_rng(0)
        bev = rng.normal(size=(3, 5, *BEV_SHAPE)).astype(np.float32)
        commands = rng.integers(0, 4, size=(3, 5))
        expected = np.stack(
            [m.forward(bev[i], commands[i]) for i, m in enumerate(models)]
        )
        bank = bank_of(models)
        fleet = FleetWaypointNet(bank, models[0])
        out = fleet.forward(bev, commands)
        assert out.dtype == np.float32
        np.testing.assert_allclose(out, expected, atol=1e-6)

    def test_shared_batch_broadcasts(self):
        models = [make_driving_model(BEV_SHAPE, N_WAYPOINTS, hidden=8, seed=s) for s in (0, 1)]
        rng = np.random.default_rng(1)
        bev = rng.normal(size=(6, *BEV_SHAPE)).astype(np.float32)
        commands = rng.integers(0, 4, size=6)
        expected = np.stack([m.forward(bev, commands) for m in models])
        bank = bank_of(models)
        fleet = FleetWaypointNet(bank, models[0])
        out = fleet.forward(bev, commands)
        np.testing.assert_allclose(out, expected, atol=1e-6)
        # An evaluation keeps nothing a backward would read.
        with pytest.raises(RuntimeError, match="per-node forward"):
            fleet.backward(np.ones_like(out))

    @pytest.mark.parametrize("batch", [1, 2, 7, 64, 150], ids=lambda b: f"batch{b}")
    @pytest.mark.parametrize("size", ["paper", "city"])
    def test_one_row_slice_is_the_per_node_forward_to_the_bit(self, size, batch):
        """Every forward a run executes — a vehicle's cache misses, a
        received model's score, the pilot's batch of one — is a one-row
        slice of a bank, standing in for ``WaypointNet.forward``."""
        bev_shape, hidden = {"paper": ((4, 20, 20), 96), "city": ((4, 12, 12), 48)}[size]
        models = [make_driving_model(bev_shape, 5, hidden, seed=s) for s in (0, 1, 2)]
        bank = bank_of(models)
        net = FleetWaypointNet(bank.slice_rows(1, 2), models[1])
        rng = np.random.default_rng(batch)
        bev = rng.normal(size=(batch, *bev_shape)).astype(np.float32)
        commands = rng.integers(0, 4, size=batch)
        bev.flags.writeable = commands.flags.writeable = False  # a gather from the pool
        got = net.forward(bev, commands)
        assert got.shape == (1, batch, 10)
        assert np.array_equal(got[0].view(np.uint32), models[1].forward(bev, commands).view(np.uint32))


class TestFleetGradients:
    def test_fleet_linear_gradients_match_numeric(self):
        rng = np.random.default_rng(2)
        n, b, i, o = 2, 3, 4, 3
        w = rng.normal(size=(n, i, o)).astype(np.float32)
        bias = rng.normal(size=(n, o)).astype(np.float32)
        layer = FleetLinear(w, bias, np.zeros_like(w), np.zeros_like(bias))
        x = rng.normal(size=(n, b, i)).astype(np.float64)

        def loss():
            out, _ = layer.forward(x.astype(np.float32), False)
            return float(out.sum())

        eps = 1e-3
        for arr, grad_arr in ((w, layer.grad_w), (bias, layer.grad_b), (x, None)):
            loss()  # populate caches
            grad_in = layer.backward(np.ones((n, b, o), dtype=np.float32))
            analytic = grad_in if grad_arr is None else grad_arr
            flat = arr.reshape(-1)
            num = np.zeros(flat.size)
            for k in range(flat.size):
                orig = flat[k]
                flat[k] = orig + eps
                hi = loss()
                flat[k] = orig - eps
                lo = loss()
                flat[k] = orig
                num[k] = (hi - lo) / (2 * eps)
            np.testing.assert_allclose(
                analytic.reshape(-1), num, atol=5e-2, rtol=1e-2
            )

    def test_fleet_net_gradients_match_per_node(self):
        # FD through the full net is unreliable (ReLU kinks), so the
        # batched gradients are checked against the per-node analytic
        # ones, which test_nn_layers.py FD-verifies layer by layer.
        models = [make_driving_model(BEV_SHAPE, N_WAYPOINTS, hidden=6, seed=s) for s in (0, 1)]
        detached = [make_driving_model(BEV_SHAPE, N_WAYPOINTS, hidden=6, seed=s) for s in (0, 1)]
        bank = bank_of(models)
        fleet = FleetWaypointNet(bank, models[0])
        rng = np.random.default_rng(3)
        bev = rng.normal(size=(2, 4, *BEV_SHAPE)).astype(np.float32)
        commands = rng.integers(0, 4, size=(2, 4))
        grad_out = rng.normal(size=(2, 4, 2 * N_WAYPOINTS)).astype(np.float32)
        fleet.forward(bev, commands)
        fleet.backward(grad_out)
        for row, model in enumerate(detached):
            model.forward(bev[row], commands[row])
            model.zero_grad()
            model.backward(grad_out[row])
            expected = np.concatenate(
                [p.grad.reshape(-1) for p in model.parameters()]
            )
            np.testing.assert_allclose(
                bank.grad_flat[row], expected, atol=1e-5
            )

    def test_backward_assigns_not_accumulates(self):
        models = [make_driving_model(BEV_SHAPE, N_WAYPOINTS, hidden=6, seed=s) for s in (0, 1)]
        bank = bank_of(models)
        fleet = FleetWaypointNet(bank, models[0])
        rng = np.random.default_rng(4)
        bev = rng.normal(size=(2, 4, *BEV_SHAPE)).astype(np.float32)
        commands = rng.integers(0, 4, size=(2, 4))
        grad = rng.normal(size=(2, 4, 2 * N_WAYPOINTS)).astype(np.float32)
        fleet.forward(bev, commands)
        fleet.backward(grad)
        first = bank.grad_flat.copy()
        fleet.forward(bev, commands)
        fleet.backward(grad)  # no zero_grad in between
        assert np.array_equal(bank.grad_flat, first)


class TestFleetEngineEquivalence:
    """``batched`` steps through the engine; ``detached``, a second fleet
    born alike, has each node take the per-node reference step."""

    def test_lockstep_bit_identical_to_per_node(self):
        batched, detached = build_fleet(), build_fleet()
        for _ in range(5):
            batched.train_step_all()
        for _ in range(5):
            for node in detached.nodes:
                node.train_step()
        assert np.array_equal(fleet_params(batched), fleet_params(detached))

    def test_losses_match_per_node(self):
        batched, detached = build_fleet(), build_fleet()
        losses = batched.train_step_all()
        expected = [node.train_step() for node in detached.nodes]
        # The scalar reduces as (per_sample * norm).sum() batched vs a
        # dot product per node: same value up to summation order.  The
        # scalar never feeds gradients, so parameters stay bit-equal.
        np.testing.assert_allclose(losses, expected, rtol=1e-6)

    def test_staggered_restore_bit_identical(self):
        # One vehicle resumes from an older snapshot; per-node step
        # counters diverge and FleetAdam must bias-correct row-wise.
        batched, detached = build_fleet(), build_fleet()

        def run(fleet, step_all):
            node = fleet.nodes[1]
            for _ in range(3):
                step_all()
            frames = FrameTable()
            # Kept past two steps, so copied off the live banks.
            snap = copy.deepcopy(
                {**node.snapshot(frames), "optimizer": fleet.optim.node_snapshot(1)}
            )
            for _ in range(2):
                step_all()
            node.restore(snap, FrameTable(frames.state()))
            fleet.optim.node_restore(1, snap["optimizer"])
            for _ in range(3):
                step_all()

        run(batched, batched.train_step_all)
        run(detached, lambda: [node.train_step() for node in detached.nodes])
        assert batched.optim.steps.tolist() == [8, 6, 8, 8]
        assert detached.optim.steps.tolist() == [8, 6, 8, 8]
        assert np.array_equal(fleet_params(batched), fleet_params(detached))

    def test_evaluate_fleet_matches_per_node(self):
        batched, detached = build_fleet(), build_fleet()
        batched.train_step_all()
        for node in detached.nodes:
            node.train_step()
        validation = make_dataset(99, 20)
        values = batched.evaluate_fleet(validation)
        expected = [
            node.evaluate(validation, with_penalty=False) for node in detached.nodes
        ]
        np.testing.assert_allclose(values, expected, atol=1e-7)


class TestFleetAdam:
    def make_bank(self, n_nodes=2):
        models = [make_driving_model(BEV_SHAPE, N_WAYPOINTS, hidden=6, seed=s) for s in range(n_nodes)]
        return bank_of(models)

    def seeded_grads(self, bank, seed):
        rng = np.random.default_rng(seed)
        bank.grad_flat[...] = rng.normal(size=bank.grad_flat.shape).astype(np.float32)

    def test_lockstep_matches_per_node_adam(self):
        model = make_driving_model(BEV_SHAPE, N_WAYPOINTS, hidden=6, seed=0)
        reference = make_driving_model(BEV_SHAPE, N_WAYPOINTS, hidden=6, seed=0)
        bank = bank_of([model, make_driving_model(BEV_SHAPE, N_WAYPOINTS, hidden=6, seed=1)])
        fleet_opt = FleetAdam(bank, lr=1e-3)
        ref_opt = Adam(reference.parameters(), lr=1e-3)
        for step in range(3):
            self.seeded_grads(bank, step)
            offset = 0
            for p in reference.parameters():
                p.grad[...] = (
                    bank.grad_flat[0, offset : offset + p.data.size]
                    .reshape(p.data.shape)
                    .astype(p.grad.dtype)
                )
                offset += p.data.size
            fleet_opt.step()
            ref_opt.step()
        np.testing.assert_allclose(
            bank.flat[0],
            get_flat_params(reference).astype(np.float32),
            atol=1e-7,
        )

    def test_kernel_and_numpy_paths_byte_identical(self, monkeypatch):
        # State carried across steps on a real model's bank; single
        # updates on adversarial values are TestAdamStatementsAgree's.
        _require_kernel()

        def run(disabled: bool):
            if disabled:
                monkeypatch.setenv(_fused._DISABLE_ENV, "1")
            else:
                monkeypatch.delenv(_fused._DISABLE_ENV, raising=False)
            bank = self.make_bank()
            opt = FleetAdam(bank, lr=1e-3)
            for step in range(3):
                self.seeded_grads(bank, step)
                opt.step()
            # Also cover a staggered step.
            opt.steps[1] -= 1
            self.seeded_grads(bank, 99)
            opt.step()
            return bank.flat.tobytes(), opt.m.tobytes(), opt.v.tobytes()

        assert run(disabled=False) == run(disabled=True)

    @pytest.mark.parametrize("path", ["kernel", "numpy"])
    def test_both_paths_finite_on_the_paper_fleet_bank(self, monkeypatch, path):
        # The bench-paper fleet: 32 x 205 288 float32, wider than any
        # chunk or cache the small banks above fit in.
        if path == "numpy":
            monkeypatch.setenv(_fused._DISABLE_ENV, "1")
        else:
            monkeypatch.delenv(_fused._DISABLE_ENV, raising=False)
        status = _fused.kernel_status()
        if status["path"] != path:
            pytest.skip(f"no fused kernel: {status['reason']}")
        bank = ParamBank(make_driving_model((5, 20, 20), 5, hidden=96, seed=0), 32)
        assert bank.flat.shape == (32, 205288)
        self.seeded_grads(bank, 0)
        opt = FleetAdam(bank, lr=1e-4)
        opt.step()
        assert opt.steps.min() > 0 and np.isfinite(bank.flat).all()

    def test_disable_env_forces_fallback(self, monkeypatch):
        monkeypatch.setenv(_fused._DISABLE_ENV, "1")
        assert _fused.fused_adam_step() is None
        status = _fused.kernel_status()
        assert status["path"] == "numpy" and status["so"] is None
        assert _fused._DISABLE_ENV in status["reason"]

    def test_node_restore_rejects_wrong_size(self):
        bank = self.make_bank()
        opt = FleetAdam(bank)
        with pytest.raises(ValueError):
            opt.node_restore(0, {"step": 1, "m": np.zeros(3), "v": np.zeros(3)})


# -- one Adam, three statements of it -----------------------------------------

#: float32 values the update must treat exactly like numpy does: signed
#: zeros, denormals, the normal/denormal boundary, gradients whose square
#: overflows (3e19**2 > float32 max) or underflows, infinities and NaN.
#: NaN comes in its canonical form only: which payload survives
#: ``nan_a + nan_b`` depends on operand order, which neither C nor numpy
#: pins, and with one payload in there is no such pair.
_SPECIALS = [
    0.0, -0.0, 1e-45, -1e-45, 1e-39, 1.1754944e-38, 1e-20, 3e19, -3e19,
    3.4e38, float("inf"), float("-inf"), float("nan"), 1.0, -1.0, 1e-4,
]  # fmt: skip
_ELEMENTS = st.one_of(
    st.sampled_from(_SPECIALS), st.floats(width=32, allow_nan=False)
)

#: How the rows are stepped: all at one step count, all at staggered
#: counts, or row 0 alone through a one-row slice of the optimizer (a
#: step shard's view).
ENTRIES = ("lockstep", "staggered", "row")


def _require_kernel():
    if _fused.fused_adam_step() is None:
        pytest.skip(f"no fused kernel: {_fused.kernel_status()['reason']}")


def _flat_bank(n_rows: int, n_cols: int) -> ParamBank:
    """A bank whose rows are one flat parameter of ``n_cols`` elements."""
    template = types.SimpleNamespace(
        parameters=lambda: [Parameter(np.zeros(n_cols, dtype=np.float32), "w")]
    )
    return ParamBank(template, n_rows)


@np.errstate(all="ignore")  # the values are adversarial on purpose
def _adam_update(path, entry, p, g, m, v):
    """(p, m, v) bytes after one update of ``(n_rows, n_cols)`` state.

    ``path`` picks the statement of the formula: the fused ``kernel``,
    the chunked ``numpy`` fallback, or the per-node ``oracle``
    (:class:`Adam`, one instance per updated row).  ``entry`` is one of
    :data:`ENTRIES`.
    """
    n_rows, n_cols = p.shape
    steps = [4] * n_rows if entry == "lockstep" else [2 + 3 * r for r in range(n_rows)]
    hyper = dict(lr=1e-3)
    if path == "oracle":
        p, m, v = p.copy(), m.copy(), v.copy()
        for row in range(1 if entry == "row" else n_rows):
            param = Parameter(p[row].copy(), "w")
            param.grad[...] = g[row]
            adam = Adam([param], **hyper)
            adam.restore({"step": steps[row], "m": m[row], "v": v[row]})
            adam.step()
            state = adam.snapshot()
            p[row], m[row], v[row] = param.data, state["m"], state["v"]
        return p.tobytes(), m.tobytes(), v.tobytes()
    bank = _flat_bank(n_rows, n_cols)
    bank.flat[...], bank.grad_flat[...] = p, g
    opt = FleetAdam(bank, **hyper)
    opt.m[...], opt.v[...], opt.steps[...] = m, v, steps
    with pytest.MonkeyPatch.context() as patch:
        if path == "numpy":
            patch.setenv(_fused._DISABLE_ENV, "1")
        else:
            patch.delenv(_fused._DISABLE_ENV, raising=False)
        if entry == "row":
            opt.slice_rows(0, 1, bank.slice_rows(0, 1)).step()
        else:
            opt.step()
    assert opt.steps.tolist() == [
        t + (entry != "row" or row == 0) for row, t in enumerate(steps)
    ]
    return bank.flat.tobytes(), opt.m.tobytes(), opt.v.tobytes()


class TestAdamStatementsAgree:
    @settings(max_examples=150, deadline=None)
    @given(
        state=st.tuples(st.integers(1, 3), st.integers(1, 70)).flatmap(
            lambda shape: hnp.arrays(np.float32, (4, *shape), elements=_ELEMENTS)
        ),
        entry=st.sampled_from(ENTRIES),
    )
    def test_byte_identical_on_adversarial_values(self, state, entry):
        # Lengths 1-70 cover the scalar epilogue alone, the 4-wide body
        # with every remainder, and (odd lengths, rows >= 1) rows that
        # start 4- but not 16-byte aligned.
        _require_kernel()
        results = {
            path: _adam_update(path, entry, *state)
            for path in ("kernel", "numpy", "oracle")
        }
        assert results["kernel"] == results["numpy"] == results["oracle"]

    @pytest.mark.parametrize("special_share", [0.0, 0.01])
    @pytest.mark.parametrize("entry", ENTRIES)
    def test_byte_identical_over_a_million_elements(self, entry, special_share):
        # special_share: the fraction of elements swapped for _SPECIALS
        # (0.0: only the values training produces).
        _require_kernel()
        rng = np.random.default_rng(17)
        shape = (4, 3, 350_001)  # odd width: rows 1 and 2 are misaligned
        state = rng.normal(size=shape).astype(np.float32)
        state[3] = np.abs(state[3]) * np.float32(1e-3)  # v as training leaves it
        special = rng.random(shape) < special_share
        state[special] = rng.choice(np.float32(_SPECIALS), size=int(special.sum()))
        results = [
            _adam_update(path, entry, *state)
            for path in ("kernel", "numpy", "oracle")
        ]
        assert results[0] == results[1] == results[2]

    def test_row_entry_leaves_other_rows_alone(self):
        rng = np.random.default_rng(3)
        state = rng.normal(size=(4, 3, 33)).astype(np.float32)
        state[3] = np.abs(state[3])
        p, m, v = (
            np.frombuffer(b, dtype=np.float32).reshape(3, 33)
            for b in _adam_update("kernel", "row", *state)
        )
        for after, before in ((p, state[0]), (m, state[2]), (v, state[3])):
            assert not np.array_equal(after[0], before[0])
            assert after[1:].tobytes() == before[1:].tobytes()


# -- the kernel build: flags, cache key, failure ------------------------------

needs_cc = pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler")


def _vectorised_remarks(extra_flags: list[str]) -> list[str]:
    """The compiler's "vectorised" remarks for the ``adam_row`` loop."""
    version = subprocess.run(
        ["cc", "--version"], capture_output=True, text=True
    ).stdout.lower()
    if "clang" in version:
        remark_flag, said = "-Rpass=loop-vectorize", "vectorized loop"
    elif "gcc" in version or "free software foundation" in version:
        remark_flag, said = "-fopt-info-vec-optimized", "loop vectorized"
    else:
        pytest.skip(f"no vectorisation remark flag known for: {version[:60]!r}")
    lines = _fused._SOURCE.splitlines()
    (loop_line,) = [
        k + 1 for k, line in enumerate(lines) if "for (i = 0; i < n; ++i)" in line
    ]
    with tempfile.TemporaryDirectory() as build:
        (src := Path(build) / "adam.c").write_text(_fused._SOURCE)
        done = subprocess.run(
            ["cc", *_fused._CFLAGS, *extra_flags, remark_flag, str(src),
             "-o", str(src.with_suffix(".so")), "-lm"],
            capture_output=True, text=True, check=True,
        )  # fmt: skip
    return [
        line
        for line in (done.stdout + done.stderr).splitlines()
        if re.search(rf"adam\.c:{loop_line}:\d+:", line) and said in line
    ]


@needs_cc
def test_production_flags_vectorise_the_update_loop():
    assert len(_vectorised_remarks([])) >= 1
    # The check can fail: the same source, vectoriser off, reports nothing.
    assert _vectorised_remarks(["-fno-tree-vectorize"]) == []


def test_cache_key_follows_the_flags(monkeypatch):
    key = _fused._source_key()
    monkeypatch.setattr(
        _fused, "_CFLAGS", ["-O2", "-ffp-contract=off", "-shared", "-fPIC"]
    )
    assert _fused._source_key() != key  # a stale -O2 artifact is another file


@needs_cc
def test_loaded_artifact_is_the_one_keyed_by_source_and_flags(tmp_path, monkeypatch):
    stale = tmp_path / "adam-0123456789abcdef.so"
    stale.write_bytes(b"not this one")
    monkeypatch.setenv(_fused._CACHE_DIR_ENV, str(tmp_path))
    monkeypatch.delenv(_fused._DISABLE_ENV, raising=False)
    monkeypatch.setattr(_fused, "_resolved", None)
    status = _fused.kernel_status()
    assert status["path"] == "kernel"
    assert status["so"] == f"adam-{_fused._source_key()}.so" != stale.name
    assert status["flags"] == " ".join(_fused._CFLAGS)
    assert "-O3" in status["flags"] and "-ffp-contract=off" in status["flags"]


@needs_cc
def test_unwritable_cache_builds_once_and_leaves_no_directory(tmp_path, monkeypatch):
    (blocker := tmp_path / "blocker").write_text("a file where the cache dir goes")
    (scratch := tmp_path / "tmp").mkdir()
    monkeypatch.setenv(_fused._CACHE_DIR_ENV, str(blocker / "kernels"))
    monkeypatch.delenv(_fused._DISABLE_ENV, raising=False)
    monkeypatch.setattr(tempfile, "tempdir", str(scratch))
    monkeypatch.setattr(_fused, "_resolved", None)
    status = _fused.kernel_status()
    assert status["path"] == "kernel" and "uncached" in status["so"]
    assert list(scratch.iterdir()) == []
    state = np.random.default_rng(5).normal(size=(4, 2, 9)).astype(np.float32)
    assert _adam_update("kernel", "staggered", *state) == _adam_update(
        "oracle", "staggered", *state
    )


def test_failing_compiler_warns_once_and_falls_back(tmp_path, monkeypatch):
    (bin_dir := tmp_path / "bin").mkdir()
    (cache := tmp_path / "cache").mkdir()
    fake_cc = bin_dir / "cc"
    fake_cc.write_text("#!/bin/sh\necho 'adam.c:1: error: boom from cc' >&2\nexit 1\n")
    fake_cc.chmod(0o755)
    monkeypatch.setenv("PATH", f"{bin_dir}:{os.environ['PATH']}")
    monkeypatch.setenv(_fused._CACHE_DIR_ENV, str(cache))
    monkeypatch.delenv(_fused._DISABLE_ENV, raising=False)
    monkeypatch.setattr(_fused, "_resolved", None)
    state = np.random.default_rng(6).normal(size=(4, 3, 21)).astype(np.float32)

    with pytest.warns(RuntimeWarning, match="boom from cc") as caught:
        first = _adam_update("kernel", "lockstep", *state)
    assert len(caught) == 1
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the failure is cached: no second warning
        second = _adam_update("kernel", "staggered", *state)
        status = _fused.kernel_status()
    assert status["path"] == "numpy" and status["so"] is None
    assert "cc exited 1" in status["reason"] and "boom from cc" in status["reason"]
    assert first == _adam_update("oracle", "lockstep", *state)
    assert second == _adam_update("oracle", "staggered", *state)
    assert [p.name for p in cache.iterdir()] == []  # no .so, .c or .lock left

"""A chat's stage 3 on two threads: each side's cross-evaluations and psi
probe run concurrently, and nothing a chat decides can tell.

``negotiate`` runs side 1 (vehicle j's two coreset evaluations and its
``DensePsiProber.build``) on a thread beside side 0 when the chat's work
reaches ``THREADED_SIDES_MIN_WORK`` and more than one core is usable,
and both sides on the caller otherwise.  Both paths do the same float
ops on the same operands, so outcomes, psi maps, payload plans, loss
caches and run digests are bit-identical; these tests force each path
(the floor at 0, or never reached) and compare.  Plus the fault case (a
raising side surfaces, no thread outlives the chat), the one telemetry
call a side thread reaches (``loss_cache.resets``), and the one-core
fallback.
"""

from __future__ import annotations

import math
import sys
import threading

import pytest

from repro.core import chat as chat_module
from repro.core.chat import negotiate
from repro.core.fleet import FleetEngine
from repro.core.node import NodeConfig
from repro.core.overlap import DensePsiProber
from repro.engine.random import spawn_rng
from repro.net import WirelessModel
from repro.nn import make_driving_model
from repro.parallel import stepshard
from repro.sim.dataset import DrivingDataset
from repro.telemetry import TelemetrySession
from repro.telemetry import hooks as telemetry

from tests.conftest import MODEL_SHAPE, N_WAYPOINTS


class Paths:
    """Forces stage 3 down one path and counts the chats that threaded."""

    def __init__(self, monkeypatch, threaded: bool):
        self.threaded = threaded
        self.threaded_chats = 0
        real_run_shards = chat_module.run_shards

        def counting(items, work):
            self.threaded_chats += 1
            return real_run_shards(items, work)

        monkeypatch.setattr(chat_module, "run_shards", counting)
        monkeypatch.setattr(
            chat_module, "THREADED_SIDES_MIN_WORK", 0 if threaded else math.inf
        )
        if threaded:  # a one-core host still takes the threaded path
            monkeypatch.setattr(chat_module, "default_step_shards", lambda: 2)


@pytest.fixture(params=["threaded", "serial"])
def paths(request, monkeypatch) -> Paths:
    return Paths(monkeypatch, request.param == "threaded")


def one_fleet_pair(fleet_datasets, seed: int = 5):
    """Two rows of one fleet over one frame pool, the second trained
    ahead — the trainer's case: each side caches losses of the peer's
    coreset frames, and both build one-row nets off one ``_row_banks``."""
    frames = fleet_datasets["v0"].frames() + fleet_datasets["v1"].frames()
    whole = DrivingDataset(frames)
    n0 = len(fleet_datasets["v0"])
    members = [
        ("v0", whole.subset(range(n0)), spawn_rng(seed, "v0")),
        ("v1", whole.subset(range(n0, len(whole))), spawn_rng(seed, "v1")),
    ]
    template = make_driving_model(MODEL_SHAPE, N_WAYPOINTS, hidden=32, seed=0)
    config = NodeConfig(coreset_size=12, loss_cache_budget=40)
    fleet = FleetEngine(template, members, config)
    for _ in range(3):
        fleet.train_step_all()
    for _ in range(30):
        fleet.nodes[1].train_step()
    return fleet.nodes


class RecordingProber(DensePsiProber):
    """The trainer's prober, keeping each side's last ``(map, plan)``."""

    def __init__(self, template):
        super().__init__(template)
        self.built = {}

    def build(self, node, dense_loss, side=0):
        self.built[side] = super().build(node, dense_loss, side=side)
        return self.built[side]


def run_negotiate(pair, prober, **protocol):
    return negotiate(
        *pair,
        distance_fn=lambda t: 50.0,
        start_time=0.0,
        contact_deadline=60.0,
        wireless=WirelessModel(enabled=False),
        time_budget=15.0,
        prober=prober,
        **protocol,
    )


def chat_state(chat, prober, pair):
    """Everything stage 3 decides or leaves behind, as comparable values."""

    def plan_state(plan):
        fields = ("flat", "magnitude", "ranked")
        return plan.nominal_size_bytes, *(getattr(plan, name).tobytes() for name in fields)

    state = {"outcome": chat.outcome}
    state["legs"] = [
        (leg.to_i, leg.psi, leg.plan[1], plan_state(leg.plan[0])) for leg in chat.legs
    ]
    for side, (psi_map, plan) in sorted(prober.built.items()):
        state[f"map_{side}"] = (psi_map.psis.tobytes(), psi_map.losses.tobytes())
        state[f"plan_{side}"] = plan_state(plan)
    for node in pair:
        node._cache()  # empties a stale version's entries first
        state[f"cache_{node.node_id}"] = (
            node._cache_version,
            node._cache_rows.tobytes(),
            node._cache_values.tobytes(),
        )
    return state


class TestBothPathsBitIdentical:
    def test_negotiate_on_one_pair(self, fleet_datasets, monkeypatch):
        states = {}
        for threaded in (True, False):
            with monkeypatch.context() as patch:
                paths = Paths(patch, threaded)
                pair = one_fleet_pair(fleet_datasets)
                prober = RecordingProber(pair[0].fleet.template)
                chat = run_negotiate(pair, prober)
                assert paths.threaded_chats == threaded
                assert chat.outcome.psi is not None and chat.legs
                assert sorted(prober.built) == [0, 1]
                assert all(node.loss_cache_size > 0 for node in pair)
                states[threaded] = chat_state(chat, prober, pair)
        assert states[True] == states[False]

    def test_equal_compression_fits_no_map_on_either_path(self, fleet_datasets, paths):
        pair = one_fleet_pair(fleet_datasets)
        prober = RecordingProber(pair[0].fleet.template)
        chat = run_negotiate(pair, prober, equal_compression=True)
        assert prober.built == {} and chat.outcome.psi_probe_builds == 0
        assert [leg.plan for leg in chat.legs] == [None, None]
        assert paths.threaded_chats == paths.threaded

    @pytest.mark.parametrize("row", ["hotpath.LbChat", "overlap.on"])
    def test_runs_digest_like_their_goldens(self, row, paths):
        from repro import selfcheck

        run = selfcheck.Runner().check(row)
        assert run.failures == []
        assert (paths.threaded_chats > 0) == paths.threaded

    def test_one_usable_core_takes_the_serial_path(self, fleet_datasets, monkeypatch):
        paths = Paths(monkeypatch, threaded=False)
        monkeypatch.setattr(chat_module, "THREADED_SIDES_MIN_WORK", 0)
        monkeypatch.setattr(stepshard, "usable_cores", lambda: 1)
        assert stepshard.default_step_shards() == 1
        pair = one_fleet_pair(fleet_datasets)
        chat = run_negotiate(pair, DensePsiProber(pair[0].fleet.template))
        assert chat.outcome.psi_probe_builds == 2
        assert paths.threaded_chats == 0


class TestFaults:
    @pytest.mark.parametrize("failing", [0, 1], ids=["calling-thread", "side-thread"])
    def test_a_raising_side_surfaces_and_no_thread_outlives_the_chat(
        self, fleet_datasets, monkeypatch, failing
    ):
        paths = Paths(monkeypatch, threaded=True)
        pair = one_fleet_pair(fleet_datasets)
        threads = threading.active_count()

        class SideFailure(RuntimeError):
            pass

        class FailingProber(DensePsiProber):
            def build(self, node, dense_loss, side=0):
                if side == failing:
                    raise SideFailure(f"side {side}")
                return super().build(node, dense_loss, side=side)

        with pytest.raises(SideFailure, match=f"side {failing}"):
            run_negotiate(pair, FailingProber(pair[0].fleet.template))
        assert paths.threaded_chats == 1
        assert threading.active_count() == threads


class TestThreadSafeCounting:
    def test_count_from_many_threads_loses_nothing(self):
        """Four threads count the same 3000 fresh names at once: without
        the lock two of them can both create a counter on first use and
        one increment is lost (several per run, measured)."""
        start = threading.Barrier(4, timeout=60)

        def work():
            start.wait()
            for k in range(3000):
                telemetry.count(f"c{k}")

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads as often as possible
        try:
            with TelemetrySession() as session:
                workers = [threading.Thread(target=work) for _ in range(4)]
                for worker in workers:
                    worker.start()
                for worker in workers:
                    worker.join(timeout=60)
        finally:
            sys.setswitchinterval(previous)
        assert not any(worker.is_alive() for worker in workers)
        values = [session.registry.counter(f"c{k}").value for k in range(3000)]
        assert values == [4.0] * 3000

    def test_city_world_counts_the_same_resets_on_either_path(self, monkeypatch):
        """``selfcheck-city`` runs with a 64-entry loss-cache budget, so
        side threads reset caches and count it."""
        from repro import selfcheck

        runs = {}
        for threaded in (True, False):
            with monkeypatch.context() as patch:
                paths = Paths(patch, threaded)
                runs[threaded] = selfcheck.Runner().check("city.LbChat")
                assert (paths.threaded_chats > 0) == threaded
        resets = {
            threaded: run.session.registry.counter("loss_cache.resets").value
            for threaded, run in runs.items()
        }
        assert resets[True] == resets[False] > 0
        assert runs[True].digests == runs[False].digests
        assert runs[True].failures == runs[False].failures == []

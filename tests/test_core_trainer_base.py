"""Direct unit tests for TrainerBase scheduling helpers."""

from dataclasses import replace

import numpy as np
import pytest

from repro.core.trainer_base import PAIR_COOLDOWN, RoundTrainer, TrainerBase, TrainerConfig
from repro.engine import Simulator
from repro.experiments.runner import METHOD_NAMES, RunSpec, build_context, prepare_trainer
from repro.sim.dataset import DrivingDataset
from tests.conftest import make_fleet
from tests.test_checkpoint_resume import TINY


@pytest.fixture()
def base(fleet_datasets, traces):
    validation = DrivingDataset(
        [fleet_datasets["v0"].frame(i) for i in range(0, 30, 6)]
    )
    nodes = make_fleet(fleet_datasets, coreset_size=8, seed=7)
    config = TrainerConfig(duration=50.0, train_interval=5.0, seed=1)
    return TrainerBase(nodes, traces, validation, config)


class TestBusyAccounting:
    def test_initially_idle(self, base):
        assert all(base.is_idle(i) for i in range(len(base.nodes)))

    def test_occupy_marks_busy(self, base):
        base.occupy(0, 10.0)
        assert not base.is_idle(0)
        assert base.is_idle(1)

    def test_occupy_extends_not_shortens(self, base):
        base.occupy(0, 10.0)
        base.occupy(0, 2.0)
        assert base.busy_until[0] == 10.0

    def test_busy_expires_with_clock(self, base):
        base.occupy(0, 5.0)
        base.sim.run(until=6.0)
        assert base.is_idle(0)


class TestPairCooldown:
    def test_fresh_pair_ready(self, base):
        assert base.pair_ready(0, 1)

    def test_cooldown_blocks_and_expires(self, base):
        base.note_chat(0, 1)
        assert not base.pair_ready(0, 1)
        assert not base.pair_ready(1, 0)  # symmetric
        base.sim.run(until=PAIR_COOLDOWN + 1.0)
        assert base.pair_ready(0, 1)

    def test_other_pairs_unaffected(self, base):
        base.note_chat(0, 1)
        assert base.pair_ready(0, 2)


class TestNeighborQueries:
    def test_busy_vehicles_excluded(self, base):
        all_neighbors = base.idle_neighbors(0)
        if not all_neighbors:
            pytest.skip("no neighbors in range at t=0")
        victim = all_neighbors[0]
        base.occupy(victim, 100.0)
        assert victim not in base.idle_neighbors(0)

    def test_cooldown_excluded(self, base):
        neighbors = base.idle_neighbors(0)
        if not neighbors:
            pytest.skip("no neighbors in range at t=0")
        base.note_chat(0, neighbors[0])
        assert neighbors[0] not in base.idle_neighbors(0)


class TestContactEstimate:
    def test_estimate_fields(self, base):
        estimate = base.contact_estimate(0, 1, exchange_bytes=1e6)
        assert estimate.contact_duration >= 0.0
        assert 0.0 <= estimate.p <= 1.0
        assert 0.0 <= estimate.z <= 1.0

    def test_candidate_set_is_the_pairs(self, base):
        """One slice of the traces for all candidates, at several instants,
        the trace's last sample (a one-sample route) included."""
        candidates = [j for j in range(len(base.nodes)) if j != 0]
        exchange_bytes = [1e5 * (n + 1) for n in range(len(candidates))]
        for now in (0.0, 33.0, float(base.traces.times[-1])):
            base.sim._now = now
            assert base.contact_estimates(0, candidates, exchange_bytes) == [
                base.contact_estimate(0, j, b) for j, b in zip(candidates, exchange_bytes)
            ]
        assert base.contact_estimates(0, [], []) == []

    def test_pair_distance_fn_matches_traces(self, base):
        fn = base.pair_distance_fn(0, 1)
        assert fn(10.0) == base.traces.distance(0, 1, 10.0)


class TestRecording:
    def test_record_losses_covers_fleet(self, base):
        base.record_losses()
        assert len(base.loss_curve.keys()) == len(base.nodes)

    def test_run_records_and_finishes(self, base):
        base.run()
        assert base.sim.now == pytest.approx(base.config.duration)
        times, _ = base.loss_curve.series(base.nodes[0].node_id)
        assert times[-1] == pytest.approx(base.config.duration)
        assert base.counters.get("train_steps") > 0


class TestOneClock:
    """One process trains the fleet: at each train instant the bank
    steps once, then each due, idle vehicle scans, in row order."""

    def test_scans_see_the_instants_step_and_come_in_row_order(self, base):
        seen = []
        base.on_scan = lambda i: seen.append((base.sim.now, i, base.fleet.step_events))
        base.run()
        n = len(base.nodes)
        instants = sorted({when for when, _, _ in seen})
        assert len(instants) == 10  # 50 s, a train instant and a scan every 5 s
        for k, now in enumerate(instants):
            scans = [(i, events) for when, i, events in seen if when == now]
            assert [i for i, _ in scans] == list(range(n))
            assert all(events == n * (k + 1) for _, events in scans)

    @pytest.fixture(scope="class")
    def contexts(self):
        return {
            n: build_context(
                replace(TINY, name=f"one-clock-{n}", world=replace(TINY.world, n_vehicles=n))
            )
            for n in (3, 6)
        }

    @pytest.mark.parametrize("method", METHOD_NAMES)
    def test_process_count_does_not_depend_on_fleet_size(self, contexts, method, monkeypatch):
        started = []
        start = Simulator.process

        def counted(sim, gen):
            started.append(gen)
            start(sim, gen)

        monkeypatch.setattr(Simulator, "process", counted)
        counts = {}
        for n, context in contexts.items():
            started.clear()
            nodes, trainer = prepare_trainer(context, RunSpec.for_context(context, method, seed=2))
            assert len(nodes) == n
            trainer.run()
            counts[n] = len(started)
        # The fleet and the recorder, and a round clock where there is one.
        assert counts[3] == counts[6] == (3 if isinstance(trainer, RoundTrainer) else 2)

"""Tests for LbChat's partner selection (Eq. 5, its fallback, the random ablation)."""

import numpy as np
import pytest

from repro.core.lbchat import LbChatConfig, LbChatTrainer
from repro.core.selection import select_priority, select_random
from repro.sim.dataset import DrivingDataset
from repro.sim.traces import MobilityTraces
from tests.conftest import make_fleet


@pytest.fixture()
def trainer(fleet_datasets, traces):
    nodes = make_fleet(fleet_datasets, coreset_size=8, seed=15)
    validation = DrivingDataset(
        [fleet_datasets["v0"].frame(i) for i in range(0, 30, 6)]
    )
    return LbChatTrainer(
        nodes,
        traces,
        validation,
        LbChatConfig(duration=200.0, train_interval=4.0, seed=1),
    )


POLICIES = (select_priority, select_random)


class TestPolicies:
    def test_all_return_none_for_no_candidates(self, trainer):
        for policy in POLICIES:
            assert policy(trainer, 0, []) is None

    def test_all_return_member_of_candidates(self, trainer):
        candidates = [1, 2, 3]
        for policy in POLICIES:
            choice = policy(trainer, 0, candidates)
            if policy is select_priority and choice is None:
                continue  # Eq. 5 may reject all (everyone unreachable)
            assert choice in candidates, policy.__name__

    def test_zero_score_fallback_picks_the_longest_contact(self, trainer, monkeypatch):
        # No contact fits an absurdly large model, so every Eq. 5 score
        # is zero: the choice is whichever candidate's predicted contact
        # is longest.
        from repro.core import chat
        from repro.core.selection import ANTICIPATED_PSI_TOTAL
        from repro.net.contact import priority_score

        monkeypatch.setattr(chat, "NOMINAL_MODEL_BYTES", 10**14)
        candidates = [1, 2, 3]
        exchange = [trainer.estimate_chat_bytes(0, j, ANTICIPATED_PSI_TOTAL) for j in candidates]
        estimates = trainer.contact_estimates(0, candidates, exchange)
        assert [priority_score(estimate) for estimate in estimates] == [0.0] * 3
        durations = {j: trainer.contact_estimate(0, j, 1.0).contact_duration for j in candidates}
        assert max(durations.values()) > 0, "fixture must provide a reachable peer"
        choice = select_priority(trainer, 0, candidates)
        assert durations[choice] == max(durations.values())

    def test_random_uses_node_rng(self, trainer):
        choices = {select_random(trainer, 0, [1, 2, 3, 4, 5]) for _ in range(30)}
        assert len(choices) > 1

    def test_priority_returns_none_when_all_scores_zero(self, trainer):
        # Vehicle 0 vs peers far out of range: z = p = 0 for all, and no
        # contact is predicted at all -> the intentional skip (chatting
        # with an unreachable peer would abort at the assist stage).
        far = trainer.traces.positions.copy()
        trainer.traces.positions[:, 1:, :] += 1e6
        try:
            assert select_priority(trainer, 0, [1, 2]) is None
        finally:
            trainer.traces.positions[:] = far

    def test_priority_falls_back_when_scores_zero_but_contact_exists(
        self, fleet_datasets, monkeypatch
    ):
        """Regression: Eq. 5 scores all-zero (z truncates because no
        contact fits the anticipated exchange) used to return None and
        idle the vehicle even though reachable neighbors existed; now it
        falls back to the longest reachable contact."""
        # An absurdly large nominal model makes every exchange infeasible
        # within any contact window -> z = 0 -> score = 0 for everyone.
        from repro.core import chat

        monkeypatch.setattr(chat, "NOMINAL_MODEL_BYTES", 10**14)
        nodes = make_fleet(fleet_datasets, coreset_size=8, seed=15)
        # A convoy: all four vehicles drive together 100 m apart, so every
        # pair stays in radio range for the whole trace.
        times = np.arange(0.0, 300.0, 5.0)
        positions = np.zeros((len(times), len(nodes), 2))
        for j in range(len(nodes)):
            positions[:, j, 0] = times * 10.0
            positions[:, j, 1] = 100.0 * j
        traces = MobilityTraces(
            [n.node_id for n in nodes], times, positions
        )
        validation = DrivingDataset(
            [fleet_datasets["v0"].frame(i) for i in range(0, 30, 6)]
        )
        trainer = LbChatTrainer(
            nodes,
            traces,
            validation,
            LbChatConfig(duration=200.0, train_interval=4.0, seed=1),
        )
        candidates = [1, 2, 3]
        reachable = [
            j
            for j in candidates
            if trainer.contact_estimate(0, j, 1.0).contact_duration > 0
        ]
        assert reachable, "fixture must provide at least one reachable peer"
        choice = select_priority(trainer, 0, candidates)
        assert choice in reachable
        durations = {j: trainer.contact_estimate(0, j, 1.0).contact_duration for j in reachable}
        assert durations[choice] == max(durations.values())

    def test_fallback_reads_the_durations_it_already_has(self):
        """Every Eq. 5 score zero: the pick is the first-longest reachable
        candidate, from the one batch of estimates ``select_priority``
        already took — it used to estimate every reachable one again."""
        from repro.net.contact import ContactEstimate

        durations = {1: 0.0, 2: 12.5, 3: 30.0, 4: 30.0, 5: 7.0}

        class CountingTrainer:
            batches, singles = [], 0

            def estimate_chat_bytes(self, i, j, psi_total):
                return 1e9

            def contact_estimates(self, i, candidates, exchange_bytes):
                self.batches.append(list(candidates))
                return [ContactEstimate(durations[j], 0.0, 0.5, 0.5) for j in candidates]

            def contact_estimate(self, i, j, exchange_bytes):
                self.singles += 1
                return ContactEstimate(durations[j], 0.0, 0.5, 0.5)

        trainer = CountingTrainer()
        assert select_priority(trainer, 0, [1, 2, 3, 4, 5]) == 3  # first of the tie
        assert trainer.batches == [[1, 2, 3, 4, 5]] and trainer.singles == 0
        assert select_priority(trainer, 0, [1]) is None  # nobody reachable

    @pytest.mark.parametrize("prioritize", [True, False], ids=["eq5", "random"])
    def test_prioritize_neighbors_is_the_only_switch(self, trainer, monkeypatch, prioritize):
        """Every scan that finds candidates goes to Eq. 5 by default and to
        the random rule under ``ablation_no_priority``'s setting — never
        to the other one."""
        from repro.core import lbchat

        calls = {"select_priority": 0, "select_random": 0, "scans": 0}

        def counted(fn):
            def wrapper(*args):
                calls[fn.__name__] += 1
                return fn(*args)

            return wrapper

        idle_neighbors = trainer.idle_neighbors

        def scan(i):
            found = idle_neighbors(i)
            calls["scans"] += bool(found)
            return found

        monkeypatch.setattr(lbchat, "select_priority", counted(select_priority))
        monkeypatch.setattr(lbchat, "select_random", counted(select_random))
        monkeypatch.setattr(trainer, "idle_neighbors", scan)
        trainer.config.prioritize_neighbors = prioritize
        trainer.config.duration = 60.0
        trainer.run()
        used, unused = "select_priority", "select_random"
        if not prioritize:
            used, unused = unused, used
        assert calls[used] == calls["scans"] > 0
        assert calls[unused] == 0

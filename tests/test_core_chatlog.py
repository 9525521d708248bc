"""Tests for structured chat logging."""

import pytest

from repro.core.chat import ChatOutcome
from repro.core.chatlog import ChatLog, ChatRecord
from repro.core.psi import PsiDecision


def make_record(psi_i=1.0, psi_j=0.0, aborted="", coresets=True, time=5.0, pair=("v0", "v1")):
    outcome = ChatOutcome(
        duration=10.0,
        coresets_exchanged=coresets,
        i_received_model=psi_j > 0,
        j_received_model=psi_i > 0,
        psi=PsiDecision(psi_i, psi_j, 1.0, 12.0) if not aborted else None,
        absorbed_by_i=8,
        absorbed_by_j=8,
        aborted=aborted,
    )
    return ChatRecord.from_outcome(time, *pair, outcome)


class TestChatRecord:
    def test_from_outcome_flattens(self):
        record = make_record(psi_i=0.8, psi_j=0.2)
        assert record.psi_i == 0.8
        assert record.psi_j == 0.2
        assert record.absorbed == 16
        assert record.initiator == "v0"

    def test_aborted_outcome_zero_psi(self):
        record = make_record(aborted="coresets", coresets=False)
        assert record.psi_i == 0.0 and record.psi_j == 0.0
        assert record.aborted == "coresets"


class TestChatLog:
    def test_append_and_len(self):
        log = ChatLog()
        log.append(make_record())
        assert len(log) == 1

    def test_mean_psi(self):
        log = ChatLog()
        log.append(make_record(psi_i=1.0, psi_j=0.0))
        log.append(make_record(psi_i=0.5, psi_j=0.5))
        assert log.mean_psi() == pytest.approx((1.0 + 0.0 + 0.5 + 0.5) / 4)

    def test_mean_psi_empty(self):
        assert ChatLog().mean_psi() == 0.0

    def test_one_sided_fraction(self):
        log = ChatLog()
        log.append(make_record(psi_i=1.0, psi_j=0.0))  # one-sided
        log.append(make_record(psi_i=0.5, psi_j=0.5))  # mutual
        log.append(make_record(psi_i=0.0, psi_j=0.0))  # nothing sent
        assert log.one_sided_fraction() == pytest.approx(1 / 3)

    def test_one_sided_fraction_counts_completed_chats_only(self):
        """Aborted chats and chats whose coresets never crossed are not
        in the denominator; a psi of 0.01 or less is "not sent"."""
        log = ChatLog()
        log.append(make_record(psi_i=0.3, psi_j=0.01))  # one-sided
        log.append(make_record(psi_i=0.02, psi_j=0.9))  # mutual
        log.append(make_record(aborted="assess", coresets=False))
        log.append(make_record(psi_i=1.0, psi_j=0.0, coresets=False))
        assert log.one_sided_fraction() == 0.5
        assert ChatLog().one_sided_fraction() == 0.0
        # Every record's two directions, aborted ones as (0, 0).
        assert log.mean_psi() == pytest.approx((0.3 + 0.01 + 0.02 + 0.9 + 1.0) / 8)

    def test_abort_counts(self):
        log = ChatLog()
        log.append(make_record(aborted="assist", coresets=False))
        log.append(make_record(aborted="assist", coresets=False))
        log.append(make_record())
        assert log.abort_counts() == {"assist": 2}

    def test_per_vehicle_chats(self):
        log = ChatLog()
        log.append(make_record())
        log.append(make_record())
        counts = log.per_vehicle_chats()
        assert counts == {"v0": 2, "v1": 2}

    def test_per_vehicle_chats_counts_either_side(self):
        log = ChatLog()
        for pair in (("v0", "v1"), ("v2", "v0"), ("v1", "v2"), ("v0", "v3")):
            log.append(make_record(pair=pair))
        log.append(make_record(aborted="coresets", coresets=False, pair=("v3", "v2")))
        assert log.per_vehicle_chats() == {"v0": 3, "v1": 2, "v2": 3, "v3": 2}
        assert ChatLog().per_vehicle_chats() == {}


class TestTrainerIntegration:
    def test_lbchat_populates_log(self, fleet_datasets, traces):
        from repro.core.lbchat import LbChatConfig, LbChatTrainer
        from repro.sim.dataset import DrivingDataset
        from tests.conftest import make_fleet

        nodes = make_fleet(fleet_datasets, coreset_size=8, seed=13)
        validation = DrivingDataset(
            [fleet_datasets["v0"].frame(i) for i in range(0, 30, 6)]
        )
        trainer = LbChatTrainer(
            nodes,
            traces,
            validation,
            LbChatConfig(duration=100.0, train_interval=3.0, record_interval=50.0, seed=1),
        )
        trainer.run()
        assert len(trainer.chat_log) == trainer.counters.get("chats")
        if len(trainer.chat_log):
            assert 0.0 <= trainer.chat_log.mean_psi() <= 1.0

"""LbChat trainer — Algorithm 2 on the event engine.

Each vehicle trains continuously and, when idle, ranks the idle
neighbors in radio range by the Eq. 5 priority score computed from
shared routes, then runs the full pairwise chat protocol with the best
one.  Both participants are busy for the chat's simulated duration.

Training itself runs through :class:`~repro.core.trainer_base.
TrainerBase`'s one fleet process: all vehicles train at the same
instants (busy state gates chats, never training), so the fleet takes
one batched step per instant and then each due, idle vehicle scans, in
row order (:meth:`LbChatTrainer.on_scan`).  Every chat-side operation
here — compression, Eq. 8 aggregation, coreset absorption — works on
zero-copy views into the shared parameter bank.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from repro.core.chat import pairwise_chat
from repro.core.overlap import DensePsiProber, TransferScheduler, plan_chat
from repro.core.selection import select_priority, select_random
from repro.core.trainer_base import TIME_BUDGET, TrainerBase, TrainerConfig
from repro.telemetry import hooks as telemetry

__all__ = ["LbChatConfig", "LbChatTrainer"]


@dataclass
class LbChatConfig(TrainerConfig):
    """LbChat-specific knobs on top of the shared timeline config."""

    #: Ablation switches (§IV-F): fixed equal compression instead of
    #: Eq. 7, and plain averaging instead of Eq. 8.
    equal_compression: bool = False
    mean_aggregation: bool = False
    #: §IV-G: share coresets only, never models (the SCO variant).
    coreset_only: bool = False
    #: Disable Eq. 5 route-based prioritization (extra ablation): pick a
    #: random idle neighbor instead of the best-scoring one.
    prioritize_neighbors: bool = True


class LbChatTrainer(TrainerBase):
    """The paper's method; ablation variants via :class:`LbChatConfig`."""

    name = "LbChat"
    config_class = LbChatConfig
    config: LbChatConfig

    def __init__(self, nodes, traces, validation, config: LbChatConfig | None = None):
        super().__init__(nodes, traces, validation, config)
        from repro.core.chatlog import ChatLog

        self.chat_log = ChatLog(max_records=self.config.chat_log_budget)
        if self.config.overlap_chat:
            self.overlap = TransferScheduler(self)

    def on_scan(self, i: int) -> None:
        """Pick the best idle neighbor (Eq. 5) and run a chat."""
        j = self._pick_partner(i)
        if j is None:
            return
        self._chat(i, j)

    # -- partner selection (Eq. 5) ------------------------------------------------

    def _pick_partner(self, i: int) -> int | None:
        candidates = self.idle_neighbors(i)
        if not candidates:
            return None
        if self.config.prioritize_neighbors:
            return select_priority(self, i, candidates)
        return select_random(self, i, candidates)

    # -- the chat itself ------------------------------------------------------------

    @cached_property
    def prober(self) -> DensePsiProber:
        """The fleet's dense psi prober, built at the first chat (the
        chat-free baselines never pay for its bank): one forward-only
        bank with a half per chat side, so a chat's two maps can be
        fitted at once, on two threads."""
        return DensePsiProber(self.fleet.template)

    def _chat(self, i: int, j: int) -> None:
        """Run one chat: inline, or planned now and shipped in the background.

        An overlapped chat occupies the radios only for its plan phase —
        the transfer window is covered by the
        :class:`~repro.core.ledger.TransferLedger`'s in-flight marks,
        which block chats without blocking training.
        """
        now = self.sim.now
        estimate = self.contact_estimate(i, j, self.estimate_chat_bytes(i, j, 1.0))
        protocol = dict(
            distance_fn=self.pair_distance_fn(i, j),
            start_time=now,
            contact_deadline=now + max(estimate.contact_duration, 1.0),
            wireless=self.wireless,
            time_budget=TIME_BUDGET,
            lambda_c=self.config.lambda_c,
            equal_compression=self.config.equal_compression,
            mean_aggregation=self.config.mean_aggregation,
            coreset_only=self.config.coreset_only,
            expected_goodput=estimate.mean_goodput_factor,
            prober=self.prober,
        )
        flight = None  # the planned chat, when it has legs to ship
        if self.overlap is None:
            if (session := telemetry.active()) is not None:  # closed by account_chat
                session.tracer.start_span(
                    "chat", now, i=self.nodes[i].node_id, j=self.nodes[j].node_id
                )
            outcome = pairwise_chat(self.nodes[i], self.nodes[j], **protocol)
            busy = outcome.duration
        else:
            chat = plan_chat(self.nodes[i], self.nodes[j], **protocol)
            outcome, busy = chat.outcome, chat.now - now
            flight = chat if chat.legs else None
        self.occupy(i, busy)
        self.occupy(j, busy)
        self.note_chat(i, j)
        self.counters.add("chats")
        self.counters.add("psi_probe_builds", outcome.psi_probe_builds)
        if flight is not None:
            self.overlap.launch(flight, i, j)  # accounted at its commit barrier
        else:
            self.account_chat(now, i, j, outcome)

    def account_chat(self, started_at: float, i: int, j: int, outcome) -> None:
        """Log/counter bookkeeping for a resolved chat, whichever protocol ran it.

        Called right after a synchronous chat, or a plan that left
        nothing to ship, returns; for a launched chat, by the scheduler
        at the commit barrier.
        """
        from repro.core.chatlog import ChatRecord

        telemetry.on_chat_resolved(started_at, outcome, overlapped=self.overlap is not None)
        self.chat_log.append(
            ChatRecord.from_outcome(
                started_at, self.nodes[i].node_id, self.nodes[j].node_id, outcome
            )
        )
        self.counters.add("chat_seconds", outcome.duration)
        if outcome.i_attempted:
            self.receive_rate.observe(outcome.i_received_model)
        if outcome.j_attempted:
            self.receive_rate.observe(outcome.j_received_model)
        if outcome.coresets_exchanged:
            self.counters.add("coresets_exchanged", 2)
            self.counters.add(
                "frames_absorbed", outcome.absorbed_by_i + outcome.absorbed_by_j
            )

    # -- checkpointing ------------------------------------------------------------

    def extra_state(self) -> dict:
        from dataclasses import asdict

        return {
            "chat_log": [asdict(record) for record in self.chat_log.records],
            "chat_log_dropped": self.chat_log.dropped,
        }

    def restore_extra(self, state) -> None:
        from repro.core.chatlog import ChatLog, ChatRecord

        log = ChatLog(max_records=self.config.chat_log_budget)
        for record in state["chat_log"]:
            log.append(ChatRecord(**record))
        log.dropped = int(state.get("chat_log_dropped", 0))
        self.chat_log = log

"""LbChat trainer — Algorithm 2 on the event engine.

Each vehicle trains continuously and, when idle, ranks the idle
neighbors in radio range by the Eq. 5 priority score computed from
shared routes, then runs the full pairwise chat protocol with the best
one.  Both participants are busy for the chat's simulated duration.

Training itself runs through :class:`~repro.core.trainer_base.
TrainerBase`'s fleet engine when enabled: all vehicles' train timers
fire at the same instants (busy state gates chats, never training), so
the fleet takes one batched step per instant, and every chat-side
operation here — compression, Eq. 8 aggregation, coreset absorption —
works on zero-copy views into the shared parameter bank.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.chat import pairwise_chat
from repro.core.overlap import DensePsiProber, TransferScheduler, plan_chat
from repro.core.trainer_base import (
    TrainerBase,
    TrainerConfig,
    pair_times_from_state,
    pair_times_state,
)
from repro.telemetry import hooks as telemetry

__all__ = ["PROBE_COUNTERS", "LbChatConfig", "LbChatTrainer"]

#: Counters of how psi maps were fitted (dense probe bank vs the
#: per-level fallback) — execution facts, kept out of result digests.
PROBE_COUNTERS = ("psi_probe_builds", "psi_probe_fallbacks")


@dataclass
class LbChatConfig(TrainerConfig):
    """LbChat-specific knobs on top of the shared timeline config."""

    #: Anticipated combined relative model size when *estimating* how
    #: many bytes a chat will move (the actual value comes from Eq. 7).
    anticipated_psi_total: float = 0.6
    #: Ablation switches (§IV-F): fixed equal compression instead of
    #: Eq. 7, and plain averaging instead of Eq. 8.
    equal_compression: bool = False
    mean_aggregation: bool = False
    #: §IV-G: share coresets only, never models (the SCO variant).
    coreset_only: bool = False
    #: Disable Eq. 5 route-based prioritization (extra ablation): pick a
    #: random idle neighbor instead of the best-scoring one.
    prioritize_neighbors: bool = True
    #: Partner-selection policy ("priority" = Eq. 5; also "random",
    #: "nearest", "longest_contact" — see repro.core.selection).
    selection_policy: str = "priority"
    #: Dynamic T_B (§III-C suggests it): divide the time budget by the
    #: number of available neighbors so crowded moments leave room to
    #: chat with several peers, subject to a floor.
    dynamic_time_budget: bool = False
    min_time_budget: float = 5.0
    #: §V extension: with a multicast-capable radio (e.g. the
    #: data-centric pub/sub radio) a vehicle broadcasts its coreset to
    #: every idle neighbor in one transmission before pairwise chats.
    multicast_coresets: bool = False
    #: Re-broadcast to the same neighbor at most this often.
    multicast_cooldown: float = 120.0


class LbChatTrainer(TrainerBase):
    """The paper's method; ablation variants via :class:`LbChatConfig`."""

    name = "LbChat"

    def __init__(self, nodes, traces, validation, config: LbChatConfig | None = None):
        super().__init__(nodes, traces, validation, config or LbChatConfig())
        self.config: LbChatConfig
        self._last_multicast: dict[tuple[int, int], float] = {}
        from repro.core.chatlog import ChatLog

        self.chat_log = ChatLog(max_records=self.config.chat_log_budget)
        #: Lazily built DensePsiProber (False once construction failed).
        self._prober = None
        if self.config.overlap_chat:
            self.overlap = TransferScheduler(self)

    def on_scan(self, i: int) -> None:
        """Pick the best idle neighbor (Eq. 5) and run a chat."""
        if self.config.multicast_coresets:
            self._multicast_coreset(i)
        j = self._pick_partner(i)
        if j is None:
            return
        self._chat(i, j)

    def _multicast_coreset(self, i: int) -> None:
        """One broadcast delivers the coreset to every idle neighbor.

        Transmission time is a single coreset at the *worst* receiver's
        goodput (multicast runs at the rate the farthest subscriber can
        sustain); receivers absorb passively.
        """
        now = self.sim.now
        node = self.nodes[i]
        targets = [
            j
            for j in self.idle_neighbors(i)
            if now - self._last_multicast.get((i, j), -np.inf)
            >= self.config.multicast_cooldown
        ]
        if not targets:
            return
        worst = max(self.traces.distance(i, j, now) for j in targets)
        goodput = self.wireless.goodput_factor(worst)
        if goodput <= 0:
            return
        rate = self.config.channel.bytes_per_second * goodput
        duration = node.coreset.nominal_bytes / rate
        for j in targets:
            self.nodes[j].absorb_coreset(node.coreset)
            self._last_multicast[(i, j)] = now
        self.occupy(i, duration)
        self.counters.add("multicasts")
        self.counters.add("multicast_receivers", len(targets))

    # -- partner selection (Eq. 5) ------------------------------------------------

    def _pick_partner(self, i: int) -> int | None:
        from repro.core.selection import get_selection_policy

        candidates = self.idle_neighbors(i)
        if not candidates:
            return None
        name = self.config.selection_policy if self.config.prioritize_neighbors else "random"
        return get_selection_policy(name)(self, i, candidates)

    # -- the chat itself ------------------------------------------------------------

    def prober_for(self, node):
        """The fleet's dense psi prober, built lazily with ``node`` as template.

        None when the probe bank cannot hold the architecture.  A node
        the prober does not fit (``quantize`` compressor, another psi
        grid, other parameter shapes) takes the per-level loop inside
        the chat, which tallies it in ``psi_probe_fallbacks``.
        """
        if self._prober is None:
            try:
                self._prober = DensePsiProber(node.model, node.config.psi_grid)
            except (ValueError, AttributeError, TypeError):
                self._prober = False  # bank-incompatible architecture
        return self._prober or None

    def _chat(self, i: int, j: int) -> None:
        """Run one chat: inline, or planned now and shipped in the background.

        An overlapped chat occupies the radios only for its plan phase —
        the transfer window is covered by the
        :class:`~repro.core.ledger.TransferLedger`'s in-flight marks,
        which block chats without blocking training.
        """
        now = self.sim.now
        estimate = self.contact_estimate(i, j, self.estimate_chat_bytes(i, j, 1.0))
        time_budget = self.config.time_budget
        if self.config.dynamic_time_budget:
            n_available = max(len(self.idle_neighbors(i)), 1)
            time_budget = max(
                self.config.time_budget / n_available, self.config.min_time_budget
            )
        protocol = dict(
            distance_fn=self.pair_distance_fn(i, j),
            start_time=now,
            contact_deadline=now + max(estimate.contact_duration, 1.0),
            wireless=self.wireless,
            channel=self.config.channel,
            time_budget=time_budget,
            lambda_c=self.config.lambda_c,
            equal_compression=self.config.equal_compression,
            mean_aggregation=self.config.mean_aggregation,
            coreset_only=self.config.coreset_only,
            expected_goodput=estimate.mean_goodput_factor,
            prober=self.prober_for(self.nodes[i]),
        )
        flight = None  # the planned chat, when it has legs to ship
        if self.overlap is None:
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
        for name in PROBE_COUNTERS:
            self.counters.add(name, getattr(outcome, name))
        if flight is not None:
            self.note_transfer_window(i, j, flight.model_deadline - now)
            self.overlap.launch(flight, i, j)  # accounted at its commit barrier
        else:
            self.note_transfer_window(i, j, outcome.duration)
            self.account_chat(now, i, j, outcome)

    def account_chat(self, started_at: float, i: int, j: int, outcome) -> None:
        """Log/counter bookkeeping for a resolved chat, whichever protocol ran it.

        Called right after a synchronous chat, or a plan that left
        nothing to ship, returns; for a launched chat, by the scheduler
        at the commit barrier.
        """
        from repro.core.chatlog import ChatRecord

        if self.overlap is not None:
            telemetry.on_overlap_outcome(started_at, outcome)
        self.chat_log.append(
            ChatRecord.from_outcome(
                started_at, self.nodes[i].node_id, self.nodes[j].node_id, outcome
            )
        )
        self.counters.add("chat_seconds", outcome.duration)
        if outcome.i_attempted:
            self.receive_rate.observe(self.nodes[i].node_id, outcome.i_received_model)
        if outcome.j_attempted:
            self.receive_rate.observe(self.nodes[j].node_id, outcome.j_received_model)
        if outcome.coresets_exchanged:
            self.counters.add("coresets_exchanged", 2)
            self.counters.add(
                "frames_absorbed", outcome.absorbed_by_i + outcome.absorbed_by_j
            )

    # -- checkpointing ------------------------------------------------------------

    def extra_state(self) -> dict:
        from dataclasses import asdict

        return {
            "last_multicast": pair_times_state(self._last_multicast),
            "chat_log": [asdict(record) for record in self.chat_log.records],
            "chat_log_dropped": self.chat_log.dropped,
        }

    def restore_extra(self, state) -> None:
        from repro.core.chatlog import ChatLog, ChatRecord

        self._last_multicast = pair_times_from_state(state["last_multicast"])
        log = ChatLog(max_records=self.config.chat_log_budget)
        for record in state["chat_log"]:
            log.append(ChatRecord(**record))
        log.dropped = int(state.get("chat_log_dropped", 0))
        self.chat_log = log

"""DFL-DDS — synchronous decentralized FL with diversified data sources.

Su et al.'s DFL-DDS runs global *rounds*: every vehicle trains locally
during a round and exchanges models with an encountered neighbor at the
round boundary.  Aggregation weights are tuned to diversify the data
sources contributing to each vehicle's model: a peer whose model (and
transitively, data) has already flowed into mine many times gets a
smaller weight than a fresh source.

Per the paper's fair-comparison setup (§IV-B), the method is subject to
the same communication constraints as LbChat, with the model
compression ratio fixed per encounter so the pairwise exchange fits the
contact duration — there is no value assessment, so the ratio cannot
adapt to how useful the peer's model actually is.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.compression import decompress
from repro.core.chat import equal_compression_decision
from repro.core.trainer_base import RoundConfig, RoundTrainer
from repro.net.channel import simulate_transfer
from repro.telemetry import hooks as telemetry

__all__ = ["DflDdsConfig", "DflDdsTrainer"]


@dataclass
class DflDdsConfig(RoundConfig):
    """Synchronous-round timeline configuration."""


class DflDdsTrainer(RoundTrainer):
    """Synchronous rounds + data-source-diversity aggregation weights."""

    name = "DFL-DDS"

    def __init__(self, nodes, traces, validation, config: DflDdsConfig | None = None):
        super().__init__(nodes, traces, validation, config or DflDdsConfig())
        self.config: DflDdsConfig
        n = len(nodes)
        # source_counts[i][j]: how often source j contributed to model i.
        self.source_counts = np.zeros((n, n))
        for i in range(n):
            self.source_counts[i, i] = 1.0

    # Vehicles do not exchange on scan — only at round boundaries.
    def on_scan(self, i: int) -> None:
        """No-op: DFL-DDS only exchanges at round boundaries."""
        return

    def on_round(self) -> None:
        """Pair idle neighbors by id order, nearest first, and exchange."""
        self.counters.add("rounds")
        paired: set[int] = set()
        order = np.argsort([n.node_id for n in self.nodes])
        for i in order:
            i = int(i)
            if i in paired or not self.is_idle(i):
                continue
            neighbors = [
                j
                for j in self.traces.neighbors(i, self.sim.now, self.config.max_range)
                if j not in paired and self.is_idle(j) and self.pair_ready(i, j)
            ]
            if not neighbors:
                continue
            j = min(
                neighbors,
                key=lambda j: self.traces.distance(i, j, self.sim.now),
            )
            paired.update((i, j))
            self._exchange(i, j)

    def _exchange(self, i: int, j: int) -> None:
        now = self.sim.now
        node_i, node_j = self.nodes[i], self.nodes[j]
        estimate = self.contact_estimate(
            i, j, node_i.config.nominal_model_bytes
        )
        contact = max(estimate.contact_duration, 1.0)
        bandwidth = min(node_i.config.bandwidth_bps, node_j.config.bandwidth_bps)
        # Raw-bandwidth planning: DFL-DDS has no loss-aware route
        # estimator (that is LbChat's coreset/route machinery), so under
        # wireless loss its exchanges routinely overrun the contact.
        decision = equal_compression_decision(
            node_i.config.nominal_model_bytes,
            bandwidth,
            self.config.round_interval,
            contact,
        )
        distance_fn = self.pair_distance_fn(i, j)
        deadline = now + min(contact, self.config.round_interval)
        session = telemetry.active()
        if session is not None:
            session.tracer.start_span(
                "exchange", now, i=node_i.node_id, j=node_j.node_id
            )
        elapsed = 0.0
        received = 0
        for sender, receiver, psi, s_idx, r_idx in (
            (node_i, node_j, decision.psi_i, i, j),
            (node_j, node_i, decision.psi_j, j, i),
        ):
            if psi <= 0:
                continue
            compressed = sender.compress_model(psi)
            # Same empty-send edge case as the chat protocol: a positive
            # psi rounded down to zero retained bytes must not count as
            # an instantly-successful reception.
            if compressed.nominal_bytes <= 0:
                continue
            sent = simulate_transfer(
                compressed.nominal_bytes,
                distance_fn,
                self.wireless,
                self.config.channel,
                now + elapsed,
                deadline,
            )
            elapsed += sent.elapsed
            self.receive_rate.observe(sent.completed)
            if sent.completed:
                received += 1
                self._aggregate(r_idx, s_idx, decompress(compressed, fill=receiver.flat_params))
        if session is not None:
            session.tracer.end_span(now + elapsed, status="ok", received=received)
        self.occupy(i, elapsed)
        self.occupy(j, elapsed)
        self.note_chat(i, j)
        self.counters.add("exchanges")

    def _aggregate(self, receiver: int, source: int, received_params: np.ndarray) -> None:
        """Diversity-weighted merge: fresher sources weigh more.

        A never-seen source contributes with weight 0.5; repeat
        contributions from the same source decay harmonically, steering
        each model toward a diverse mix of data sources without letting
        any single incoming model overwrite local progress.
        """
        node = self.nodes[receiver]
        w_peer = 0.5 / (1.0 + self.source_counts[receiver, source])
        merged = (1.0 - w_peer) * node.flat_params + w_peer * received_params
        node.replace_model_params(merged.astype(np.float32))
        self.source_counts[receiver, source] += 1.0

    def extra_state(self) -> dict:
        return {**super().extra_state(), "source_counts": self.source_counts.copy()}

    def restore_extra(self, state) -> None:
        super().restore_extra(state)
        self.source_counts = np.asarray(state["source_counts"], dtype=float).copy()

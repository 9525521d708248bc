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

import numpy as np

from repro.core.trainer_base import RoundTrainer

__all__ = ["DflDdsTrainer"]


class DflDdsTrainer(RoundTrainer):
    """Synchronous rounds + data-source-diversity aggregation weights."""

    name = "DFL-DDS"

    def __init__(self, nodes, traces, validation, config=None):
        super().__init__(nodes, traces, validation, config)
        n = len(nodes)
        # source_counts[i][j]: how often source j contributed to model i.
        self.source_counts = np.zeros((n, n))
        for i in range(n):
            self.source_counts[i, i] = 1.0

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
                for j in self.traces.neighbors(i, self.sim.now, self.wireless.max_range)
                if j not in paired and self.is_idle(j) and self.pair_ready(i, j)
            ]
            if not neighbors:
                continue
            j = min(
                neighbors,
                key=lambda j: self.traces.distance(i, j, self.sim.now),
            )
            paired.update((i, j))
            self.exchange_models(i, j, self.config.round_interval, self._aggregate)
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

"""ProxSkip — central-server federated learning baseline.

Mishchenko et al.'s ProxSkip alternates cheap local gradient steps with
*probabilistically skipped* synchronizations: at each step the prox
(averaging) operator is applied only with probability ``p``, which
provably accelerates communication.  As in the paper's setup we grant
it an idealized backend: no bandwidth constraint and no contact-duration
limits — only wireless loss (sampled uniformly from the distance-loss
lookup table, §IV-C) can cost a vehicle its round trip.

Vehicles train locally between rounds exactly like every other method;
at each synchronization event the server averages the parameters of all
vehicles whose uplink succeeded and pushes the average back to all
vehicles whose downlink succeeded.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.trainer_base import RoundConfig, RoundTrainer
from repro.engine.random import spawn_rng
from repro.net.wireless import table_loss

__all__ = ["ProxSkipConfig", "ProxSkipTrainer"]


@dataclass
class ProxSkipConfig(RoundConfig):
    """Server-based timeline: rounds fire at ``round_interval``."""

    sync_probability: float = 0.8  # ProxSkip's p: skip some rounds


class ProxSkipTrainer(RoundTrainer):
    """Central-server FL with skip-able synchronization rounds."""

    name = "ProxSkip"
    config_class = ProxSkipConfig
    config: ProxSkipConfig

    def __init__(self, nodes, traces, validation, config=None):
        super().__init__(nodes, traces, validation, config)
        self._rng = spawn_rng(self.config.seed, "proxskip-server")

    def _link_succeeds(self) -> bool:
        """One backend link attempt under uniformly-sampled wireless loss."""
        if not self.config.wireless_loss:
            return True
        loss = table_loss(self._rng)
        return bool(self._rng.uniform() > loss)

    def on_round(self) -> None:
        """Synchronize with probability ``sync_probability``.

        A draw above it is ProxSkip skipping this synchronization.
        """
        if self._rng.uniform() <= self.config.sync_probability:
            self._synchronize()

    def _synchronize(self) -> None:
        uploads = []
        for node in self.nodes:
            if self._link_succeeds():
                uploads.append(node.flat_params)
        self.counters.add("rounds")
        if not uploads:
            return
        average = np.mean(uploads, axis=0)
        for node in self.nodes:
            ok = self._link_succeeds()
            self.receive_rate.observe(ok)
            if ok:
                node.replace_model_params(average)

    def extra_state(self) -> dict:
        return {**super().extra_state(), "rng": self._rng.bit_generator.state}

    def restore_extra(self, state) -> None:
        super().restore_extra(state)
        self._rng.bit_generator.state = state["rng"]

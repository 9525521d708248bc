"""V2V wireless communication substrate.

Implements the paper's communication model (§II-A, §IV-A): a
distance-indexed wireless-loss lookup table in the style of Anwar et
al.'s 802.11bd measurements, packet-level transfers (1500-byte packets,
31 Mbps, up to three retransmissions), a 500 m communication range, and
route-based estimation of contact durations and exchange-completion
probabilities (§III-A).
"""

from repro.net.wireless import (
    DEFAULT_LOSS_TABLE,
    RADIO_RANGE,
    WirelessModel,
)
from repro.net.channel import BANDWIDTH_BPS, TransferResult, simulate_transfer
from repro.net.contact import (
    ContactEstimate,
    estimate_contact,
    estimate_contacts,
    priority_score,
)
from repro.net.sweep import (
    ContactIndex,
    EncounterWindows,
    pairwise_encounters,
    sweep_encounters,
)

__all__ = [
    "DEFAULT_LOSS_TABLE",
    "RADIO_RANGE",
    "WirelessModel",
    "BANDWIDTH_BPS",
    "TransferResult",
    "simulate_transfer",
    "ContactEstimate",
    "estimate_contact",
    "estimate_contacts",
    "priority_score",
    "ContactIndex",
    "EncounterWindows",
    "sweep_encounters",
    "pairwise_encounters",
]

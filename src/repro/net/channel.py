"""Packet-level transfer simulation.

Transfers are simulated in time chunks: each chunk delivers
``bandwidth * goodput_factor(distance)`` bytes, where the goodput factor
folds per-packet loss and MAC retransmissions into throughput (see
:mod:`repro.net.wireless`).  A transfer *fails* by running out of
contact — the vehicles move out of range or the deadline passes — not by
a single unlucky packet, which transport-layer recovery would re-send.

The paper's parameters (§IV-A): 1500-byte packets, 31 Mbps, up to three
retransmissions, 500 m range.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.net.wireless import WirelessModel
from repro.telemetry import hooks as telemetry

__all__ = [
    "ASSIST_INFO_BYTES",
    "BANDWIDTH_BPS",
    "BYTES_PER_SECOND",
    "CHUNK_SECONDS",
    "TransferResult",
    "TransferSession",
    "simulate_transfer",
]


#: Every vehicle's V2V link rate, ``B_i`` of Eq. 5 (§IV-A: 31 Mbps).
BANDWIDTH_BPS = 31e6
#: Raw link throughput in bytes/s (before loss).
BYTES_PER_SECOND = BANDWIDTH_BPS / 8.0
#: Size of the route/bandwidth assistive message (§III-A).
ASSIST_INFO_BYTES = 184
#: Simulation chunk for re-evaluating distance-dependent loss (§IV-A's
#: loss model is distance-indexed; the chunk is the simulation's own).
CHUNK_SECONDS = 0.5


@dataclass(frozen=True)
class TransferResult:
    """Outcome of one simulated transfer."""

    completed: bool
    elapsed: float  # seconds spent transmitting (until done or cut off)
    bytes_delivered: float


class TransferSession:
    """A resumable in-progress transfer, advanced one chunk at a time.

    The per-chunk arithmetic is the exact loop body that
    :func:`simulate_transfer` used to run inline, so driving a session to
    resolution yields bit-identical results.  The session form exists so
    a transfer can be advanced in segments on the virtual clock
    (overlapped chats) and snapshotted mid-flight between segments.
    """

    __slots__ = (
        "n_bytes",
        "start_time",
        "remaining",
        "now",
        "delivered",
        "resolved",
        "completed",
        "elapsed",
        "finish_time",
        "abort_cause",
    )

    def __init__(self, n_bytes: float, start_time: float):
        self.n_bytes = float(n_bytes)
        self.start_time = start_time
        self.remaining = float(n_bytes)
        self.now = start_time
        self.delivered = 0.0
        self.resolved = n_bytes <= 0
        self.completed = n_bytes <= 0
        self.elapsed = 0.0
        self.finish_time = start_time if n_bytes <= 0 else None
        self.abort_cause: str | None = None

    def step(
        self,
        distance_fn: Callable[[float], float],
        wireless: WirelessModel,
        deadline: float,
    ) -> float | None:
        """Advance by at most one chunk.

        Returns the absolute time at which this step's outcome takes
        effect — the next chunk boundary, or the completion instant —
        or ``None`` when the transfer resolved at the current time
        (deadline/range/rate cut, or already resolved).
        """
        if self.resolved:
            return None
        if not (self.now < deadline):
            self.resolved = True
            self.abort_cause = "deadline"
            self.finish_time = self.now
            return None
        distance = distance_fn(self.now)
        if not wireless.in_range(distance):
            self.resolved = True
            self.abort_cause = "range"
            self.finish_time = self.now
            return None
        rate = BYTES_PER_SECOND * wireless.goodput_factor(distance)
        if rate <= 0:
            self.resolved = True
            self.abort_cause = "rate"
            self.finish_time = self.now
            return None
        chunk = min(CHUNK_SECONDS, deadline - self.now)
        can_send = rate * chunk
        if can_send >= self.remaining:
            self.elapsed = self.now - self.start_time + self.remaining / rate
            self.resolved = True
            self.completed = True
            self.finish_time = self.start_time + self.elapsed
            return self.finish_time
        self.remaining -= can_send
        self.delivered += can_send
        self.now += chunk
        return self.now

    def result(self) -> TransferResult:
        """The :class:`TransferResult` for a resolved (or cut) session."""
        if self.completed:
            return TransferResult(True, self.elapsed, self.n_bytes)
        return TransferResult(False, self.now - self.start_time, self.delivered)

    def snapshot(self) -> dict:
        return {
            "n_bytes": self.n_bytes,
            "start_time": self.start_time,
            "remaining": self.remaining,
            "now": self.now,
            "delivered": self.delivered,
            "resolved": self.resolved,
            "completed": self.completed,
            "elapsed": self.elapsed,
            "finish_time": self.finish_time,
            "abort_cause": self.abort_cause,
        }

    @classmethod
    def from_snapshot(cls, state: dict) -> "TransferSession":
        session = cls(state["n_bytes"], state["start_time"])
        session.remaining = state["remaining"]
        session.now = state["now"]
        session.delivered = state["delivered"]
        session.resolved = state["resolved"]
        session.completed = state["completed"]
        session.elapsed = state["elapsed"]
        session.finish_time = state["finish_time"]
        session.abort_cause = state["abort_cause"]
        return session


def simulate_transfer(
    n_bytes: float,
    distance_fn: Callable[[float], float],
    wireless: WirelessModel,
    start_time: float,
    deadline: float,
) -> TransferResult:
    """Simulate transferring ``n_bytes`` between two moving vehicles.

    Parameters
    ----------
    n_bytes:
        Payload size (e.g. the nominal compressed model size).
    distance_fn:
        Maps absolute time to inter-vehicle distance; evaluated once per
        chunk so loss tracks the vehicles' actual motion.
    wireless:
        The loss model (possibly disabled for the "w/o loss" case).
    start_time, deadline:
        Transfer window in absolute simulation time.

    Returns
    -------
    TransferResult with ``completed`` false when range or deadline cut
    the transfer short.
    """
    if n_bytes <= 0:
        return TransferResult(True, 0.0, 0.0)
    session = TransferSession(n_bytes, start_time)
    while session.step(distance_fn, wireless, deadline) is not None:
        if session.resolved:
            break
    result = session.result()
    telemetry.on_transfer(n_bytes, result, start_time)
    return result

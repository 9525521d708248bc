"""Per-vehicle radio occupancy and in-flight transfer bookkeeping.

The trainers historically tracked radio business with a bare
``busy_until`` array on :class:`~repro.core.trainer_base.TrainerBase`.
The :class:`TransferLedger` owns that array now, and adds what
overlapped chats need: a per-node count of *in-flight* background
transfers, so a vehicle stays unavailable for new chats for the whole
life of a transfer whose completion time is not known up front.

Semantics:

* :meth:`occupy` **merges** overlapping occupancy windows — the busy
  horizon is the max of the existing and the new window end.  A second
  ``occupy`` landing inside an active window must never shrink the
  remaining busy time (a shorter chat scheduled while a longer one is
  pending keeps the longer horizon).
* :meth:`is_idle` requires both a clear time window *and* zero in-flight
  transfers.  Without overlapped chats the in-flight count is always
  zero, so the predicate reduces bit-identically to the historical
  ``now >= busy_until[i]``.
"""

from __future__ import annotations

import numpy as np

__all__ = ["TransferLedger"]


class TransferLedger:
    """Occupancy windows + in-flight transfer counts for a fleet."""

    def __init__(self, n_nodes: int):
        self.busy_until = np.zeros(n_nodes)
        self.in_flight = np.zeros(n_nodes, dtype=np.int64)

    def __len__(self) -> int:
        return len(self.busy_until)

    def occupy(self, i: int, now: float, duration: float) -> float:
        """Merge ``[now, now + duration)`` into node ``i``'s busy window.

        Returns the merged busy-until horizon.  Overlapping windows
        merge to the later end; they are never overwritten, so a second
        occupy during an active window cannot shrink it.
        """
        self.busy_until[i] = max(self.busy_until[i], now + duration)
        return float(self.busy_until[i])

    def is_idle(self, i: int, now: float) -> bool:
        """Whether node ``i``'s radio is free at ``now``."""
        return now >= self.busy_until[i] and not self.in_flight[i]

    def begin_flight(self, i: int) -> None:
        """Mark node ``i`` as holding one more in-flight transfer."""
        self.in_flight[i] += 1

    def end_flight(self, i: int) -> None:
        """Release one in-flight transfer held by node ``i``."""
        if self.in_flight[i] <= 0:
            raise ValueError(f"node {i} has no in-flight transfer to end")
        self.in_flight[i] -= 1

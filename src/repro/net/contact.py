"""Contact estimation and exchange prioritization (§III-A).

When a vehicle meets several peers it must decide whom to chat with
first.  Following the paper (and its predecessor RoadTrain), each pair
exchanges small assistive messages — location, speed, route for the next
few minutes, available bandwidth — from which both sides estimate:

* the remaining **contact duration** ``T_contact`` (how long their
  routes keep them within radio range),
* ``z`` — the *truncated-ratio* communication priority: among peers
  whose contact is long enough to finish an exchange, a **shorter yet
  sufficient** contact scores higher (that opportunity vanishes first);
  an insufficient contact scores zero,
* ``p`` — the probability the exchange completes, from the predicted
  distance profile and the distance-based wireless loss, and
* the Eq. 5 priority ``c = z * p * min(B_i, B_j)``, where every
  vehicle's ``B`` is the §IV-A link rate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.net.channel import BANDWIDTH_BPS, BYTES_PER_SECOND
from repro.net.wireless import WirelessModel

__all__ = ["ContactEstimate", "estimate_contact", "estimate_contacts", "priority_score"]


@dataclass(frozen=True)
class ContactEstimate:
    """Everything §III-A derives from one pair's assistive exchange."""

    contact_duration: float  # predicted seconds until out of range
    z: float  # truncated-ratio priority in [0, 1]
    p: float  # completion probability in [0, 1]
    mean_goodput_factor: float  # average (1 - loss) over the window


def estimate_contacts(
    route: np.ndarray,
    routes: np.ndarray,
    sample_interval: float,
    wireless: WirelessModel,
    exchange_bytes,
) -> list[ContactEstimate]:
    """Estimate one vehicle's contact with each of ``c`` candidates.

    Parameters
    ----------
    route:
        ``(k, 2)`` future position samples at ``sample_interval`` spacing
        (the "route in the next few minutes" from navigation).
    routes:
        ``(k, c, 2)`` samples of the candidates over the same instants.
    exchange_bytes:
        Per candidate, the total bytes the planned exchange must move
        (both coresets plus both models at the anticipated compression).
    """
    k, c = routes.shape[:2]
    nothing = ContactEstimate(0.0, 0.0, 0.0, 0.0)
    if k == 0:
        return [nothing] * c
    # One row per candidate, contiguous, so a window's mean below is
    # summed pairwise the way a lone pair's is.
    distances = np.ascontiguousarray(np.linalg.norm(route[:, None] - routes, axis=2).T)
    in_range = distances <= wireless.max_range
    # Contact lasts until the first predicted sample out of range.
    ends = np.where(in_range.all(axis=1), k, np.argmin(in_range, axis=1)).tolist()
    factors = wireless.goodput_factors(distances)
    estimates = []
    for row, end, needed_bytes in zip(factors, ends, exchange_bytes):
        if end == 0:
            estimates.append(nothing)
            continue
        contact_duration = end * sample_interval
        goodput = float(row[:end].mean())

        # Deliverable bytes over the predicted window vs. what's needed.
        bytes_per_second = BYTES_PER_SECOND * goodput
        needed_time = needed_bytes / max(bytes_per_second, 1e-9)
        if needed_time <= 0:
            z = 1.0
        elif contact_duration >= needed_time:
            # Sufficient: shorter contact -> larger z (truncated ratio).
            z = needed_time / contact_duration
        else:
            z = 0.0

        deliverable = bytes_per_second * contact_duration
        p = min(max(deliverable / max(needed_bytes, 1e-9), 0.0), 1.0)
        estimates.append(ContactEstimate(contact_duration, float(z), float(p), goodput))
    return estimates


def estimate_contact(
    route_a: np.ndarray,
    route_b: np.ndarray,
    sample_interval: float,
    wireless: WirelessModel,
    exchange_bytes: float,
) -> ContactEstimate:
    """:func:`estimate_contacts` for one pair's two ``(k, 2)`` routes."""
    k = min(len(route_a), len(route_b))
    return estimate_contacts(
        route_a[:k],
        route_b[:k, None],
        sample_interval,
        wireless,
        [exchange_bytes],
    )[0]


def priority_score(estimate: ContactEstimate) -> float:
    """Eq. 5: ``c_{i,j} = z_{i,j} * p_{i,j} * min(B_i, B_j)``, every ``B``
    the §IV-A link rate."""
    return estimate.z * estimate.p * BANDWIDTH_BPS

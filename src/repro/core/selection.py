"""LbChat's partner selection.

:func:`select_priority` ranks idle neighbors with the Eq. 5 priority
score and falls back to :func:`select_longest_contact` when every score
is zero; :func:`select_random` is what the ``ablation_no_priority``
artifact (``prioritize_neighbors=False``) runs in its place.

Each is a callable ``(trainer, i, candidates) -> j | None`` over the
trainer's public helpers (contact estimates, traces, node configs).
"""

from __future__ import annotations

from repro.net.contact import priority_score

__all__ = ["select_random", "select_longest_contact", "select_priority"]


def select_random(trainer, i: int, candidates: list) -> int | None:
    """Uniform choice among idle neighbors (DP's rule)."""
    if not candidates:
        return None
    rng = trainer.nodes[i].rng
    return int(candidates[rng.integers(len(candidates))])


def select_longest_contact(trainer, i: int, candidates: list) -> int | None:
    """The neighbor whose predicted contact lasts longest.

    A plausible-but-naive alternative to Eq. 5: it ignores completion
    probability and urgency, so long-but-lossy contacts win.
    """
    if not candidates:
        return None
    best, best_duration = None, -1.0
    for j in candidates:
        estimate = trainer.contact_estimate(i, j, exchange_bytes=1.0)
        if estimate.contact_duration > best_duration:
            best, best_duration = j, estimate.contact_duration
    return best


def select_priority(trainer, i: int, candidates: list) -> int | None:
    """Eq. 5: maximize z * p * min(B) (LbChat's rule).

    Every candidate can score exactly zero even though contact exists —
    ``z`` truncates to 0 whenever no single contact fits the anticipated
    exchange, and ``p`` can underflow.  Idling in that case wastes real
    encounters, so the policy falls back to the longest predicted
    contact among candidates that are reachable at all; only candidates
    with no predicted contact whatsoever are skipped (chatting with them
    would abort at the assist stage).
    """
    if not candidates:
        return None
    best, best_score = None, 0.0
    estimates = {}
    for j in candidates:
        exchange_bytes = trainer.estimate_chat_bytes(
            i, j, getattr(trainer.config, "anticipated_psi_total", 0.6)
        )
        estimate = trainer.contact_estimate(i, j, exchange_bytes)
        estimates[j] = estimate
        score = priority_score(
            estimate,
            trainer.nodes[i].config.bandwidth_bps,
            trainer.nodes[j].config.bandwidth_bps,
        )
        if score > best_score:
            best, best_score = j, score
    if best is None:
        reachable = [j for j in candidates if estimates[j].contact_duration > 0.0]
        if reachable:
            return select_longest_contact(trainer, i, reachable)
    return best

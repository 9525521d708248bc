"""LbChat's partner selection.

:func:`select_priority` ranks idle neighbors with the Eq. 5 priority
score and falls back to :func:`select_longest_contact` when every score
is zero; :func:`select_random` is what the ``ablation_no_priority``
artifact (``prioritize_neighbors=False``) runs in its place.

Each is a callable ``(trainer, i, candidates) -> j | None`` over the
trainer's public helpers (contact estimates, traces, node generators).
"""

from __future__ import annotations

from repro.net.contact import priority_score

__all__ = ["ANTICIPATED_PSI_TOTAL", "select_random", "select_longest_contact", "select_priority"]

#: Anticipated combined relative model size ``psi_i + psi_j`` when
#: *estimating* how many bytes a chat will move for Eq. 5 (§III-A); the
#: actual value comes from Eq. 7.
ANTICIPATED_PSI_TOTAL = 0.6


def select_random(trainer, i: int, candidates: list) -> int | None:
    """Uniform choice among idle neighbors (DP's rule)."""
    if not candidates:
        return None
    rng = trainer.nodes[i].rng
    return int(candidates[rng.integers(len(candidates))])


def _longest_contact(candidates: list, estimates: list, above: float = -1.0) -> int | None:
    """The first candidate with the longest predicted contact longer than ``above``."""
    best, best_duration = None, above
    for j, estimate in zip(candidates, estimates):
        if estimate.contact_duration > best_duration:
            best, best_duration = j, estimate.contact_duration
    return best


def select_longest_contact(trainer, i: int, candidates: list) -> int | None:
    """The neighbor whose predicted contact lasts longest.

    A plausible-but-naive alternative to Eq. 5: it ignores completion
    probability and urgency, so long-but-lossy contacts win.
    """
    if not candidates:
        return None
    # A duration does not depend on the bytes to move.
    estimates = trainer.contact_estimates(i, candidates, [1.0] * len(candidates))
    return _longest_contact(candidates, estimates)


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
    estimates = trainer.contact_estimates(
        i,
        candidates,
        [trainer.estimate_chat_bytes(i, j, ANTICIPATED_PSI_TOTAL) for j in candidates],
    )
    best, best_score = None, 0.0
    for j, estimate in zip(candidates, estimates):
        score = priority_score(estimate)
        if score > best_score:
            best, best_score = j, score
    if best is None:
        # Among the reachable: the durations are already in the batch.
        return _longest_contact(candidates, estimates, above=0.0)
    return best

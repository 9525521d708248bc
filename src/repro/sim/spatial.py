"""Candidate neighbour pairs for the drivers' per-tick obstacle scan.

The simulation's per-tick question is "which agents sit within radius
``r`` of each car?".  Testing every (car, agent) pair is O(n^2) per
tick — the dominant cost of paper-scale worlds (332 agents) — and one
query per car is a Python loop over the fleet.

:func:`strip_pairs` answers for all cars at once from one sort per
tick: the agents are ordered along x, each car's candidates are the
contiguous run of that order within ``reach`` of the car's own x (two
binary searches per car, vectorised), and the runs are expanded into
flat ``(car, agent)`` index arrays.  The result is a *superset* of the
true neighbour pairs; callers apply the **same exact distance test** a
brute-force scan would, on the same float values, so what they select
— and therefore entire simulation runs — stays bit-identical to the
O(n^2) path (gated by the ``world.batched`` row of ``repro selfcheck``).

A strip keeps about ``2 * reach / map width`` of all pairs (9 % at
paper scale, 3 % at city scale), which leaves the scan far below the
rest of a tick; a metro-scale world would sort on packed 2-D cell keys
instead (as :mod:`repro.net.sweep` does) and expand three runs per car
with the same code.
"""

from __future__ import annotations

import numpy as np

__all__ = ["strip_pairs"]


def strip_pairs(
    centers_x: np.ndarray, points_x: np.ndarray, reach: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """All index pairs ``(c, p)`` with ``|points_x[p] - centers_x[c]| <= reach``.

    Returns ``(center, point, starts)``: the pairs as two flat index
    arrays grouped by ascending center, and ``starts[c]``, the offset of
    center ``c``'s group (``starts`` has one trailing entry, the total,
    so group ``c`` is ``starts[c]:starts[c + 1]``).  Within a group the
    points come in ascending ``points_x`` order, not index order.

    ``reach`` is compared against rounded coordinate differences; pass
    the query radius plus a margin (a metre is plenty) so that rounding
    can never drop a true neighbour.
    """
    order = np.argsort(points_x, kind="stable")
    sorted_x = points_x[order]
    lo = np.searchsorted(sorted_x, centers_x - reach, side="left")
    hi = np.searchsorted(sorted_x, centers_x + reach, side="right")
    counts = hi - lo
    starts = np.concatenate([[0], np.cumsum(counts)])
    center = np.repeat(np.arange(len(centers_x)), counts)
    # Position of each pair inside the sorted order: its group's ``lo``
    # plus its rank within the group.
    point = order[np.repeat(lo - starts[:-1], counts) + np.arange(starts[-1])]
    return center, point, starts

"""Contact detection over mobility traces.

The communication layer's hot question is "who is within radio range of
vehicle *i* at time *t*?" (§III-A), asked once per vehicle per scan
tick.  :func:`sweep_encounters` answers it for the whole trace at once:
every vehicle pair's distance at every sample instant, in fixed-size
blocks of pairs, with the **same exact distance test** a brute-force
scan uses (``sqrt(dx*dx + dy*dy) <= radius`` on the same float values),
and each pair's runs of in-range instants are its maximal *encounter
windows* ``(i, j, start, end)``.  Per-pair distance values do not
depend on which other pairs are considered, so the windows are
bit-identical to the per-instant reference (:func:`pairwise_encounters`),
boundary ties included.  The name ``sweep_encounters`` outlives the
grid sweep it once ran because the frozen benchmark tracer times it by
that path (ROADMAP item 17).

:class:`ContactIndex` turns the windows into a per-vehicle interval
table so each "neighbors at instant k" query is a vectorized mask over
that vehicle's windows; ``MobilityTraces.neighbors`` asks nothing else.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "EncounterWindows",
    "ContactIndex",
    "sweep_encounters",
    "pairwise_encounters",
]

_EMPTY = np.zeros(0, dtype=np.int64)


@dataclass(eq=False)
class EncounterWindows:
    """Maximal in-range intervals for every vehicle pair.

    Window ``w`` says vehicles ``pair_i[w] < pair_j[w]`` were within
    radius of each other at every sample instant in
    ``[start[w], end[w]]`` (inclusive) and out of range at the adjacent
    instants.  Rows are sorted by ``(pair_i, pair_j, start)``.
    """

    pair_i: np.ndarray  # (w,) int64
    pair_j: np.ndarray  # (w,) int64
    start: np.ndarray  # (w,) int64 sample index
    end: np.ndarray  # (w,) int64 sample index, inclusive
    n_vehicles: int
    n_steps: int
    radius: float

    def __len__(self) -> int:
        return len(self.pair_i)

    def to_tuples(self) -> list[tuple[int, int, int, int]]:
        """Windows as plain ``(i, j, start, end)`` tuples (canonical order)."""
        return [
            (int(a), int(b), int(s), int(e))
            for a, b, s, e in zip(self.pair_i, self.pair_j, self.start, self.end)
        ]


def _windows_from_step_keys(step_keys, n: int, n_steps: int, radius: float) -> EncounterWindows:
    """Merge per-instant sorted pair-key arrays into maximal windows.

    ``step_keys`` yields, for each sample instant, the ascending int64
    keys ``i * n + j`` (``i < j``) of the pairs in range at that
    instant.  Only the churn (pairs opening or closing) costs dict
    work; steady-state contacts ride along in the sorted set-diffs.
    """
    open_start: dict[int, int] = {}
    rows: list[tuple[int, int, int]] = []
    prev = _EMPTY
    k = -1
    for k, cur in enumerate(step_keys):
        opened = np.setdiff1d(cur, prev, assume_unique=True)
        closed = np.setdiff1d(prev, cur, assume_unique=True)
        for key in closed:
            key = int(key)
            rows.append((key, open_start.pop(key), k - 1))
        for key in opened:
            open_start[int(key)] = k
        prev = cur
    last = k
    for key, s in open_start.items():
        rows.append((key, s, last))
    if not rows:
        return EncounterWindows(
            _EMPTY, _EMPTY, _EMPTY, _EMPTY, n, n_steps, float(radius)
        )
    keys = np.array([r[0] for r in rows], dtype=np.int64)
    start = np.array([r[1] for r in rows], dtype=np.int64)
    end = np.array([r[2] for r in rows], dtype=np.int64)
    pair_i, pair_j = keys // n, keys % n
    order = np.lexsort((start, pair_j, pair_i))
    return EncounterWindows(
        pair_i[order], pair_j[order], start[order], end[order],
        n, n_steps, float(radius),
    )


#: Pair-instant cells per block of :func:`sweep_encounters`: one block's
#: float planes (512 KiB each) stay in cache, and memory is bounded
#: whatever the fleet size or trace length.
_BLOCK_CELLS = 1 << 16


def sweep_encounters(positions: np.ndarray, radius: float) -> EncounterWindows:
    """Extract encounter windows as runs of every pair's in-range mask.

    ``positions`` is the ``(n_steps, n, 2)`` trace array.  The ``triu``
    pairs go in blocks of ``_BLOCK_CELLS // n_steps``; a block's
    ``dx``/``dy`` are ``(pairs, n_steps)`` planes, so each pair's time
    series is one contiguous row, and a window opens at a +1 and closes
    before a -1 of ``np.diff`` over the zero-padded mask.  ``nonzero``
    walks rows in order, so the windows come out sorted by
    ``(pair_i, pair_j, start)`` with no sort.  Bit-identical to
    :func:`pairwise_encounters` (same distance expression over the same
    floats).
    """
    positions = np.asarray(positions, dtype=float)
    n_steps, n = positions.shape[0], positions.shape[1]
    iu, ju = np.triu_indices(n, k=1)
    xs = np.ascontiguousarray(positions[:, :, 0].T)
    ys = np.ascontiguousarray(positions[:, :, 1].T)
    per_block = max(_BLOCK_CELLS // max(n_steps, 1), 1)
    columns: list[list[np.ndarray]] = [[_EMPTY], [_EMPTY], [_EMPTY], [_EMPTY]]
    for b0 in range(0, iu.size, per_block):
        a, b = iu[b0 : b0 + per_block], ju[b0 : b0 + per_block]
        dx = xs[a] - xs[b]
        dy = ys[a] - ys[b]
        mask = np.zeros((a.size, n_steps + 2), dtype=np.int8)
        mask[:, 1:-1] = np.sqrt(dx * dx + dy * dy) <= radius
        edges = np.diff(mask, axis=1)
        pair, start = np.nonzero(edges == 1)
        _, stop = np.nonzero(edges == -1)
        for column, values in zip(columns, (a[pair], b[pair], start, stop - 1)):
            column.append(values)
    pair_i, pair_j, start, end = (np.concatenate(c).astype(np.int64) for c in columns)
    return EncounterWindows(pair_i, pair_j, start, end, n, n_steps, float(radius))


def pairwise_encounters(positions: np.ndarray, radius: float) -> EncounterWindows:
    """Reference window extraction, one instant at a time (O(n² · n_steps)).

    The same per-pair distance arithmetic as :func:`sweep_encounters`,
    merged instant by instant; kept as the equivalence oracle for the
    tests and the selfcheck's ``swept_equals_pairwise`` hook.
    """
    positions = np.asarray(positions, dtype=float)
    n_steps, n = positions.shape[0], positions.shape[1]
    iu, ju = np.triu_indices(n, k=1)

    def step_keys():
        for k in range(n_steps):
            pos = positions[k]
            d = pos[iu] - pos[ju]
            dist = np.sqrt(np.add.reduce(d * d, axis=1))
            mask = dist <= radius
            yield (iu[mask] * n + ju[mask]).astype(np.int64)

    return _windows_from_step_keys(step_keys(), n, n_steps, radius)


class ContactIndex:
    """Per-vehicle interval table answering "neighbors at instant k".

    Built once from :class:`EncounterWindows`; each query is a
    vectorized interval-containment mask over one vehicle's windows
    and returns what a distance scan at that instant would: ascending
    neighbor indices, self excluded.
    """

    def __init__(self, windows: EncounterWindows):
        self.windows = windows
        # Each window is visible from both endpoints.
        owner = np.concatenate([windows.pair_i, windows.pair_j])
        partner = np.concatenate([windows.pair_j, windows.pair_i])
        start = np.concatenate([windows.start, windows.start])
        end = np.concatenate([windows.end, windows.end])
        order = np.argsort(owner, kind="stable")
        self._partner = partner[order]
        self._start = start[order]
        self._end = end[order]
        counts = np.bincount(owner, minlength=windows.n_vehicles)
        self._offsets = np.concatenate([[0], np.cumsum(counts)])

    def neighbors_at(self, vehicle: int, k: int) -> list[int]:
        """Ascending indices of vehicles in range of ``vehicle`` at instant ``k``."""
        s, e = self._offsets[vehicle], self._offsets[vehicle + 1]
        if e <= s:
            return []
        mask = (self._start[s:e] <= k) & (k <= self._end[s:e])
        if not mask.any():
            return []
        return [int(p) for p in np.sort(self._partner[s:e][mask])]

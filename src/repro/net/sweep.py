"""Swept contact detection over mobility traces.

The communication layer's hot question is "who is within radio range of
vehicle *i* at time *t*?", asked once per vehicle per scan tick.  The
brute-force answer recomputes all ``n`` distances per query — O(n²) per
scan instant fleet-wide, the dominant cost of city-scale fleets.

:func:`sweep_encounters` replaces that with one sort-and-sweep pass
over the whole trace: at each sample instant the positions are sorted
into grid cells sized to the radio radius, candidate pairs are
drawn only from each cell and its forward half-neighborhood, then
filtered with the **same exact distance test** the brute force scan
uses (`sqrt((dx)² + (dy)²) <= radius` on the same float values), and
consecutive in-range instants are merged into maximal *encounter
windows* ``(i, j, start, end)``.  Because per-pair distance values do
not depend on which other pairs are considered, the surviving pairs —
and therefore the windows — are bit-identical to the pairwise
reference (:func:`pairwise_encounters`), boundary ties included.

:class:`ContactIndex` turns the windows into a per-vehicle interval
table so each "neighbors at instant k" query is a vectorized mask over
that vehicle's windows instead of a fleet-wide distance scan.
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


# Packed cell keys: (cx + _CELL_OFF) * _CELL_MUL + (cy + _CELL_OFF).
_CELL_OFF = 1 << 20
_CELL_MUL = 1 << 21
# Forward half of the 8-neighborhood in key space; scanning only these
# from each cell visits every adjacent cell pair exactly once.
_FORWARD = (_CELL_MUL - 1, _CELL_MUL, _CELL_MUL + 1, 1)


def sweep_encounters(
    positions: np.ndarray, radius: float, cell_size: float | None = None
) -> EncounterWindows:
    """Extract encounter windows via a per-instant spatial-grid sweep.

    ``positions`` is the ``(n_steps, n, 2)`` trace array.  Cost per
    instant is O(occupied cells · local density²) instead of O(n²): a
    sort groups vehicles by grid cell, pairs are enumerated within each
    cell and against its four forward neighbors (cells are at least
    ``radius`` wide, so no in-range pair can span further), and the
    exact distance test prunes the superset.  Windows are bit-identical
    to :func:`pairwise_encounters` (same distance expression over the
    same floats).
    """
    positions = np.asarray(positions, dtype=float)
    n_steps, n = positions.shape[0], positions.shape[1]
    # Cells narrower than the radius would let in-range pairs span
    # beyond the forward neighborhood, so the radius is a floor.
    cell = max(float(cell_size or 0.0), float(radius), 1e-9)

    triu_memo: dict[int, tuple[np.ndarray, np.ndarray]] = {}

    def step_keys():
        for k in range(n_steps):
            pos = positions[k]
            cells = np.floor(pos / cell).astype(np.int64)
            ckey = (cells[:, 0] + _CELL_OFF) * _CELL_MUL + (cells[:, 1] + _CELL_OFF)
            order = np.argsort(ckey, kind="stable")
            sk = ckey[order]
            starts = np.flatnonzero(np.r_[True, sk[1:] != sk[:-1]])
            ends = np.r_[starts[1:], sk.size]
            buckets = {
                int(sk[s]): (order[s:e], pos[order[s:e]])
                for s, e in zip(starts, ends)
            }
            chunks = []
            for key, (members, pts) in buckets.items():
                m = members.size
                if m > 1:
                    pair = triu_memo.get(m)
                    if pair is None:
                        pair = triu_memo[m] = np.triu_indices(m, k=1)
                    ai, bi = pair
                    a, b = members[ai], members[bi]
                    lo, hi = np.minimum(a, b), np.maximum(a, b)
                    d = pts[ai] - pts[bi]
                    dist = np.sqrt(np.add.reduce(d * d, axis=1))
                    keep = dist <= radius
                    if keep.any():
                        chunks.append(lo[keep] * n + hi[keep])
                for delta in _FORWARD:
                    other = buckets.get(key + delta)
                    if other is None:
                        continue
                    other_members, other_pts = other
                    d = pts[:, None, :] - other_pts[None, :, :]
                    dist = np.sqrt(np.add.reduce(d * d, axis=2))
                    ai, bi = np.nonzero(dist <= radius)
                    if ai.size:
                        a, b = members[ai], other_members[bi]
                        lo, hi = np.minimum(a, b), np.maximum(a, b)
                        chunks.append(lo * n + hi)
            if chunks:
                yield np.sort(np.concatenate(chunks))
            else:
                yield _EMPTY

    return _windows_from_step_keys(step_keys(), n, n_steps, radius)


def pairwise_encounters(positions: np.ndarray, radius: float) -> EncounterWindows:
    """Reference all-pairs window extraction (O(n² · n_steps)).

    Uses the same per-pair distance arithmetic as
    ``MobilityTraces.neighbors``; kept as the equivalence oracle for
    tests and as the small-fleet fallback in benchmarks.
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
    (typically a few hundred) instead of an O(n) distance scan, and
    returns exactly what ``MobilityTraces.neighbors`` would: ascending
    neighbor indices, self excluded.
    """

    def __init__(self, windows: EncounterWindows):
        self.windows = windows
        n = windows.n_vehicles
        self.n_vehicles = n
        self.radius = windows.radius
        # Each window is visible from both endpoints.
        owner = np.concatenate([windows.pair_i, windows.pair_j])
        partner = np.concatenate([windows.pair_j, windows.pair_i])
        start = np.concatenate([windows.start, windows.start])
        end = np.concatenate([windows.end, windows.end])
        order = np.argsort(owner, kind="stable")
        self._partner = partner[order]
        self._start = start[order]
        self._end = end[order]
        counts = np.bincount(owner, minlength=n)
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

    def window_count(self, vehicle: int | None = None) -> int:
        """Number of windows (one vehicle's, or total distinct pairs)."""
        if vehicle is None:
            return len(self.windows)
        return int(self._offsets[vehicle + 1] - self._offsets[vehicle])

"""Property tests for contact detection.

The extractor's contract is exact: encounter windows read off each
pair's in-range runs (``sweep_encounters``, named for the grid sweep it
replaced, which the frozen benchmark tracer still times by that path)
must be *bit-identical* to the per-instant reference — same pairs, same
window boundaries, ties on the radius included — because every neighbor
query of every run reads the index built from them.  Hypothesis drives
randomized traces (fleet size, duration, spread, radius, off-map
excursions) through both extractors; hand-made traces pin the run
boundaries random walks rarely hit.
"""

from __future__ import annotations

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from repro.net import sweep
from repro.net.sweep import (
    ContactIndex,
    pairwise_encounters,
    sweep_encounters,
)
from repro.sim.traces import MobilityTraces


def brute_neighbors(positions, v, k, radius):
    """Inline oracle: every other vehicle within ``radius`` of ``v`` at ``k``."""
    pos = positions[k]
    d = pos - pos[v]
    dist = np.sqrt(np.add.reduce(d * d, axis=1))
    return [int(i) for i in np.where(dist <= radius)[0] if i != v]


@st.composite
def trace_cases(draw):
    n = draw(st.integers(min_value=1, max_value=24))
    n_steps = draw(st.integers(min_value=1, max_value=12))
    size = draw(st.floats(min_value=20.0, max_value=3000.0))
    radius = draw(st.floats(min_value=1.0, max_value=800.0))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    rng = np.random.default_rng(seed)
    # Random-walk positions, some flung off the nominal map (vehicles
    # are not clipped during simulation).
    start = rng.uniform(-0.2 * size, 1.2 * size, size=(n, 2))
    steps = rng.normal(scale=0.05 * size, size=(n_steps, n, 2))
    positions = start[None, :, :] + np.cumsum(steps, axis=0)
    return positions, radius


class TestSweepMatchesPairwise:
    @settings(max_examples=200, deadline=None)
    @given(trace_cases())
    def test_windows_bit_identical(self, case):
        positions, radius = case
        swept = sweep_encounters(positions, radius)
        reference = pairwise_encounters(positions, radius)
        assert swept.to_tuples() == reference.to_tuples()

    @settings(max_examples=60, deadline=None)
    @given(trace_cases(), st.integers(min_value=1, max_value=7))
    def test_windows_spanning_pair_blocks(self, case, block_cells):
        # A few cells per block: one or two pairs each, so a fleet's
        # windows are stitched together from many blocks.
        positions, radius = case
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(sweep, "_BLOCK_CELLS", block_cells)
            swept = sweep_encounters(positions, radius)
        assert swept.to_tuples() == pairwise_encounters(positions, radius).to_tuples()

    @settings(max_examples=60, deadline=None)
    @given(trace_cases())
    def test_window_invariants(self, case):
        positions, radius = case
        windows = sweep_encounters(positions, radius)
        n_steps = positions.shape[0]
        assert np.all(windows.pair_i < windows.pair_j)
        assert np.all(windows.start <= windows.end)
        assert np.all(windows.start >= 0)
        assert np.all(windows.end < n_steps)
        # Windows of the same pair are disjoint and non-adjacent (else
        # they would have been merged into one maximal window).
        tuples = windows.to_tuples()
        for (i1, j1, s1, e1), (i2, j2, s2, e2) in zip(tuples, tuples[1:]):
            if (i1, j1) == (i2, j2):
                assert s2 > e1 + 1


def two_vehicles(separation):
    """Vehicle 0 parked at the origin, vehicle 1 at ``separation[k]`` metres east."""
    separation = np.asarray(separation, dtype=float)
    positions = np.zeros((separation.size, 2, 2))
    positions[:, 1, 0] = separation
    return positions


class TestRunBoundaries:
    """Runs that start or end at the trace's edges, or sit on the radius."""

    @pytest.mark.parametrize(
        "separation, windows",
        [
            ([10, 900, 900, 900], [(0, 1, 0, 0)]),  # in range only at instant 0
            ([900, 900, 900, 10], [(0, 1, 3, 3)]),  # only at the last instant
            ([10, 20, 30, 40], [(0, 1, 0, 3)]),  # at every instant
            ([900, 100, 900, 100], [(0, 1, 1, 1), (0, 1, 3, 3)]),
            ([100, 100.0000001, 100, 99], [(0, 1, 0, 0), (0, 1, 2, 3)]),  # exactly radius
        ],
    )
    def test_windows(self, separation, windows):
        positions = two_vehicles(separation)
        assert sweep_encounters(positions, 100.0).to_tuples() == windows
        assert pairwise_encounters(positions, 100.0).to_tuples() == windows

    def test_single_vehicle_has_no_windows(self):
        positions = np.zeros((5, 1, 2))
        assert len(sweep_encounters(positions, 500.0)) == 0
        assert ContactIndex(sweep_encounters(positions, 500.0)).neighbors_at(0, 2) == []

    def test_single_instant(self):
        rng = np.random.default_rng(3)
        positions = rng.uniform(0, 400, size=(1, 9, 2))
        swept = sweep_encounters(positions, 150.0)
        assert swept.to_tuples() == pairwise_encounters(positions, 150.0).to_tuples()
        assert np.all(swept.start == 0) and np.all(swept.end == 0)
        index = ContactIndex(swept)
        for v in range(9):
            assert index.neighbors_at(v, 0) == brute_neighbors(positions, v, 0, 150.0)


class TestContactIndex:
    @settings(max_examples=100, deadline=None)
    @given(trace_cases(), st.integers(min_value=0, max_value=2**31 - 1))
    def test_neighbors_match_brute_scan(self, case, seed):
        positions, radius = case
        index = ContactIndex(sweep_encounters(positions, radius))
        rng = np.random.default_rng(seed)
        n_steps, n = positions.shape[0], positions.shape[1]
        for _ in range(5):
            v = int(rng.integers(n))
            k = int(rng.integers(n_steps))
            assert index.neighbors_at(v, k) == brute_neighbors(positions, v, k, radius)


class TestTracesRouting:
    def _traces(self, n, seed=11):
        rng = np.random.default_rng(seed)
        positions = rng.uniform(0, 600, size=(9, n, 2))
        return MobilityTraces(
            vehicle_ids=[f"v{i}" for i in range(n)],
            times=np.arange(9) * 0.5,
            positions=positions,
        )

    @pytest.mark.parametrize("n", [1, 2, 6, 32, 48])
    def test_every_fleet_uses_index_and_matches_brute(self, n):
        traces = self._traces(n)
        radius = 150.0
        for v in sorted({0, n // 2, n - 1}):
            for t in (0.0, 1.2, 4.0):
                got = traces.neighbors(v, t, radius)
                assert got == brute_neighbors(traces.positions, v, traces.index_at(t), radius)
        assert list(traces._contact_indexes) == [radius]  # the index memo was built

    def test_index_memo_is_per_radius(self):
        traces = self._traces(48)
        a = traces.contact_index(100.0)
        b = traces.contact_index(250.0)
        assert a is traces.contact_index(100.0)
        assert a is not b

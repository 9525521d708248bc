"""Property tests for the drivers' candidate-pair scan.

``strip_pairs``' contract is exact: its candidates filtered by the
brute-force scan's own distance test must select *precisely* what the
brute-force scan selects, because full simulation runs are gated on
bit-identity with the pre-grid goldens.  Hypothesis drives randomized
agent layouts, query centers and radii through both paths.
"""

from __future__ import annotations

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from repro.sim.map import TownMap
from repro.sim.spatial import strip_pairs
from repro.sim.traffic import road_obstacles

MARGIN = 1.0  # what DriverBank.step widens the strip by


@st.composite
def scan_cases(draw):
    n = draw(st.integers(min_value=0, max_value=60))
    n_centers = draw(st.integers(min_value=0, max_value=8))
    size = draw(st.floats(min_value=10.0, max_value=2000.0))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    radius = draw(st.floats(min_value=0.1, max_value=300.0))
    rng = np.random.default_rng(seed)
    # Mostly in-map points, some flung outside (agents are not clipped
    # to the map during simulation).
    positions = rng.uniform(-0.2 * size, 1.2 * size, size=(n, 2))
    centers = rng.uniform(-0.2 * size, 1.2 * size, size=(n_centers, 2))
    return positions, centers, radius


def within(positions, centers, radius):
    """Per center, the indices the candidates leave after the exact test."""
    center, point, starts = strip_pairs(centers[:, 0], positions[:, 0], radius + MARGIN)
    d = positions[point] - centers[center]
    near = np.sqrt(np.add.reduce(d * d, axis=1)) < radius
    return [
        np.sort(point[starts[c] : starts[c + 1]][near[starts[c] : starts[c + 1]]])
        for c in range(len(centers))
    ]


class TestQueryRadiusMatchesBruteForce:
    @settings(max_examples=200, deadline=None)
    @given(scan_cases())
    def test_exact_indices(self, case):
        positions, centers, radius = case
        for center, got in zip(centers, within(positions, centers, radius)):
            dist = np.linalg.norm(positions - center, axis=1)
            np.testing.assert_array_equal(got, np.nonzero(dist < radius)[0])

    @settings(max_examples=100, deadline=None)
    @given(scan_cases())
    def test_query_superset_is_sorted(self, case):
        positions, centers, radius = case
        center, point, starts = strip_pairs(centers[:, 0], positions[:, 0], radius + MARGIN)
        assert len(center) == len(point) == starts[-1]
        assert len(starts) == len(centers) + 1 and np.all(np.diff(starts) >= 0)
        for c in range(len(centers)):
            group = point[starts[c] : starts[c + 1]]
            assert np.all(center[starts[c] : starts[c + 1]] == c)
            assert len(set(group.tolist())) == len(group)  # no pair twice
            assert np.all(np.diff(positions[group, 0]) >= 0)  # in strip order
            # Superset: contains every true neighbor.
            dist = np.linalg.norm(positions - centers[c], axis=1)
            assert set(np.nonzero(dist < radius)[0]) <= set(group.tolist())


class TestRoadObstaclesGridEquivalence:
    """The pair scan selects what brute-force ``road_obstacles`` selects."""

    @pytest.fixture(scope="class")
    def town(self):
        return TownMap(size=300.0, grid_n=3, seed=1)

    @staticmethod
    def scanned(town, positions, c, radius):
        """Agent ``c``'s obstacles the way ``DriverBank.step`` finds them:
        on-road agents only, strip candidates, exact test, not itself."""
        road = np.flatnonzero(town.occupancy_at(positions))
        (hits,) = within(positions[road], positions[c : c + 1], radius)
        return positions[[i for i in road[hits] if i != c]]

    @settings(max_examples=100, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        n=st.integers(min_value=1, max_value=50),
        radius=st.floats(min_value=1.0, max_value=120.0),
    )
    def test_same_elements_same_order(self, town, seed, n, radius):
        rng = np.random.default_rng(seed)
        positions = rng.uniform(0.0, town.size, size=(n, 2))
        c = int(rng.integers(n))
        got = self.scanned(town, positions, c, radius)
        want = road_obstacles(town, positions, positions[c], radius, exclude=c)
        np.testing.assert_array_equal(got, want)

    def test_matches_self_masked_brute_force(self, town):
        # The pre-grid callers masked out the querying agent by hand;
        # exclude= and the scan's "not itself" must select exactly that.
        rng = np.random.default_rng(3)
        positions = rng.uniform(0.0, town.size, size=(20, 2))
        for i in (0, 7, 19):
            mask = np.ones(len(positions), dtype=bool)
            mask[i] = False
            want = road_obstacles(town, positions[mask], positions[i])
            np.testing.assert_array_equal(
                road_obstacles(town, positions, positions[i], exclude=i), want
            )
            np.testing.assert_array_equal(self.scanned(town, positions, i, 45.0), want)

    def test_empty_and_edge_cases(self, town):
        empty = np.zeros((0, 2))
        assert road_obstacles(town, empty, np.array([10.0, 10.0])).shape == (0, 2)
        center, point, starts = strip_pairs(np.array([5.0]), empty[:, 0], 10.0)
        assert center.shape == point.shape == (0,) and starts.tolist() == [0, 0]
        center, point, starts = strip_pairs(empty[:, 0], np.array([5.0]), 10.0)
        assert center.shape == point.shape == (0,) and starts.tolist() == [0]
        # Query disk entirely off the populated area.
        positions = np.array([[10.0, 10.0], [12.0, 10.0]])
        (far,) = within(positions, np.array([[290.0, 290.0]]), 5.0)
        assert far.shape == (0,)
        # Center on the map edge still sees edge agents.
        (edge,) = within(positions, np.array([[0.0, 10.0]]), 15.0)
        np.testing.assert_array_equal(edge, [0, 1])

    def test_brute_fallback_on_huge_extent(self):
        # A stray far-away point made a cell table absurd; a sorted strip
        # has no table to blow up and must simply not see the stray.
        positions = np.array([[0.0, 0.0], [1.0, 1.0], [1e9, 1e9]])
        (got,) = within(positions, np.array([[0.5, 0.5]]), 2.0)
        np.testing.assert_array_equal(got, [0, 1])

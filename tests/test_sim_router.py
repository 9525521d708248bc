"""Unit tests for route planning and command generation."""

import numpy as np
import pytest

from repro.sim import TownMap
from repro.sim.router import (
    CMD_FOLLOW,
    CMD_LEFT,
    CMD_RIGHT,
    CMD_STRAIGHT,
    COMMAND_HORIZON,
    RoutePlan,
    plan_route,
    random_route,
)


@pytest.fixture(scope="module")
def town():
    return TownMap(size=400.0, grid_n=3, seed=0)


def l_route(turn_left=True):
    """A synthetic 90-degree turn route."""
    sign = 1.0 if turn_left else -1.0
    return RoutePlan(
        np.array([[0.0, 0.0], [100.0, 0.0], [100.0, sign * 100.0]])
    )


class TestRoutePlan:
    def test_requires_two_vertices(self):
        with pytest.raises(ValueError):
            RoutePlan(np.array([[0.0, 0.0]]))

    def test_total_length(self):
        plan = l_route()
        assert plan.total_length == pytest.approx(200.0, rel=1e-3)

    def test_point_at_interpolates(self):
        plan = l_route()
        assert np.allclose(plan.point_at(50.0), [50.0, 0.0], atol=0.5)

    def test_point_at_clamps(self):
        plan = l_route()
        assert np.allclose(plan.point_at(-5.0), [0.0, 0.0])
        assert np.allclose(plan.point_at(1e6), [100.0, 100.0])

    def test_heading_along_first_leg(self):
        plan = l_route()
        assert plan.heading_at(10.0) == pytest.approx(0.0, abs=0.05)

    def test_heading_after_turn(self):
        plan = l_route()
        assert plan.heading_at(150.0) == pytest.approx(np.pi / 2, abs=0.05)

    def test_left_turn_command(self):
        plan = l_route(turn_left=True)
        s = 100.0 - COMMAND_HORIZON / 2
        assert plan.command_at(s) == CMD_LEFT

    def test_right_turn_command(self):
        plan = l_route(turn_left=False)
        s = 100.0 - COMMAND_HORIZON / 2
        assert plan.command_at(s) == CMD_RIGHT

    def test_follow_far_from_turn(self):
        plan = l_route()
        assert plan.command_at(10.0) == CMD_FOLLOW

    def test_straight_command_for_shallow_angle(self):
        plan = RoutePlan(
            np.array([[0.0, 0.0], [100.0, 0.0], [200.0, 10.0]])
        )
        assert plan.command_at(90.0) == CMD_STRAIGHT

    def test_project_finds_nearest(self):
        plan = l_route()
        s = plan.project(np.array([60.0, 5.0]))
        assert s == pytest.approx(60.0, abs=2.5)

    def test_project_with_hint_stays_local(self):
        plan = l_route()
        s = plan.project(np.array([60.0, 5.0]), hint=55.0)
        assert s == pytest.approx(60.0, abs=2.5)

    def test_lane_point_offset_right(self):
        plan = l_route()
        lane = plan.lane_point_at(50.0, 2.0)
        center = plan.point_at(50.0)
        # Heading +x: right is -y.
        assert lane[1] == pytest.approx(center[1] - 2.0, abs=0.2)

    def test_distance_to_intersection(self):
        plan = l_route()
        assert plan.distance_to_intersection(50.0) == pytest.approx(50.0, abs=2.0)
        assert plan.distance_to_intersection(150.0) == np.inf

    def test_done_near_end(self):
        plan = l_route()
        assert not plan.done(100.0)
        assert plan.done(plan.total_length - 1.0)

    def test_route_cells_cover_route(self):
        plan = l_route()
        cells = plan.route_cells(2.0)
        assert (0, 0) in cells
        assert (49, 0) in cells  # near the corner


class TestPlanRoute:
    def test_endpoints_match_nodes(self, town):
        nodes = [n for n in town.nodes() if n[0] == "t"]
        plan = plan_route(town, nodes[0], nodes[-1])
        assert np.allclose(plan.point_at(0.0), town.node_position(nodes[0]))

    def test_random_route_min_length(self, town):
        rng = np.random.default_rng(0)
        for _ in range(10):
            plan = random_route(town, rng, min_length=150.0)
            assert plan.total_length >= 150.0

    def test_random_route_with_start(self, town):
        rng = np.random.default_rng(1)
        start = [n for n in town.nodes() if n[0] == "t"][0]
        plan = random_route(town, rng, min_length=100.0, start=start)
        assert np.allclose(plan.point_at(0.0), town.node_position(start))

    def test_impossible_min_length_raises(self, town):
        rng = np.random.default_rng(2)
        with pytest.raises(RuntimeError):
            random_route(town, rng, min_length=1e7, max_tries=5)

    def test_turn_direction_balance(self, town):
        rng = np.random.default_rng(3)
        counts = {CMD_LEFT: 0, CMD_RIGHT: 0}
        for _ in range(150):
            plan = random_route(town, rng, min_length=150.0)
            for _, cmd in plan._turns:
                if cmd in counts:
                    counts[cmd] += 1
        total = counts[CMD_LEFT] + counts[CMD_RIGHT]
        assert total > 0
        assert 0.3 < counts[CMD_LEFT] / total < 0.7

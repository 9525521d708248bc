"""Unit tests for BEV rasterization."""

import numpy as np
import pytest

from repro.sim import BevSpec, TownMap
from repro.sim.bev import render_bev
from repro.sim.kinematics import VehicleState
from repro.sim.router import RoutePlan


@pytest.fixture(scope="module")
def town():
    return TownMap(size=400.0, grid_n=3, seed=0)


@pytest.fixture(scope="module")
def scene(town):
    a, b = town.edges()[0]
    pa, pb = town.node_position(a), town.node_position(b)
    plan = RoutePlan(np.stack([pa, pb]))
    heading = plan.heading_at(0.0)
    mid = (pa + pb) / 2
    state = VehicleState(mid[0], mid[1], heading, 6.0)
    return plan, state


class TestBevSpec:
    def test_shape(self):
        assert BevSpec(grid=16).shape == (5, 16, 16)

    def test_cell_centers_count(self):
        spec = BevSpec(grid=8, cell=2.0)
        centers = spec.cell_centers()
        assert centers.shape == (64, 2)

    def test_ego_near_rear(self):
        spec = BevSpec(grid=10, cell=2.0, back_fraction=0.2)
        centers = spec.cell_centers()
        assert centers[:, 0].min() == pytest.approx(-4.0 + 1.0)
        assert centers[:, 0].max() == pytest.approx(16.0 - 1.0)

    def test_local_to_index_roundtrip(self):
        spec = BevSpec(grid=8, cell=2.0)
        centers = spec.cell_centers()
        rc, valid = spec.local_to_index(centers)
        assert valid.all()
        expected = np.stack(np.meshgrid(np.arange(8), np.arange(8), indexing="ij"), -1)
        assert np.array_equal(rc.reshape(8, 8, 2), expected)

    def test_out_of_grid_invalid(self):
        spec = BevSpec(grid=8, cell=2.0)
        rc, valid = spec.local_to_index(np.array([[1000.0, 0.0]]))
        assert not valid[0]


class TestRenderBev:
    def test_channels_and_dtype(self, town, scene):
        plan, state = scene
        bev = render_bev(town, BevSpec(grid=12), state, plan, np.zeros((0, 2)), np.zeros((0, 2)))
        assert bev.shape == (5, 12, 12)
        assert bev.dtype == np.float32

    def test_road_channel_nonempty_on_road(self, town, scene):
        plan, state = scene
        bev = render_bev(town, BevSpec(grid=12), state, plan, np.zeros((0, 2)), np.zeros((0, 2)))
        assert bev[0].sum() > 5

    def test_route_channel_marks_route(self, town, scene):
        plan, state = scene
        bev = render_bev(town, BevSpec(grid=12), state, plan, np.zeros((0, 2)), np.zeros((0, 2)))
        assert bev[1].sum() > 2
        # Route cells lie on the road.
        assert (bev[0][bev[1] > 0] > 0).mean() > 0.8

    def test_car_ahead_marks_vehicle_channel(self, town, scene):
        plan, state = scene
        from repro.sim.geometry import to_world_frame

        ahead = to_world_frame(np.array([[10.0, 0.0]]), state.position, state.heading)
        bev = render_bev(town, BevSpec(grid=12), state, plan, ahead, np.zeros((0, 2)))
        assert bev[2].sum() == 1.0

    def test_pedestrian_channel_separate(self, town, scene):
        plan, state = scene
        from repro.sim.geometry import to_world_frame

        ped = to_world_frame(np.array([[8.0, 3.0]]), state.position, state.heading)
        bev = render_bev(town, BevSpec(grid=12), state, plan, np.zeros((0, 2)), ped)
        assert bev[3].sum() == 1.0
        assert bev[2].sum() == 0.0

    def test_agents_outside_grid_ignored(self, town, scene):
        plan, state = scene
        far = state.position[None, :] + 500.0
        bev = render_bev(town, BevSpec(grid=12), state, plan, far, far)
        assert bev[2].sum() == 0.0 and bev[3].sum() == 0.0

    def test_speed_plane_normalized(self, town, scene):
        plan, state = scene
        bev = render_bev(town, BevSpec(grid=12), state, plan, np.zeros((0, 2)), np.zeros((0, 2)))
        assert np.allclose(bev[4], state.speed / 12.0)

    def test_rotation_consistency(self, town, scene):
        # A car dead ahead lands in the same BEV cell regardless of the
        # ego's absolute heading.
        plan, state = scene
        from repro.sim.geometry import to_world_frame

        spec = BevSpec(grid=12)
        cells = []
        for heading in (0.0, np.pi / 3, -np.pi / 2):
            s = VehicleState(state.x, state.y, heading, 5.0)
            ahead = to_world_frame(np.array([[10.0, 0.0]]), s.position, heading)
            bev = render_bev(town, spec, s, plan, ahead, np.zeros((0, 2)))
            cells.append(tuple(np.argwhere(bev[2] > 0)[0]))
        assert cells[0] == cells[1] == cells[2]

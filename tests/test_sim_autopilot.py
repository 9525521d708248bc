"""Unit tests for the expert autopilot and the model pilot."""

import numpy as np
import pytest

from repro.nn import make_driving_model
from repro.sim.autopilot import CRUISE_SPEED, ExpertAutopilot, ModelPilot
from repro.sim.kinematics import VehicleState, advance
from repro.sim.router import RoutePlan


def straight_plan(length=300.0):
    return RoutePlan(np.array([[0.0, 0.0], [length, 0.0]]))


def drive(pilot, state, steps, dt=0.1, obstacles=None):
    obstacles = obstacles if obstacles is not None else np.zeros((0, 2))
    for _ in range(steps):
        turn_rate, accel = pilot.control(state, obstacles, dt=dt)
        state = advance(state, turn_rate, accel, dt)
    return state


class TestExpertAutopilot:
    def test_accelerates_to_cruise_on_open_road(self):
        plan = straight_plan()
        pilot = ExpertAutopilot(plan, lane_offset=0.0)
        state = VehicleState(0.0, 0.0, 0.0, 0.0)
        state = drive(pilot, state, 100)
        assert state.speed > 0.7 * CRUISE_SPEED

    def test_tracks_lane_offset(self):
        plan = straight_plan()
        pilot = ExpertAutopilot(plan, lane_offset=2.0)
        state = VehicleState(0.0, 0.0, 0.0, 0.0)
        state = drive(pilot, state, 150)
        # Heading +x: right-hand lane is y = -2.
        assert state.y == pytest.approx(-2.0, abs=0.8)

    def test_stops_for_obstacle_ahead(self):
        plan = straight_plan()
        pilot = ExpertAutopilot(plan, lane_offset=0.0)
        state = VehicleState(0.0, 0.0, 0.0, 8.0)
        blocker = np.array([[18.0, 0.0]])
        for _ in range(60):
            turn_rate, accel = pilot.control(state, blocker, dt=0.1)
            state = advance(state, turn_rate, accel, 0.1)
        assert state.speed < 1.0
        assert state.x < 15.0  # stopped short of the obstacle

    def test_ignores_obstacle_behind(self):
        plan = straight_plan()
        pilot = ExpertAutopilot(plan, lane_offset=0.0)
        state = VehicleState(50.0, 0.0, 0.0, 0.0)
        behind = np.array([[40.0, 0.0]])
        state = drive(pilot, state, 80, obstacles=behind)
        assert state.speed > 3.0

    def test_ignores_lateral_obstacle(self):
        plan = straight_plan()
        pilot = ExpertAutopilot(plan, lane_offset=0.0)
        state = VehicleState(0.0, 0.0, 0.0, 5.0)
        sideways = np.array([[10.0, 12.0]])
        state = drive(pilot, state, 80, obstacles=sideways)
        assert state.speed > 3.0

    def test_progress_and_done(self):
        plan = straight_plan(120.0)
        pilot = ExpertAutopilot(plan, lane_offset=0.0)
        state = VehicleState(0.0, 0.0, 0.0, 0.0)
        state = drive(pilot, state, 300)
        assert pilot.done()

    def test_creep_engages_after_long_block(self):
        plan = straight_plan()
        pilot = ExpertAutopilot(plan, lane_offset=0.0)
        state = VehicleState(0.0, 0.0, 0.0, 0.0)
        # Blocker slightly off-center ahead, forever.
        blocker = np.array([[6.0, 1.5]])
        for _ in range(200):
            turn_rate, accel = pilot.control(state, blocker, dt=0.1)
            state = advance(state, turn_rate, accel, 0.1)
        # After the stopped-time threshold the pilot creeps past.
        assert state.x > 2.0


def predicting(waypoints: np.ndarray):
    """A model that predicts ``waypoints`` whatever it sees: every weight
    zero, every command head's bias the waypoints."""
    model = make_driving_model((3, 8, 8), 4, 16, seed=0)
    for p in model.parameters():
        p.data[...] = 0.0
    for head in model.heads:
        head.bias.data[...] = waypoints.ravel()
    return model


class TestModelPilot:
    def _pilot(self, plan):
        model = make_driving_model((3, 8, 8), 4, 16, seed=0)
        bev = np.zeros((3, 8, 8), dtype=np.float32)
        return ModelPilot(model, plan, bev_fn=lambda state, p: bev)

    def test_queries_model_at_decision_interval(self):
        plan = straight_plan()
        calls = []
        model = make_driving_model((3, 8, 8), 4, 16, seed=0)

        def bev_fn(state, p):
            calls.append(state)
            return np.zeros((3, 8, 8), dtype=np.float32)

        pilot = ModelPilot(model, plan, bev_fn)
        state = VehicleState(0.0, 0.0, 0.0, 0.0)
        for _ in range(10):
            turn_rate, accel = pilot.control(state, 0.1)
            state = advance(state, turn_rate, accel, 0.1)
        assert len(calls) == 2  # t=0 and t=0.5

    def test_speed_follows_predicted_spacing(self):
        plan = straight_plan()
        # Force known forward waypoints: 2 m apart at 0.5 s -> 4 m/s.
        wp = np.array([[2.0, 0.0], [4.0, 0.0], [6.0, 0.0], [8.0, 0.0]], dtype=np.float32)
        model = predicting(wp)
        pilot = ModelPilot(model, plan, lambda s, p: np.zeros((3, 8, 8), np.float32))
        state = VehicleState(0.0, 0.0, 0.0, 0.0)
        for _ in range(100):
            turn_rate, accel = pilot.control(state, 0.1)
            state = advance(state, turn_rate, accel, 0.1)
        assert state.speed == pytest.approx(4.0, abs=0.8)

    def test_near_zero_waypoints_stop_vehicle(self):
        plan = straight_plan()
        model = predicting(np.full((4, 2), 0.01, dtype=np.float32))
        pilot = ModelPilot(model, plan, lambda s, p: np.zeros((3, 8, 8), np.float32))
        state = VehicleState(0.0, 0.0, 0.0, 6.0)
        for _ in range(50):
            turn_rate, accel = pilot.control(state, 0.1)
            state = advance(state, turn_rate, accel, 0.1)
        assert state.speed < 0.5

    def test_drives_a_copy_and_leaves_the_model_in_its_bank(self, node):
        """A vehicle's model stays its fleet's bank row; the pilot decides
        on the parameters its detached copy had when the pilot was made."""
        from repro.nn.params import set_flat_params

        model = node.detached_model()
        bev = np.random.default_rng(0).normal(size=model.bev_shape).astype(np.float32)
        plan = straight_plan()
        expected = model.forward(bev[None], np.array([plan.command_at(0.0)]))
        pilot = ModelPilot(model, plan, lambda s, p: bev)
        set_flat_params(model, np.zeros_like(node.flat_params))  # the copy is the caller's
        node.replace_model_params(np.zeros_like(node.flat_params))  # the fleet trains on
        pilot.control(VehicleState(0.0, 0.0, 0.0, 0.0), 0.1)
        assert np.shares_memory(node.flat_params, node.fleet.bank.flat)
        assert np.array_equal(pilot._waypoints, expected.reshape(-1, 2).astype(float))

    def test_done_tracks_route_progress(self):
        plan = straight_plan(60.0)
        model = predicting(
            np.array([[3.0, 0.0], [6.0, 0.0], [9.0, 0.0], [12.0, 0.0]], dtype=np.float32)
        )
        pilot = ModelPilot(model, plan, lambda s, p: np.zeros((3, 8, 8), np.float32))
        state = VehicleState(0.0, 0.0, 0.0, 0.0)
        for _ in range(400):
            turn_rate, accel = pilot.control(state, 0.1)
            state = advance(state, turn_rate, accel, 0.1)
            if pilot.done():
                break
        assert pilot.done()

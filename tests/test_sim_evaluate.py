"""Tests for online evaluation (conditions, routes, episodes)."""

import numpy as np
import pytest

from repro.nn import make_driving_model
from repro.sim import evaluate
from repro.sim.evaluate import (
    DrivingCondition,
    EvalConfig,
    route_for_condition,
    run_episode,
    success_rate,
)
from repro.sim.router import CMD_STRAIGHT
from repro.engine.random import spawn_rng
from tests.conftest import BEV_SPEC, N_WAYPOINTS


@pytest.fixture(scope="module")
def eval_config():
    return EvalConfig(bev_spec=BEV_SPEC, normal_cars=3, normal_pedestrians=6)


@pytest.fixture(autouse=True)
def short_navigation(monkeypatch):
    """The test town is smaller than the paper's: shorter Navigation routes."""
    monkeypatch.setattr(evaluate, "MIN_NAVIGATION_LENGTH", 250.0)


class TestDrivingCondition:
    def test_traffic_scales(self):
        assert DrivingCondition.STRAIGHT.traffic_scale == 0.0
        assert DrivingCondition.ONE_TURN.traffic_scale == 0.0
        assert DrivingCondition.NAVI_EMPTY.traffic_scale == 0.0
        assert DrivingCondition.NAVI_NORMAL.traffic_scale == 1.0
        assert DrivingCondition.NAVI_DENSE.traffic_scale == pytest.approx(1.2)

    def test_five_conditions(self):
        assert len(list(DrivingCondition)) == 5


class TestRouteForCondition:
    def test_straight_has_no_turns(self, town, eval_config):
        rng = spawn_rng(0, "straight")
        for _ in range(5):
            plan = route_for_condition(town, DrivingCondition.STRAIGHT, rng)
            turning = [c for _, c in plan._turns if c != CMD_STRAIGHT]
            assert not turning

    def test_one_turn_has_exactly_one(self, town, eval_config):
        rng = spawn_rng(0, "oneturn")
        plan = route_for_condition(town, DrivingCondition.ONE_TURN, rng)
        turning = [c for _, c in plan._turns if c != CMD_STRAIGHT]
        assert len(turning) == 1

    def test_navigation_long_with_turns(self, town, eval_config):
        rng = spawn_rng(0, "navi")
        plan = route_for_condition(town, DrivingCondition.NAVI_EMPTY, rng)
        turning = [c for _, c in plan._turns if c != CMD_STRAIGHT]
        assert len(turning) >= 2
        assert plan.total_length >= evaluate.MIN_NAVIGATION_LENGTH


class TestRunEpisode:
    def test_untrained_model_fails_gracefully(self, town, eval_config):
        model = make_driving_model(BEV_SPEC.shape, N_WAYPOINTS, 16, seed=0)
        rng = spawn_rng(1, "ep")
        plan = route_for_condition(town, DrivingCondition.STRAIGHT, rng)
        result = run_episode(model, town, plan, DrivingCondition.STRAIGHT, eval_config, seed=0)
        assert result.reason in ("success", "collision", "off_road", "timeout")
        assert result.time > 0
        assert result.route_length == plan.total_length

    def test_result_consistency(self, town, eval_config):
        model = make_driving_model(BEV_SPEC.shape, N_WAYPOINTS, 16, seed=0)
        rng = spawn_rng(1, "ep2")
        plan = route_for_condition(town, DrivingCondition.STRAIGHT, rng)
        result = run_episode(model, town, plan, DrivingCondition.STRAIGHT, eval_config, seed=0)
        assert result.success == (result.reason == "success")

    def test_deterministic(self, town, eval_config):
        model = make_driving_model(BEV_SPEC.shape, N_WAYPOINTS, 16, seed=0)
        rng_a = spawn_rng(1, "det")
        rng_b = spawn_rng(1, "det")
        plan_a = route_for_condition(town, DrivingCondition.NAVI_NORMAL, rng_a)
        plan_b = route_for_condition(town, DrivingCondition.NAVI_NORMAL, rng_b)
        result_a = run_episode(model, town, plan_a, DrivingCondition.NAVI_NORMAL, eval_config, seed=5)
        result_b = run_episode(model, town, plan_b, DrivingCondition.NAVI_NORMAL, eval_config, seed=5)
        assert result_a.reason == result_b.reason
        assert result_a.time == pytest.approx(result_b.time)


class TestSuccessRate:
    def test_rate_in_unit_interval(self, town, eval_config):
        model = make_driving_model(BEV_SPEC.shape, N_WAYPOINTS, 16, seed=0)
        rate = success_rate(
            model, town, DrivingCondition.STRAIGHT, n_trials=2, config=eval_config, seed=3
        )
        assert 0.0 <= rate <= 1.0

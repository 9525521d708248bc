"""Online evaluation: driving success rate.

Mirrors §IV-D: the trained model is deployed on a testing autopilot that
must navigate predefined routes; a trial succeeds when the vehicle
reaches the destination within a time budget without colliding with
cars or pedestrians (we additionally fail trials that leave the road,
which CARLA counts through its lane-invasion/timeout machinery).

Conditions reproduce the CARLA benchmark ladder: Straight, One Turn,
Navigation (Empty), Navigation (Normal traffic) and Navigation (Dense,
1.2x the normal traffic).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from repro.engine.random import spawn_rng
from repro.sim.autopilot import ModelPilot
from repro.sim.bev import BevSpec, render_bev
from repro.sim.kinematics import VehicleState, advance
from repro.sim.map import TownMap
from repro.sim.router import CMD_STRAIGHT, RoutePlan, random_route
from repro.sim.traffic import TrafficManager
from repro.sim.world import CAR_RADIUS, DT, PED_RADIUS

__all__ = [
    "BUDGET_SLACK",
    "DrivingCondition",
    "EvalConfig",
    "EpisodeResult",
    "MIN_NAVIGATION_LENGTH",
    "OFF_ROAD_MARGIN",
    "SPEED_BUDGET",
    "run_episode",
    "success_rate",
]


class DrivingCondition(Enum):
    """The five CARLA-style difficulty levels (§IV-D)."""

    STRAIGHT = "Straight"
    ONE_TURN = "One Turn"
    NAVI_EMPTY = "Navi. (Empty)"
    NAVI_NORMAL = "Navi. (Normal)"
    NAVI_DENSE = "Navi. (Dense)"

    @property
    def traffic_scale(self) -> float:
        """Multiplier on the normal traffic counts (Dense is 1.2x)."""
        if self in (DrivingCondition.STRAIGHT, DrivingCondition.ONE_TURN, DrivingCondition.NAVI_EMPTY):
            return 0.0
        if self is DrivingCondition.NAVI_NORMAL:
            return 1.0
        return 1.2


#: An episode's time budget is route length / 3 + 30 s: the route driven
#: at an average of ``SPEED_BUDGET`` m/s, plus ``BUDGET_SLACK`` seconds.
SPEED_BUDGET = 3.0
BUDGET_SLACK = 30.0
#: The off-road margin: how far (m) past the paved road's edge the car
#: may stray before the trial fails as off-road (our stand-in for
#: CARLA's lane-invasion check).
OFF_ROAD_MARGIN = 3.0
#: The shortest route a Navigation trial drives, meters (the CARLA
#: benchmark's multi-turn routes, §IV-D).
MIN_NAVIGATION_LENGTH = 350.0


@dataclass
class EvalConfig:
    """Parameters for online-evaluation episodes."""

    bev_spec: BevSpec = None  # type: ignore[assignment]
    normal_cars: int = 50
    normal_pedestrians: int = 250

    def __post_init__(self):
        if self.bev_spec is None:
            self.bev_spec = BevSpec()


@dataclass
class EpisodeResult:
    """Outcome of one closed-loop driving trial."""
    success: bool
    reason: str  # "success" | "collision" | "off_road" | "timeout"
    time: float
    route_length: float


def route_for_condition(
    town: TownMap, condition: DrivingCondition, rng: np.random.Generator
) -> RoutePlan:
    """Sample a route whose turn structure matches the condition."""
    for _ in range(256):
        plan = random_route(town, rng, min_length=120.0)
        turning = [cmd for _, cmd in plan._turns if cmd != CMD_STRAIGHT]
        if condition is DrivingCondition.STRAIGHT:
            if not turning and 120.0 <= plan.total_length <= 400.0:
                return plan
        elif condition is DrivingCondition.ONE_TURN:
            if len(turning) == 1 and plan.total_length <= 500.0:
                return plan
        else:
            if len(turning) >= 2 and plan.total_length >= MIN_NAVIGATION_LENGTH:
                return plan
    raise RuntimeError(f"could not sample a route for {condition}")


def run_episode(
    model,
    town: TownMap,
    plan: RoutePlan,
    condition: DrivingCondition,
    config: EvalConfig,
    seed: int,
) -> EpisodeResult:
    """Drive one closed-loop trial; returns the outcome."""
    scale = condition.traffic_scale
    traffic = TrafficManager(
        town,
        n_cars=int(round(config.normal_cars * scale)),
        n_pedestrians=int(round(config.normal_pedestrians * scale)),
        rng=spawn_rng(seed, "episode-traffic"),
        keep_clear=plan.point_at(0.0),
    )
    start = plan.point_at(0.0)
    state = VehicleState(start[0], start[1], plan.heading_at(0.0), 0.0)

    def bev_fn(current_state: VehicleState, current_plan: RoutePlan) -> np.ndarray:
        return render_bev(
            town,
            config.bev_spec,
            current_state,
            current_plan,
            traffic.car_positions(),
            traffic.pedestrian_positions(),
        )

    pilot = ModelPilot(model, plan, bev_fn)
    budget = plan.total_length / SPEED_BUDGET + BUDGET_SLACK
    time = 0.0

    def finish(success: bool, reason: str) -> EpisodeResult:
        return EpisodeResult(success, reason, time, plan.total_length)

    while time < budget:
        turn_rate, accel = pilot.control(state, DT)
        state = advance(state, turn_rate, accel, DT)
        traffic.step(state.position[None, :], DT, extra_speeds=np.array([state.speed]))
        time += DT
        if _collided(state, traffic):
            return finish(False, "collision")
        if not town.is_on_road(state.position, margin=OFF_ROAD_MARGIN):
            return finish(False, "off_road")
        if pilot.done():
            return finish(True, "success")
    return finish(False, "timeout")


def _collided(state: VehicleState, traffic: TrafficManager) -> bool:
    cars = traffic.car_positions()
    if len(cars) and (np.linalg.norm(cars - state.position, axis=1) < 2 * CAR_RADIUS).any():
        return True
    peds = traffic.pedestrian_positions()
    if len(peds) and (
        np.linalg.norm(peds - state.position, axis=1) < CAR_RADIUS + PED_RADIUS
    ).any():
        return True
    return False


def success_rate(
    model,
    town: TownMap,
    condition: DrivingCondition,
    n_trials: int,
    config: EvalConfig | None = None,
    seed: int = 0,
) -> float:
    """Fraction of successful trials for one condition, in [0, 1]."""
    config = config or EvalConfig()
    successes = 0
    for trial in range(n_trials):
        rng = spawn_rng(seed, f"route-{condition.value}-{trial}")
        plan = route_for_condition(town, condition, rng)
        result = run_episode(model, town, plan, condition, config, seed=seed * 1000 + trial)
        successes += int(result.success)
    return successes / n_trials

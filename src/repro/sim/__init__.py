"""A 2-D driving world standing in for CARLA.

The world provides everything the paper's experiments consume from the
simulator:

* a town road network (:mod:`repro.sim.map`) on a ~1 km x 1 km area with
  town and rural parts,
* expert autopilot vehicles that drive routes safely
  (:mod:`repro.sim.autopilot`) and background traffic — roaming cars and
  pedestrians (:mod:`repro.sim.traffic`),
* bird's-eye-view rasterization (:mod:`repro.sim.bev`),
* frame datasets of (BEV, command, waypoints) for imitation learning
  (:mod:`repro.sim.dataset`),
* closed-loop online evaluation by driving-success rate
  (:mod:`repro.sim.evaluate`), and
* mobility traces for the communication simulation
  (:mod:`repro.sim.traces`).
"""

from repro.sim.map import TownMap
from repro.sim.router import RoutePlan, plan_route, random_route
from repro.sim.kinematics import VehicleState, advance
from repro.sim.bev import BevSpec, render_bev, render_fleet_bev
from repro.sim.world import World, WorldConfig
from repro.sim.dataset import DrivingDataset, Frame, collect_fleet_datasets
from repro.sim.evaluate import DrivingCondition, success_rate
from repro.sim.traces import MobilityTraces, simulate_traces

__all__ = [
    "TownMap",
    "RoutePlan",
    "plan_route",
    "random_route",
    "VehicleState",
    "advance",
    "BevSpec",
    "render_bev",
    "render_fleet_bev",
    "World",
    "WorldConfig",
    "Frame",
    "DrivingDataset",
    "collect_fleet_datasets",
    "DrivingCondition",
    "success_rate",
    "MobilityTraces",
    "simulate_traces",
]

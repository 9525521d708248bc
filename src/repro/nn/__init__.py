"""A small, from-scratch neural-network library on numpy.

This package stands in for PyTorch: it provides exactly what the LbChat
algorithm needs from a learner — per-sample losses, minibatch gradient
training, and a flat parameter vector that can be sparsified, shipped to
a peer, and averaged.

Layers implement explicit ``forward``/``backward`` passes (no autograd
tape); the one model is the command-branched
:class:`~repro.nn.model.WaypointNet` used for the BEV-based driving
decision task, a :class:`~repro.nn.layers.Sequential` MLP trunk
(Flatten, Linear, ReLU) under one linear head per command.
"""

from repro.nn.bank import FleetAdam, FleetWaypointNet, ParamBank
from repro.nn.layers import (
    Flatten,
    Linear,
    Module,
    ReLU,
    Sequential,
)
from repro.nn.losses import fleet_waypoint_l1, waypoint_l1
from repro.nn.model import WaypointNet, make_driving_model
from repro.nn.optim import Adam
from repro.nn.params import (
    Parameter,
    clone_model,
    get_flat_params,
    num_params,
    set_flat_params,
)

__all__ = [
    "Module",
    "Linear",
    "ReLU",
    "Flatten",
    "Sequential",
    "WaypointNet",
    "make_driving_model",
    "waypoint_l1",
    "fleet_waypoint_l1",
    "Adam",
    "ParamBank",
    "FleetWaypointNet",
    "FleetAdam",
    "Parameter",
    "get_flat_params",
    "set_flat_params",
    "clone_model",
    "num_params",
]

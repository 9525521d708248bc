"""The BEV-based driving decision model.

A compact stand-in for the "Learning by Cheating" privileged agent the
paper trains: the input is a bird's-eye-view occupancy tensor plus a
high-level navigation command, and the output is the next few waypoints
the vehicle should follow, expressed as (dx, dy) offsets in the
vehicle's frame.

Like CIL/LBC, the network is *command-branched*: a shared trunk encodes
the BEV and a separate linear head per command produces waypoints, so
"turn left" and "go straight" never compete for the same output weights.
"""

from __future__ import annotations

import numpy as np

from repro.nn.layers import Flatten, Linear, Module, ReLU, Sequential
from repro.nn.params import Parameter

__all__ = ["WaypointNet", "make_driving_model", "N_COMMANDS", "COMMAND_NAMES"]

#: High-level commands from the navigation service, as in CARLA/CIL.
COMMAND_NAMES = ("follow", "left", "right", "straight")
N_COMMANDS = len(COMMAND_NAMES)


class WaypointNet(Module):
    """Command-branched waypoint predictor: the flattened BEV through a
    two-layer ReLU MLP trunk, then one linear head per command.

    Parameters
    ----------
    bev_shape:
        ``(channels, height, width)`` of the input BEV tensor.
    n_waypoints:
        Number of future waypoints to predict; output dim is ``2 * n``.
    hidden:
        Trunk width.
    rng:
        Generator for weight initialization.
    """

    def __init__(
        self,
        bev_shape: tuple[int, int, int],
        n_waypoints: int,
        hidden: int,
        rng: np.random.Generator,
    ):
        channels, height, width = bev_shape
        self.bev_shape = bev_shape
        self.n_waypoints = n_waypoints
        self.trunk = Sequential(
            Flatten(),
            Linear(channels * height * width, hidden, rng),
            ReLU(),
            Linear(hidden, hidden, rng),
            ReLU(),
        )
        self.heads = [Linear(hidden, 2 * n_waypoints, rng) for _ in range(N_COMMANDS)]
        self._features: np.ndarray | None = None
        self._commands: np.ndarray | None = None

    # Sequential.forward has a single input; WaypointNet takes (bev, cmd),
    # so it overrides __call__-style usage with an explicit signature.
    def forward(self, bev: np.ndarray, commands: np.ndarray) -> np.ndarray:  # type: ignore[override]
        """Predict waypoints.

        Parameters
        ----------
        bev:
            ``(batch, channels, height, width)`` float array.
        commands:
            ``(batch,)`` integer array in ``[0, N_COMMANDS)``.
        """
        commands = np.asarray(commands)
        if commands.ndim != 1 or commands.shape[0] != bev.shape[0]:
            raise ValueError("commands must be a (batch,) vector matching bev")
        # ``copy=False``: the first trunk layer defensively copies any
        # writeable input it must cache (see Linear.forward), so an
        # unconditional astype copy here would just double the work.
        features = self.trunk.forward(bev.astype(np.float32, copy=False))
        out = np.zeros((bev.shape[0], 2 * self.n_waypoints), dtype=np.float32)
        for cmd in range(N_COMMANDS):
            mask = commands == cmd
            if mask.any():
                picked = features[mask]
                picked.flags.writeable = False  # ours alone: the head may alias it
                out[mask] = self.heads[cmd].forward(picked)
        self._features = features
        # Backward re-reads the command vector after control returned to
        # the caller; copy writeable inputs so buffer reuse cannot
        # silently reroute head gradients (same contract as Linear).
        self._commands = commands.copy() if commands.flags.writeable else commands
        return out

    def backward(self, grad_out: np.ndarray) -> np.ndarray:  # type: ignore[override]
        """Route head gradients per command, then back through the trunk.

        Part of the single-vehicle reference step (``VehicleNode.
        train_step``): the oracle ``tests/test_nn_bank.py`` holds
        ``FleetWaypointNet.backward`` to, and what the examples train
        with.  No trainer calls it.
        """
        if self._features is None or self._commands is None:
            raise RuntimeError("backward before forward")
        grad_features = np.zeros_like(self._features)
        for cmd in range(N_COMMANDS):
            mask = self._commands == cmd
            if mask.any():
                grad_features[mask] = self.heads[cmd].backward(grad_out[mask])
        return self.trunk.backward(grad_features)

    def parameters(self) -> list[Parameter]:
        """Trunk parameters followed by each command head's."""
        params = self.trunk.parameters()
        for head in self.heads:
            params.extend(head.parameters())
        return params


def make_driving_model(
    bev_shape: tuple[int, int, int],
    n_waypoints: int,
    hidden: int,
    seed: int,
) -> WaypointNet:
    """Build a :class:`WaypointNet` with a deterministic initialization.

    All vehicles call this with the *same* seed, matching the paper's
    assumption that models share one initialization.
    """
    rng = np.random.default_rng(seed)
    return WaypointNet(bev_shape, n_waypoints, hidden, rng)
